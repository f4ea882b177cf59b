//! The one line-protocol client: connect, send a request line, read
//! response lines back.
//!
//! Everything that talks to a daemon or router goes through [`Client`]:
//! from outside, `bsched-loadgen`, `bsched serve --control` and the
//! integration tests ([`Client::connect`], which retries); inside the
//! router, every forward, probe, stats fetch and shutdown it sends a
//! shard ([`Client::connect_with_deadline`], one attempt under hard
//! deadlines). So framing (one write per line), the response-size cap
//! and the connect policies live in one place.

use std::fmt::Display;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use bsched_analyze::json::{self, Json};

use crate::protocol::{is_chunk_line, is_stream_end, read_line_bounded, write_line};

/// Largest response line a client accepts (chunks included): responses
/// for large programs are big, but not unbounded, and the cap stops a
/// misbehaving peer from growing the buffer without bound.
const MAX_RESPONSE_LINE: usize = 64 * 1024 * 1024;

/// Connect attempts before [`Client::connect`] gives up.
const CONNECT_ATTEMPTS: u32 = 8;

/// One connection to a daemon or router.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects with bounded retries and backoff (25 ms doubling to
    /// 400 ms): a daemon still binding its socket, or a shard
    /// mid-restart, refuses connections for a few milliseconds, which
    /// must not fail a whole run.
    ///
    /// # Errors
    ///
    /// When every attempt fails: one error naming the address ("no
    /// daemon accepting connections at …"), carrying the last
    /// attempt's error kind, instead of a raw `ECONNREFUSED`.
    pub fn connect<A: ToSocketAddrs + Display>(addr: A) -> io::Result<Client> {
        let mut delay = Duration::from_millis(25);
        let mut last = io::Error::from(io::ErrorKind::NotFound);
        for attempt in 0..CONNECT_ATTEMPTS {
            match TcpStream::connect(&addr) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => last = e,
            }
            if attempt + 1 < CONNECT_ATTEMPTS {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(400));
            }
        }
        Err(io::Error::new(
            last.kind(),
            format!(
                "no daemon accepting connections at {addr} after {CONNECT_ATTEMPTS} attempts \
                 (last error: {last})"
            ),
        ))
    }

    /// One connect attempt bounded by `connect_timeout`, with every
    /// later read and write bounded by `io_timeout`: how the router and
    /// its prober reach a shard, where a dead or hung peer must cost a
    /// bounded slice of time and trip failover, never a retry loop.
    ///
    /// # Errors
    ///
    /// Address resolution or connect failure (including the deadline),
    /// or the socket options could not be set.
    pub fn connect_with_deadline(
        addr: &str,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> io::Result<Client> {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "address resolves to nothing")
        })?;
        let stream = TcpStream::connect_timeout(&resolved, connect_timeout)?;
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        Client::from_stream(stream)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Bounds how long a read may block (`None` waits forever).
    ///
    /// # Errors
    ///
    /// The socket option could not be set.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// The underlying socket, for raw writes and socket options.
    #[must_use]
    pub fn stream(&self) -> &TcpStream {
        &self.writer
    }

    /// Writes `line` and its newline in one write (see
    /// `protocol::write_line` for why one). A `line` holding several
    /// `\n`-separated requests pipelines them.
    ///
    /// # Errors
    ///
    /// The write failed (typically: the peer hung up).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        write_line(&mut self.writer, line)
    }

    /// Reads one response line without its newline; `Ok(None)` is a
    /// clean hang-up.
    ///
    /// # Errors
    ///
    /// `InvalidData` past 64 MiB; otherwise the read error.
    pub fn recv_line(&mut self) -> io::Result<Option<String>> {
        read_line_bounded(&mut self.reader, MAX_RESPONSE_LINE)
    }

    /// Reads and parses one response line.
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer hung up instead of answering,
    /// `InvalidData` when the line is not JSON, or the read error.
    pub fn recv(&mut self) -> io::Result<Json> {
        let line = self.recv_line()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed without a response",
            )
        })?;
        json::parse(&line).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed response: {line:?}"),
            )
        })
    }

    /// [`send`](Client::send) then [`recv`](Client::recv).
    ///
    /// # Errors
    ///
    /// As for `send` and `recv`.
    pub fn round_trip(&mut self, line: &str) -> io::Result<Json> {
        self.send(line)?;
        self.recv()
    }

    /// Reads one streamed response off the wire: every chunk line, then
    /// the terminal line (summary or abort).
    ///
    /// # Errors
    ///
    /// `UnexpectedEof` when the peer hangs up mid-stream,
    /// `InvalidData` on a line that is neither a chunk nor a terminal.
    pub fn recv_stream(&mut self) -> io::Result<(Vec<String>, String)> {
        let mut chunks = Vec::new();
        loop {
            let line = self.recv_line()?.ok_or_else(|| {
                io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-stream")
            })?;
            if is_stream_end(&line) {
                return Ok((chunks, line));
            }
            if !is_chunk_line(&line) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected line mid-stream: {line}"),
                ));
            }
            chunks.push(line);
        }
    }

    /// The `/stats` response (counters under its `"stats"` key).
    ///
    /// # Errors
    ///
    /// As for [`round_trip`](Client::round_trip).
    pub fn stats(&mut self) -> io::Result<Json> {
        self.round_trip("/stats")
    }
}

/// Blanks every `"service_us"` value to `0`: it is wall-clock and
/// differs per hit, so two responses for the same cached request only
/// compare byte-for-byte after this.
#[must_use]
pub fn blank_service_us(line: &str) -> String {
    const NEEDLE: &str = "\"service_us\":";
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find(NEEDLE) {
        let tail = &rest[at + NEEDLE.len()..];
        let digits = tail.bytes().take_while(u8::is_ascii_digit).count();
        out.push_str(&rest[..at + NEEDLE.len()]);
        out.push('0');
        rest = &tail[digits..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};
    use std::net::TcpListener;

    #[test]
    fn connect_to_a_dead_port_is_a_typed_error() {
        // Bind-then-drop leaves a port nothing listens on.
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("ephemeral port")
            .port();
        let addr = format!("127.0.0.1:{port}");
        let err = Client::connect(addr.as_str())
            .err()
            .expect("nothing listens");
        assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("no daemon accepting connections at {addr}")),
            "{msg}"
        );
    }

    #[test]
    fn recv_stream_stops_at_the_terminal_line() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            BufReader::new(stream.try_clone().expect("clone"))
                .read_line(&mut request)
                .expect("request");
            // Two chunks, the terminal, then a line that belongs to the
            // next response and must stay unread.
            stream
                .write_all(
                    b"{\"status\":\"chunk\",\"seq\":0}\n{\"status\":\"chunk\",\"seq\":1}\n\
                      {\"id\":\"s\",\"stream_end\":true,\"chunks\":2}\n{\"pong\":true}\n",
                )
                .expect("respond");
        });
        let mut client = Client::connect(addr).expect("connect");
        client
            .send("{\"op\":\"schedule\",\"stream\":true}")
            .expect("send");
        let (chunks, terminal) = client.recv_stream().expect("stream");
        assert_eq!(chunks.len(), 2);
        assert!(terminal.contains("\"chunks\":2"), "{terminal}");
        let next = client.recv_line().expect("read").expect("next line");
        assert_eq!(next, "{\"pong\":true}");
        peer.join().expect("peer thread");
    }

    #[test]
    fn blank_service_us_zeroes_every_occurrence() {
        assert_eq!(
            blank_service_us("{\"service_us\":1234,\"x\":{\"service_us\":7}}"),
            "{\"service_us\":0,\"x\":{\"service_us\":0}}"
        );
    }
}
