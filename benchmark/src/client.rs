//! The daemon under test and the open-loop load generator that drives it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::fnv;

/// Builds the `bsched` binary from this checkout's sources and returns
/// its path. Cargo puts it under `CARGO_TARGET_DIR` when that is set
/// (relative paths resolve against the working directory), else under
/// the workspace's own `target/`.
///
/// # Errors
///
/// The build failed or could not be started.
pub fn build_daemon() -> Result<PathBuf, String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "-q",
            "-p",
            "balanced-scheduling",
            "--bin",
            "bsched",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("starting cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building bsched failed: {status}"));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(dir),
        None => root.join("target"),
    };
    Ok(target.join("release").join("bsched"))
}

/// A running `bsched serve --listen 127.0.0.1:0`, default flags.
pub struct Daemon {
    child: Option<Child>,
    addr: SocketAddr,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts the daemon and waits for it to report its address.
    ///
    /// # Errors
    ///
    /// The process could not start or never reported an address.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", bin.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("daemon exited before listening".to_owned());
            }
            if let Some(rest) = line.trim().split("listening on ").nth(1) {
                break rest
                    .parse()
                    .map_err(|e| format!("bad address {rest:?}: {e}"))?;
            }
        };
        let stderr = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        });
        Ok(Daemon {
            child: Some(child),
            addr,
            stderr: Some(stderr),
        })
    }

    /// The daemon's listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    #[must_use]
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Asks the daemon to drain and waits (up to 10 s, then kills it).
    ///
    /// # Errors
    ///
    /// The daemon had to be killed or exited unsuccessfully.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::open(self.addr).and_then(|mut c| c.call("{\"op\":\"shutdown\"}"));
        let mut child = self.child.take().expect("a live daemon");
        let deadline = Instant::now() + Duration::from_secs(10);
        let status = loop {
            match child.try_wait().map_err(|e| e.to_string())? {
                Some(status) => break Some(status),
                None if Instant::now() > deadline => break None,
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        let result = match status {
            Some(s) if s.success() && asked.is_ok() => Ok(()),
            Some(s) => Err(format!("daemon exited with {s}")),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err("daemon did not drain within 10 s".to_owned())
            }
        };
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        result
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A blocking request/response connection for control traffic.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// The connection failed.
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        writer.set_nodelay(true).map_err(|e| e.to_string())?;
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { writer, reader })
    }

    /// Sends one line.
    ///
    /// # Errors
    ///
    /// The write failed.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| e.to_string())
    }

    /// Receives one line.
    ///
    /// # Errors
    ///
    /// The read failed or the connection closed.
    pub fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(line.trim_end().to_owned()),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Sends one line and returns the reply.
    ///
    /// # Errors
    ///
    /// Either direction failed.
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// The parts of an `ok` schedule response the benchmark checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The echoed request id.
    pub id: usize,
    /// `status` was `ok`.
    pub ok: bool,
    /// `status` was `overloaded`: admission control shed the request.
    pub refused: bool,
    /// Served from the daemon's cache.
    pub cached: bool,
    /// The daemon's own admission-to-response time.
    pub service_us: u64,
    /// FNV-1a of the payload (the response minus id, `cached` and
    /// `service_us`).
    pub payload_hash: u64,
    /// The payload itself, kept only for sampled requests.
    pub payload: Option<String>,
}

/// Splits a response line into its checked parts; `None` if it does not
/// carry a numeric id.
#[must_use]
pub fn parse_reply(line: &str, keep_payload: impl Fn(usize) -> bool) -> Option<Reply> {
    let rest = line.strip_prefix("{\"id\":\"")?;
    let end = rest.find('"')?;
    let id: usize = rest[..end].parse().ok()?;
    let rest = &rest[end + 2..];
    let ok = rest.starts_with("\"status\":\"ok\"");
    let (cached, payload, service_us) = if ok {
        let body = rest.strip_prefix("\"status\":\"ok\",\"cached\":")?;
        let (cached, body) = if let Some(b) = body.strip_prefix("true,") {
            (true, b)
        } else {
            (false, body.strip_prefix("false,")?)
        };
        let at = body.rfind(",\"service_us\":")?;
        let service_us = body[at + 14..].trim_end_matches('}').parse().ok()?;
        (cached, &body[..at], service_us)
    } else {
        (false, rest, 0)
    };
    Some(Reply {
        id,
        ok,
        refused: rest.starts_with("\"status\":\"overloaded\""),
        cached,
        service_us,
        payload_hash: fnv(0, payload.as_bytes()),
        payload: keep_payload(id).then(|| payload.to_owned()),
    })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is readable or `timeout` passes, with the
/// kernel's high-resolution timer (socket read timeouts round up to a
/// scheduler tick, too coarse for sub-millisecond send schedules).
fn wait_readable(stream: &TcpStream, timeout: Duration) -> bool {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: 0x1, // POLLIN
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: i64::try_from(timeout.as_secs()).unwrap_or(i64::MAX),
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid out `struct pollfd`
    // and `struct timespec` values for the duration of the call; nfds is
    // 1, matching the single pollfd; a null sigmask leaves the signal
    // mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    n > 0
}

/// What the generator saw of one request.
#[derive(Debug, Clone, Default)]
pub struct Sent {
    /// The request was written (a closed loop stops sending at its end).
    pub sent: bool,
    /// Nanoseconds from the step's start to the request's due time (its
    /// send time, in a closed loop).
    pub due_ns: u64,
    /// Nanoseconds late the request was written.
    pub lag_ns: u64,
    /// Nanoseconds from start to the reply's arrival, if one came.
    pub recv_ns: Option<u64>,
    /// The reply.
    pub reply: Option<Reply>,
}

/// How the generator paces its requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Open loop: request `i` is due `i / rate` seconds after the start,
    /// whether or not earlier requests were answered.
    Open {
        /// Requests per second.
        rate: f64,
    },
    /// Closed loop: `in_flight` requests are kept outstanding, the next
    /// sent as soon as a reply arrives, until `duration` has passed.
    Closed {
        /// Requests kept outstanding.
        in_flight: usize,
        /// How long to keep sending.
        duration: Duration,
    },
}

/// Sends `lines` (request `i` carries id `first_id + i`) over one
/// connection from the calling thread, paced by `pacing`. Replies are
/// drained between sends; unanswered requests are abandoned `grace`
/// after sending ends.
///
/// One connection on one thread: on the two-vCPU reference host, a
/// thread and connection per CPU made the serve timings spread more from
/// run to run (README, "Load shape").
///
/// # Errors
///
/// The connection failed, or a reply was unreadable or unexpected.
pub fn drive(
    addr: SocketAddr,
    lines: &[String],
    first_id: usize,
    pacing: Pacing,
    grace: Duration,
    keep_payload: &dyn Fn(usize) -> bool,
) -> Result<Vec<Sent>, String> {
    let n = lines.len();
    let due = |i: usize| match pacing {
        Pacing::Open { rate } => (i as f64 * 1e9 / rate) as u64,
        Pacing::Closed { .. } => 0,
    };
    let end_ns = match pacing {
        Pacing::Open { .. } => due(n.saturating_sub(1)),
        Pacing::Closed { duration, .. } => u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX),
    };
    let deadline_ns = end_ns + u64::try_from(grace.as_nanos()).unwrap_or(u64::MAX);
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut sent: Vec<Sent> = vec![Sent::default(); n];
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    let start = Instant::now();
    let now = || u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    loop {
        let t_now = now();
        let may_send = next < n
            && match pacing {
                Pacing::Open { .. } => due(next) <= t_now,
                Pacing::Closed { in_flight, .. } => outstanding < in_flight && t_now < end_ns,
            };
        if may_send {
            stream
                .write_all(lines[next].as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            let due_ns = match pacing {
                Pacing::Open { .. } => due(next),
                Pacing::Closed { .. } => t_now,
            };
            sent[next] = Sent {
                sent: true,
                due_ns,
                lag_ns: t_now - due_ns,
                ..Sent::default()
            };
            next += 1;
            outstanding += 1;
            continue;
        }
        let done_sending = next == n || t_now >= end_ns;
        if done_sending && outstanding == 0 || t_now >= deadline_ns {
            break;
        }
        let until = match pacing {
            Pacing::Open { .. } if next < n => due(next),
            _ if t_now < end_ns => end_ns,
            _ => deadline_ns,
        };
        if !wait_readable(&stream, Duration::from_nanos(until - t_now)) {
            continue;
        }
        let got = stream.read(&mut chunk).map_err(|e| format!("recv: {e}"))?;
        if got == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        let arrived = now();
        buf.extend_from_slice(&chunk[..got]);
        let mut consumed = 0;
        while let Some(nl) = buf[consumed..].iter().position(|&b| b == b'\n') {
            let line = String::from_utf8_lossy(&buf[consumed..consumed + nl]);
            consumed += nl + 1;
            let reply = parse_reply(&line, keep_payload)
                .ok_or_else(|| format!("unreadable reply {line:.120}"))?;
            let slot = reply
                .id
                .checked_sub(first_id)
                .and_then(|i| sent.get_mut(i))
                .ok_or_else(|| format!("reply for unknown id {}", reply.id))?;
            if slot.sent && slot.reply.is_none() {
                outstanding -= 1;
                slot.recv_ns = Some(arrived);
                slot.reply = Some(reply);
            }
        }
        buf.drain(..consumed);
    }
    Ok(sent)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_split_into_their_checked_parts() {
        let line = "{\"id\":\"42\",\"status\":\"ok\",\"cached\":true,\"schedule\":{\"x\":1},\"eval\":{},\"service_us\":17}";
        let r = parse_reply(line, |_| true).unwrap();
        assert_eq!((r.id, r.ok, r.cached, r.service_us), (42, true, true, 17));
        assert_eq!(
            r.payload.as_deref(),
            Some("\"schedule\":{\"x\":1},\"eval\":{}")
        );
        let miss = line
            .replace("\"cached\":true", "\"cached\":false")
            .replace("17}", "900}");
        let m = parse_reply(&miss, |_| false).unwrap();
        assert_eq!(
            m.payload_hash, r.payload_hash,
            "the payload hash ignores cached and service_us"
        );
        assert!(m.payload.is_none());
        let refused = parse_reply(
            "{\"id\":\"3\",\"status\":\"overloaded\",\"queue_depth\":64,\"queue_capacity\":64,\"retry\":true}",
            |_| false,
        )
        .unwrap();
        assert!(!refused.ok && refused.refused);
        assert!(!r.refused);
        assert!(parse_reply("{\"status\":\"ok\"}", |_| false).is_none());
    }
}
