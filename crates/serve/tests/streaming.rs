//! Streaming end-to-end tests: chunked responses over real sockets,
//! byte-exact reassembly against the plain path, inbound/outbound
//! buffering caps, and mid-stream failure through the router. Every
//! server binds `127.0.0.1:0` so tests run in parallel without port
//! collisions.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use bsched_analyze::json::{self, Json};
use bsched_serve::{
    blank_service_us, is_chunk_line, is_stream_end, parse_request, prepare_request,
    reassemble_stream, router::rendezvous_rank, split_stream, Client, Request, Router,
    RouterConfig, Server, ServerConfig,
};

fn small_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("start server")
}

const PLAIN: &str = r#"{"op":"schedule","id":"s1","benchmark":"mdg","system":"L80(2,5)","runs":2}"#;
const STREAMED: &str =
    r#"{"op":"schedule","id":"s1","benchmark":"mdg","system":"L80(2,5)","runs":2,"stream":true}"#;

#[test]
fn streamed_response_reassembles_bit_identical_to_the_plain_one() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // First request computes and fills the cache; the second (plain)
    // is the cache-hit reference the streamed replay must match.
    client.round_trip(PLAIN).expect("round trip");
    client.send(PLAIN).expect("send");
    let plain = client.recv_line().expect("read").expect("response line");
    client.send(STREAMED).expect("send");
    let (chunks, terminal) = client.recv_stream().expect("stream");
    assert!(!chunks.is_empty(), "a multi-block response must chunk");
    for (i, chunk) in chunks.iter().enumerate() {
        assert!(chunk.contains(&format!("\"seq\":{i}")), "bad seq: {chunk}");
    }
    let reassembled = reassemble_stream(&chunks, &terminal).expect("reassemble");
    assert_eq!(
        blank_service_us(&reassembled),
        blank_service_us(&plain),
        "streamed bytes differ from the plain response"
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn stream_and_plain_interleave_on_one_pipelined_connection() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.send(STREAMED).expect("send");
    client
        .send(
            &PLAIN
                .replace("\"id\":\"s1\"", "\"id\":\"pb\"")
                .replace("mdg", "adm"),
        )
        .expect("send");
    let mut chunks = Vec::new();
    let mut terminal = None;
    let mut plain = None;
    // Two workers may finish in either order; frame by line type. A
    // whole stream is written as one blob, so its lines never split
    // around the plain response.
    while terminal.is_none() || plain.is_none() {
        let line = client.recv_line().expect("read").expect("response line");
        if is_chunk_line(&line) {
            chunks.push(line);
        } else if is_stream_end(&line) {
            terminal = Some(line);
        } else {
            plain = Some(line);
        }
    }
    let reassembled = reassemble_stream(&chunks, &terminal.expect("terminal")).expect("reassemble");
    let v = json::parse(&reassembled).expect("reassembled parses");
    assert_eq!(v.get("id").and_then(Json::as_str), Some("s1"));
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    let p = json::parse(&plain.expect("plain response")).expect("plain parses");
    assert_eq!(p.get("id").and_then(Json::as_str), Some("pb"));
    assert_eq!(p.get("status").and_then(Json::as_str), Some("ok"));
    server.begin_shutdown();
    server.join();
}

#[test]
fn client_disconnect_mid_stream_leaves_the_server_healthy() {
    let server = small_server();
    {
        let mut doomed = Client::connect(server.local_addr()).expect("connect");
        doomed.send(STREAMED).expect("send");
        // Vanish without reading a byte of the stream.
    }
    std::thread::sleep(Duration::from_millis(150));
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.send(PLAIN).expect("send");
    let v = client.recv().expect("response");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
    server.begin_shutdown();
    server.join();
}

#[test]
fn oversized_request_line_gets_a_typed_too_large_error_then_close() {
    let server = Server::start(ServerConfig {
        max_line_bytes: 1024,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.send(&"x".repeat(4096)).expect("send");
    let v = client.recv().expect("response");
    assert_eq!(
        v.get("status").and_then(Json::as_str),
        Some("error"),
        "{v:?}"
    );
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("too_large"));
    assert_eq!(v.get("limit_bytes").and_then(Json::as_u64), Some(1024));
    let line = client.recv_line().expect("read eof");
    assert_eq!(line, None, "expected EOF after too_large");
    let mut probe = Client::connect(server.local_addr()).expect("connect");
    probe.send(r#"{"op":"stats"}"#).expect("send");
    let stats = probe.recv().expect("stats");
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("too_large"))
            .and_then(Json::as_u64),
        Some(1)
    );
    server.begin_shutdown();
    server.join();
}

/// Shrinks a socket's kernel receive buffer so the peer's writes hit
/// backpressure after a few KB instead of the autotuned megabytes.
fn shrink_rcvbuf(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(
            fd: i32,
            level: i32,
            name: i32,
            value: *const std::ffi::c_void,
            len: u32,
        ) -> i32;
    }
    let val: i32 = 4096;
    // SAFETY: the fd is a live socket owned by `stream`, and
    // SOL_SOCKET(1)/SO_RCVBUF(8) with a 4-byte int is the documented
    // calling convention on Linux.
    let rc = unsafe { setsockopt(stream.as_raw_fd(), 1, 8, std::ptr::addr_of!(val).cast(), 4) };
    assert_eq!(rc, 0, "setsockopt(SO_RCVBUF) failed");
}

/// A consumer that stops reading while pipelining requests must be
/// disconnected once its outbound backlog exceeds the configured cap —
/// the connection dies, the server's memory stays bounded.
#[test]
fn slow_consumer_is_disconnected_once_its_backlog_exceeds_the_cap() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 16384,
        cache_capacity: 32,
        write_cap_bytes: 32 * 1024,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    shrink_rcvbuf(client.stream());
    client.send(PLAIN).expect("send");
    let warm = client.recv_line().expect("read").expect("response line");

    // Enough cached responses to overwhelm the cap and every kernel
    // buffer in between (tcp_wmem caps the server side at ~4 MiB).
    let n = 12 * 1024 * 1024 / warm.len() + 64;
    let mut frame = Vec::new();
    for i in 0..n {
        frame.extend_from_slice(
            PLAIN
                .replace("\"id\":\"s1\"", &format!("\"id\":\"q{i}\""))
                .as_bytes(),
        );
        frame.push(b'\n');
    }
    // The server may cut the connection while the burst is still being
    // written; that is the expected outcome, not a test failure.
    let _ = client.stream().write_all(&frame);
    let _ = client.stream().flush();

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let mut probe = Client::connect(server.local_addr()).expect("connect");
        probe.send(r#"{"op":"stats"}"#).expect("send");
        let stats = probe.recv().expect("stats");
        let dropped = stats
            .get("stats")
            .and_then(|s| s.get("slow_consumers"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if dropped >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "server never disconnected the slow consumer: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.begin_shutdown();
    server.join();
}

/// A fake shard that answers health pings but, for any schedule
/// request, emits exactly one stream chunk and then drops the
/// connection — a shard dying mid-stream.
fn fake_dying_shard() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { break };
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut line = String::new();
            if reader.read_line(&mut line).is_err() || line.is_empty() {
                continue;
            }
            if line.contains("\"op\":\"ping\"") {
                let _ = stream.write_all(b"{\"status\":\"ok\",\"pong\":true}\n");
                continue;
            }
            let _ = stream.write_all(
                b"{\"id\":\"za\",\"status\":\"chunk\",\"seq\":0,\"block\":{\"name\":\"b0\"}}\n",
            );
            let _ = stream.flush();
            // Drop: the router sees EOF with no terminal line.
        }
    });
    addr
}

#[test]
fn shard_death_mid_stream_becomes_a_typed_stream_aborted_terminator() {
    let router = Router::start(RouterConfig {
        shards: vec![fake_dying_shard()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    client.send(
        r#"{"op":"schedule","id":"za","benchmark":"mdg","system":"L80(2,5)","runs":2,"stream":true}"#,
    ).expect("send");
    let first = client.recv_line().expect("read").expect("response line");
    assert!(is_chunk_line(&first), "expected the relayed chunk: {first}");
    let second = client.recv_line().expect("read").expect("response line");
    assert!(
        is_stream_end(&second),
        "mid-stream death must still terminate the stream: {second}"
    );
    let v = json::parse(&second).expect("terminator parses");
    assert_eq!(v.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("stream_aborted"),
        "{v:?}"
    );
    assert_eq!(v.get("id").and_then(Json::as_str), Some("za"));
    router.begin_shutdown();
    router.join();
}

#[test]
fn router_relays_streams_bit_identical_to_the_direct_path() {
    let a = small_server();
    let b = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    client.round_trip(PLAIN).expect("round trip");
    client.send(PLAIN).expect("send");
    let plain = client.recv_line().expect("read").expect("response line");
    client.send(STREAMED).expect("send");
    let (chunks, terminal) = client.recv_stream().expect("stream");
    assert!(!chunks.is_empty());
    let reassembled = reassemble_stream(&chunks, &terminal).expect("reassemble");
    assert_eq!(blank_service_us(&reassembled), blank_service_us(&plain));
    router.begin_shutdown();
    router.join();
    for s in [a, b] {
        s.begin_shutdown();
        s.join();
    }
}

#[test]
fn streams_fail_over_before_the_first_chunk_with_a_degraded_terminal() {
    let a = small_server();
    let b = small_server();
    let shards = vec![a.local_addr().to_string(), b.local_addr().to_string()];
    // Kill exactly the shard that owns the request's key, so the stream
    // must fail over before any chunk is relayed.
    let key = match parse_request(STREAMED) {
        Ok(Request::Schedule(req)) => prepare_request(&req).expect("prepare").key(),
        other => panic!("unexpected parse: {other:?}"),
    };
    let (victim, survivor) = if rendezvous_rank(key, &shards)[0] == 0 {
        (a, b)
    } else {
        (b, a)
    };
    victim.begin_shutdown();
    victim.join();
    let router = Router::start(RouterConfig {
        shards,
        ..RouterConfig::default()
    })
    .expect("start router");

    // The direct reference: a cache hit on the survivor.
    let mut direct = Client::connect(survivor.local_addr()).expect("connect");
    direct.round_trip(PLAIN).expect("round trip");
    direct.send(PLAIN).expect("send");
    let plain = direct.recv_line().expect("read").expect("response line");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    client.send(STREAMED).expect("send");
    let (chunks, terminal) = client.recv_stream().expect("stream");
    assert!(!chunks.is_empty(), "a multi-block response must chunk");
    let v = json::parse(&terminal).expect("terminal parses");
    assert_eq!(
        v.get("degraded").and_then(Json::as_bool),
        Some(true),
        "failover stream not marked degraded: {terminal}"
    );
    let reassembled = reassemble_stream(&chunks, &terminal).expect("reassemble");
    let undegraded = reassembled
        .strip_suffix(",\"degraded\":true}")
        .map(|body| format!("{body}}}"))
        .expect("degraded is spliced last");
    assert_eq!(blank_service_us(&undegraded), blank_service_us(&plain));

    router.begin_shutdown();
    router.join();
    survivor.begin_shutdown();
    survivor.join();
}

mod roundtrip_props {
    use super::*;
    use bsched_stats::Pcg32;
    use proptest::prelude::*;

    /// Random string over an adversarial alphabet: quotes, braces,
    /// backslashes, and whole framing markers — the bytes most likely
    /// to confuse a byte-oriented splitter.
    fn nasty_string(rng: &mut Pcg32, max_len: usize) -> String {
        const PIECES: [&str; 12] = [
            "a",
            "Z",
            " ",
            "\\",
            "\"",
            "{",
            "}",
            "[",
            "]",
            "\"status\":\"chunk\"",
            "\"stream_end\":true",
            "\"blocks\":[",
        ];
        let len = rng.next_index(max_len + 1);
        (0..len)
            .map(|_| PIECES[rng.next_index(PIECES.len())])
            .collect()
    }

    /// A structurally-faithful ok response: id envelope, blocks array,
    /// trailing metadata — the shape `split_stream` dissects.
    fn response_line(id: &str, blocks: &[(String, String)], cached: bool) -> String {
        let elems: Vec<String> = blocks
            .iter()
            .map(|(name, text)| {
                format!(
                    "{{\"name\":{},\"schedule\":{}}}",
                    json::string(name),
                    json::string(text)
                )
            })
            .collect();
        format!(
            "{{\"id\":{},\"status\":\"ok\",\"cached\":{cached},\
             \"schedule\":{{\"blocks\":[{}],\"spills\":0}},\"service_us\":7}}",
            json::string(id),
            elems.join(",")
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Splitting any well-formed response into chunks and
        /// reassembling them is the identity, no matter what bytes the
        /// block names and schedule texts contain — including quotes,
        /// braces, and strings that imitate the framing markers.
        #[test]
        fn split_then_reassemble_is_identity(
            seed in 0u64..1_000_000u64,
            block_count in 0usize..6usize,
        ) {
            let mut rng = Pcg32::seed_from_u64(seed);
            let id = nasty_string(&mut rng, 8);
            let cached = seed % 2 == 0;
            let blocks: Vec<(String, String)> = (0..block_count)
                .map(|_| (nasty_string(&mut rng, 6), nasty_string(&mut rng, 40)))
                .collect();
            let line = response_line(&id, &blocks, cached);
            let (chunks, terminal) =
                split_stream(Some(&id), &line).expect("responses with a blocks array split");
            prop_assert_eq!(chunks.len(), blocks.len());
            for chunk in &chunks {
                prop_assert!(is_chunk_line(chunk));
                prop_assert!(!is_stream_end(chunk));
            }
            prop_assert!(is_stream_end(&terminal));
            prop_assert_eq!(reassemble_stream(&chunks, &terminal), Some(line));
        }
    }
}
