//! Fleet-level end-to-end tests: cache persistence across daemon
//! restarts, router forwarding and failover, and fault-injected log
//! corruption. Every daemon and router binds `127.0.0.1:0` so tests
//! run in parallel without port collisions.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use bsched_analyze::json::Json;
use bsched_serve::{
    parse_request, prepare_request, router::rendezvous_rank, Client, HealthConfig, Request, Router,
    RouterConfig, Server, ServerConfig,
};

/// Fault plans are process-global; tests that install one serialize.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A fresh log path in a per-test temp directory (no tempdir crate:
/// pid + counter keeps parallel test binaries apart).
fn temp_log(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bsched-fleet-tests-{}-{tag}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir.join("cache.log")
}

fn status(v: &Json) -> &str {
    v.get("status").and_then(Json::as_str).unwrap_or("missing")
}

fn cached(v: &Json) -> Option<bool> {
    v.get("cached").and_then(Json::as_bool)
}

fn stat(v: &Json, field: &str) -> u64 {
    v.get("stats")
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats.{field} missing in {v:?}"))
}

fn server_with_log(log: &std::path::Path) -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        cache_log: Some(log.display().to_string()),
        ..ServerConfig::default()
    })
    .expect("start server")
}

fn small_server() -> Server {
    Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        cache_capacity: 32,
        ..ServerConfig::default()
    })
    .expect("start server")
}

const DAXPY: &str = r#"{"op":"schedule","id":"f1","kernel":"kernel daxpy { arrays x, y; y[0] = 3.0 * x[0] + y[0]; }","system":"L80(2,5)","runs":3}"#;
const DOT: &str = r#"{"op":"schedule","id":"f2","kernel":"kernel saxpy { arrays u, v; v[1] = 2.0 * u[1] + v[1]; }","system":"L80(2,5)","runs":3}"#;

#[test]
fn cache_log_warm_starts_a_restarted_server() {
    let log = temp_log("warm");

    let first = server_with_log(&log);
    let mut client = Client::connect(first.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(cached(&v), Some(false));
    let stats = client.round_trip("/stats").expect("round trip");
    assert!(stat(&stats, "persist_appends") >= 1, "{stats:?}");
    assert_eq!(stat(&stats, "persist_errors"), 0);
    first.begin_shutdown();
    first.join();

    // A brand-new process image would see exactly this: same log path,
    // empty in-memory cache. The first request must already be a hit.
    let second = server_with_log(&log);
    let mut client = Client::connect(second.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(cached(&v), Some(true), "warm start missed the log: {v:?}");
    let stats = client.round_trip("/stats").expect("round trip");
    assert!(stat(&stats, "cache_entries") >= 1);
    assert_eq!(stat(&stats, "cache_hits"), 1);
    second.begin_shutdown();
    second.join();
}

#[test]
fn corrupted_log_tail_is_dropped_not_resurrected() {
    let _guard = fault_lock();

    let log = temp_log("corrupt");
    let server = server_with_log(&log);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // First append is clean, second is written with a poisoned CRC.
    assert_eq!(status(&client.round_trip(DAXPY).expect("round trip")), "ok");
    bsched_faults::install("persist-corrupt".parse().expect("plan"));
    assert_eq!(status(&client.round_trip(DOT).expect("round trip")), "ok");
    bsched_faults::clear();
    server.begin_shutdown();
    server.join();

    // Recovery must keep the clean prefix, truncate the poisoned tail,
    // and above all not panic.
    let server = server_with_log(&log);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(cached(&v), Some(true), "clean prefix lost: {v:?}");
    let v = client.round_trip(DOT).expect("round trip");
    assert_eq!(cached(&v), Some(false), "corrupt record resurrected: {v:?}");
    server.begin_shutdown();
    server.join();
}

#[test]
fn router_forwards_to_shards_and_merges_stats() {
    let a = small_server();
    let b = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let pong = client.round_trip(r#"{"op":"ping"}"#).expect("round trip");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    assert_eq!(pong.get("router").and_then(Json::as_bool), Some(true));

    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(cached(&v), Some(false));
    assert!(v.get("degraded").is_none(), "healthy fleet degraded: {v:?}");
    // Rendezvous hashing is deterministic, so the repeat lands on the
    // same shard and hits its cache.
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(cached(&v), Some(true), "{v:?}");

    let stats = client.round_trip("/stats").expect("round trip");
    assert_eq!(stat(&stats, "shards_up"), 2);
    assert_eq!(stat(&stats, "shards_down"), 0);
    assert_eq!(stat(&stats, "cache_hits"), 1);
    assert!(stat(&stats, "routed") >= 2);
    let shards = stats
        .get("shards")
        .and_then(Json::as_array)
        .expect("per-shard array");
    assert_eq!(shards.len(), 2);

    router.begin_shutdown();
    router.join();
    for s in [a, b] {
        s.begin_shutdown();
        s.join();
    }
}

#[test]
fn pings_through_a_router_do_not_stall_per_line() {
    let shard = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![shard.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");
    // A line written as text, then newline, in two writes waits ~40 ms
    // for the client's delayed ACK (Nagle): 50 pings would take ~2 s.
    let started = Instant::now();
    for _ in 0..50 {
        let pong = client.round_trip(r#"{"op":"ping"}"#).expect("round trip");
        assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(500),
        "50 pings through the router took {elapsed:?}"
    );
    router.begin_shutdown();
    router.join();
    shard.begin_shutdown();
    shard.join();
}

#[test]
fn router_fails_over_from_a_dead_shard_with_a_degraded_response() {
    let a = small_server();
    let b = small_server();
    let shards = vec![a.local_addr().to_string(), b.local_addr().to_string()];
    let router = Router::start(RouterConfig {
        shards: shards.clone(),
        health: HealthConfig {
            interval: Duration::from_millis(50),
            ..HealthConfig::default()
        },
        ..RouterConfig::default()
    })
    .expect("start router");

    // Kill exactly the shard that owns DAXPY's key, so the first
    // attempt is guaranteed to fail and the request must fail over.
    let key = match parse_request(DAXPY) {
        Ok(Request::Schedule(req)) => prepare_request(&req).expect("prepare").key(),
        other => panic!("unexpected parse: {other:?}"),
    };
    let owner = rendezvous_rank(key, &shards)[0];
    let (victim, survivor) = if owner == 0 { (a, b) } else { (b, a) };
    victim.begin_shutdown();
    victim.join();

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "ok", "failover dropped the request: {v:?}");
    assert_eq!(
        v.get("degraded").and_then(Json::as_bool),
        Some(true),
        "failover response not marked degraded: {v:?}"
    );

    // The prober (or the forward failures) must mark the shard down.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let stats = client.round_trip("/stats").expect("round trip");
        if stat(&stats, "shards_down") == 1 {
            assert_eq!(stat(&stats, "shards_up"), 1);
            assert!(stat(&stats, "failovers") >= 1, "{stats:?}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "router never marked the dead shard down: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }

    router.begin_shutdown();
    router.join();
    survivor.begin_shutdown();
    survivor.join();
}

#[test]
fn router_with_every_shard_dead_returns_a_typed_error_not_a_drop() {
    // Bind-then-drop two ports: real addresses, nobody listening.
    let dead: Vec<String> = (0..2)
        .map(|_| {
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
        })
        .collect();
    let router = Router::start(RouterConfig {
        shards: dead,
        ..RouterConfig::default()
    })
    .expect("start router");

    let mut client = Client::connect(router.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "error", "{v:?}");
    assert_eq!(
        v.get("kind").and_then(Json::as_str),
        Some("unavailable"),
        "{v:?}"
    );
    assert_eq!(v.get("id").and_then(Json::as_str), Some("f1"));

    router.begin_shutdown();
    router.join();
}

#[test]
fn add_shard_rehomes_a_minimal_fraction_and_serves_through_it() {
    let a = small_server();
    let b = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let v = client
        .round_trip(&format!(
            r#"{{"op":"add-shard","id":"m1","addr":"{}"}}"#,
            b.local_addr()
        ))
        .expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(v.get("state").and_then(Json::as_str), Some("active"));
    assert_eq!(v.get("members").and_then(Json::as_u64), Some(2));
    let rehomed = v
        .get("rehomed_fraction")
        .and_then(Json::as_f64)
        .expect("rehomed_fraction");
    // Growing a 1-shard ring to 2 may move at most the new shard's
    // slice (~1/2 of the keys, 1.5/2 with sampling slack) — and must
    // move some, or the new shard owns nothing.
    assert!(
        rehomed > 0.0 && rehomed <= 0.75,
        "rehomed_fraction {rehomed} out of (0, 0.75]"
    );

    // Requests keep landing; the ring now spans both shards.
    assert_eq!(status(&client.round_trip(DAXPY).expect("round trip")), "ok");
    assert_eq!(status(&client.round_trip(DOT).expect("round trip")), "ok");
    let members = client
        .round_trip(r#"{"op":"members"}"#)
        .expect("round trip");
    let listed = members
        .get("members")
        .and_then(Json::as_array)
        .expect("members array");
    assert_eq!(listed.len(), 2);
    assert!(listed
        .iter()
        .all(|m| m.get("state").and_then(Json::as_str) == Some("active")));

    // A duplicate add is a typed error, not a second ring entry.
    let dup = client
        .round_trip(&format!(
            r#"{{"op":"add-shard","addr":"{}"}}"#,
            b.local_addr()
        ))
        .expect("round trip");
    assert_eq!(status(&dup), "error");
    assert_eq!(dup.get("kind").and_then(Json::as_str), Some("exists"));

    router.begin_shutdown();
    router.join();
    for s in [a, b] {
        s.begin_shutdown();
        s.join();
    }
}

#[test]
fn drain_shard_without_stop_fences_it_but_leaves_it_running() {
    let a = small_server();
    let b = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let v = client
        .round_trip(&format!(
            r#"{{"op":"drain-shard","id":"d1","addr":"{}","stop":false}}"#,
            a.local_addr()
        ))
        .expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(
        v.get("drained").and_then(Json::as_str),
        Some(a.local_addr().to_string().as_str())
    );
    assert_eq!(v.get("stopped").and_then(Json::as_bool), Some(false));
    assert_eq!(v.get("inflight_at_removal").and_then(Json::as_u64), Some(0));
    assert_eq!(v.get("members").and_then(Json::as_u64), Some(1));

    // Every request still lands (all keys now route to b).
    assert_eq!(status(&client.round_trip(DAXPY).expect("round trip")), "ok");
    assert_eq!(status(&client.round_trip(DOT).expect("round trip")), "ok");

    // The drained daemon was fenced, not stopped: it still answers
    // directly.
    let mut direct = Client::connect(a.local_addr()).expect("connect");
    let pong = direct.round_trip(r#"{"op":"ping"}"#).expect("round trip");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));

    router.begin_shutdown();
    router.join();
    for s in [a, b] {
        s.begin_shutdown();
        s.join();
    }
}

#[test]
fn drain_shard_with_stop_shuts_the_daemon_down() {
    let a = small_server();
    let b = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string(), b.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let v = client
        .round_trip(&format!(
            r#"{{"op":"drain-shard","addr":"{}"}}"#,
            a.local_addr()
        ))
        .expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(v.get("stopped").and_then(Json::as_bool), Some(true));

    // The router's shutdown op drained the daemon; join must return.
    let started = Instant::now();
    a.join();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drained daemon never exited"
    );
    // And the survivor still serves through the router.
    assert_eq!(status(&client.round_trip(DAXPY).expect("round trip")), "ok");

    router.begin_shutdown();
    router.join();
    b.begin_shutdown();
    b.join();
}

#[test]
fn draining_the_last_active_shard_is_refused() {
    let a = small_server();
    let router = Router::start(RouterConfig {
        shards: vec![a.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .expect("start router");
    let mut client = Client::connect(router.local_addr()).expect("connect");

    let v = client
        .round_trip(&format!(
            r#"{{"op":"drain-shard","addr":"{}"}}"#,
            a.local_addr()
        ))
        .expect("round trip");
    assert_eq!(status(&v), "error", "{v:?}");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("refused"));
    // The refusal left the ring intact.
    assert_eq!(status(&client.round_trip(DAXPY).expect("round trip")), "ok");
    // Draining an address that was never a member is its own error.
    let v = client
        .round_trip(r#"{"op":"drain-shard","addr":"127.0.0.1:1"}"#)
        .expect("round trip");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("unknown"));

    router.begin_shutdown();
    router.join();
    a.begin_shutdown();
    a.join();
}

#[test]
fn membership_ops_on_a_plain_daemon_get_a_typed_unsupported_error() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for op in [
        r#"{"op":"add-shard","addr":"127.0.0.1:9"}"#,
        r#"{"op":"drain-shard","addr":"127.0.0.1:9"}"#,
        r#"{"op":"members"}"#,
    ] {
        let v = client.round_trip(op).expect("round trip");
        assert_eq!(status(&v), "error", "{v:?}");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("unsupported"));
    }
    server.begin_shutdown();
    server.join();
}

#[test]
fn dropping_a_router_joins_its_threads_instead_of_leaking_them() {
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let router = Router::start(RouterConfig {
        shards: vec![dead],
        health: HealthConfig {
            interval: Duration::from_millis(10),
            connect_timeout: Duration::from_millis(50),
            ..HealthConfig::default()
        },
        ..RouterConfig::default()
    })
    .expect("start router");
    let addr = router.local_addr();

    // No begin_shutdown(), no join(): Drop must do the full handshake
    // itself — flag the prober and accept loop, then join both.
    let started = std::time::Instant::now();
    drop(router);
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drop hung instead of draining the router threads"
    );
    // The accept thread owned the listener; it exiting closes the port.
    assert!(
        std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(250)).is_err(),
        "listener still accepting after drop — accept thread leaked"
    );
}
