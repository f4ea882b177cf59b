//! End-to-end tests against a real listening daemon: one process, real
//! sockets, real worker pool. Every server binds `127.0.0.1:0` so tests
//! run in parallel without port collisions.

use std::io::Write;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use bsched_analyze::json::Json;
use bsched_serve::{Client, Server, ServerConfig};

/// Fault plans are process-global; tests that install one serialize.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn status(v: &Json) -> &str {
    v.get("status").and_then(Json::as_str).unwrap_or("missing")
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

const DAXPY: &str = r#"{"op":"schedule","id":"rt1","kernel":"kernel daxpy { arrays x, y; y[0] = 3.0 * x[0] + y[0]; }","system":"L80(2,5)","runs":3}"#;

#[test]
fn schedule_round_trip_carries_schedule_eval_and_diagnostics() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&v), "ok", "{v:?}");
    assert_eq!(v.get("id").and_then(Json::as_str), Some("rt1"));
    assert_eq!(v.get("cached").and_then(Json::as_bool), Some(false));
    let runtime = v
        .get("eval")
        .and_then(|e| e.get("mean_runtime"))
        .and_then(Json::as_f64)
        .expect("eval.mean_runtime");
    assert!(runtime > 0.0);
    let blocks = v
        .get("schedule")
        .and_then(|s| s.get("blocks"))
        .and_then(Json::as_array)
        .expect("schedule.blocks");
    assert_eq!(blocks.len(), 1);
    assert!(v.get("diagnostics").and_then(Json::as_array).is_some());
    assert!(v.get("service_us").and_then(Json::as_u64).is_some());
    server.begin_shutdown();
    server.join();
}

#[test]
fn identical_request_is_served_from_cache() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let first = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&first), "ok");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let second = client.round_trip(DAXPY).expect("round trip");
    assert_eq!(status(&second), "ok");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    // The payload is byte-identical modulo envelope metadata.
    assert_eq!(
        format!("{:?}", first.get("eval")),
        format!("{:?}", second.get("eval"))
    );
    let stats = client.round_trip("/stats").expect("round trip");
    let hits = stats
        .get("stats")
        .and_then(|s| s.get("cache_hits"))
        .and_then(Json::as_u64)
        .expect("cache_hits");
    assert_eq!(hits, 1);
    server.begin_shutdown();
    server.join();
}

#[test]
fn tune_flag_installs_a_background_tuned_schedule() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // High-variance system on a small kernel: the policy search is fast
    // and reliably finds a non-default winner.
    let req = r#"{"op":"schedule","id":"t1","kernel":"kernel daxpy { arrays x, y; y[0] = 3.0 * x[0] + y[0]; }","system":"N(3,2)","runs":3,"analyze":false,"tune":true}"#;
    let first = client.round_trip(req).expect("round trip");
    assert_eq!(status(&first), "ok", "{first:?}");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    let first_sched = first
        .get("schedule")
        .and_then(|s| s.get("scheduler"))
        .and_then(Json::as_str)
        .expect("scheduler name")
        .to_owned();

    // The search runs behind live requests; poll /stats until the
    // winner lands in the cache.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = client.round_trip("/stats").expect("round trip");
        let installs = stats
            .get("stats")
            .and_then(|s| s.get("tuned_installs"))
            .and_then(Json::as_u64)
            .expect("tuned_installs counter");
        if installs >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background tune never installed: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The identical request now hits the cache — and the payload it gets
    // is the *tuned* schedule installed under the original key.
    let second = client.round_trip(req).expect("round trip");
    assert_eq!(status(&second), "ok", "{second:?}");
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    let second_sched = second
        .get("schedule")
        .and_then(|s| s.get("scheduler"))
        .and_then(Json::as_str)
        .expect("scheduler name");
    assert_ne!(
        second_sched, first_sched,
        "cached payload should carry the tuned policy, not the original scheduler"
    );
    assert!(
        second_sched.contains("family="),
        "tuned scheduler name carries the policy: {second_sched}"
    );

    // A request *without* the tune flag keeps its own key and is still
    // served the untuned schedule — the entries never mix.
    let plain = r#"{"op":"schedule","id":"t2","kernel":"kernel daxpy { arrays x, y; y[0] = 3.0 * x[0] + y[0]; }","system":"N(3,2)","runs":3,"analyze":false}"#;
    let v = client.round_trip(plain).expect("round trip");
    assert_eq!(status(&v), "ok");
    assert_eq!(
        v.get("schedule")
            .and_then(|s| s.get("scheduler"))
            .and_then(Json::as_str),
        Some(first_sched.as_str())
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn over_capacity_burst_gets_typed_overloaded_responses() {
    let _guard = fault_lock();
    // One worker, one slot, and every evaluation sleeping 200ms: a
    // pipelined burst must overflow admission.
    bsched_faults::install("slow-worker:arg=200".parse().expect("plan"));
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    const BURST: usize = 6;
    for i in 0..BURST {
        client
            .send(&DAXPY.replace("rt1", &format!("b{i}")))
            .expect("send");
    }
    let mut ok = 0;
    let mut overloaded = 0;
    for _ in 0..BURST {
        let v = client.recv().expect("response");
        match status(&v) {
            "ok" => ok += 1,
            "overloaded" => {
                assert_eq!(v.get("retry").and_then(Json::as_bool), Some(true));
                assert!(v.get("queue_capacity").and_then(Json::as_u64).is_some());
                overloaded += 1;
            }
            other => panic!("unexpected status {other}: {v:?}"),
        }
    }
    bsched_faults::clear();
    assert!(ok >= 1, "at least one admitted request must finish");
    assert!(
        overloaded >= 1,
        "a {BURST}-deep burst against capacity 1 must shed load"
    );
    let stats = client.round_trip("/stats").expect("round trip");
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("overloaded"))
            .and_then(Json::as_u64),
        Some(overloaded)
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn injected_serve_reject_sheds_load_without_a_full_queue() {
    let _guard = fault_lock();
    bsched_faults::install("serve-reject".parse().expect("plan"));
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let v = client.round_trip(DAXPY).expect("round trip");
    bsched_faults::clear();
    assert_eq!(status(&v), "overloaded", "{v:?}");
    server.begin_shutdown();
    server.join();
}

#[test]
fn expired_deadline_yields_a_typed_timeout() {
    let server = Server::start(ServerConfig {
        workers: 1,
        default_deadline_ms: Some(1),
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // A heavyweight stand-in at maximum runs cannot finish in 1ms.
    let v = client
        .round_trip(
            r#"{"op":"schedule","id":"t","benchmark":"mdg","system":"L80(2,5)","runs":10000}"#,
        )
        .expect("round trip");
    assert_eq!(status(&v), "timeout", "{v:?}");
    assert_eq!(v.get("deadline_ms").and_then(Json::as_u64), Some(1));
    let stats = client.round_trip("/stats").expect("round trip");
    assert_eq!(
        stats
            .get("stats")
            .and_then(|s| s.get("timeouts"))
            .and_then(Json::as_u64),
        Some(1)
    );
    server.begin_shutdown();
    server.join();
}

#[test]
fn malformed_and_failing_requests_get_typed_errors() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let v = client.round_trip("this is not json").expect("round trip");
    assert_eq!(status(&v), "error");
    assert_eq!(v.get("kind").and_then(Json::as_str), Some("parse"));
    let v = client.round_trip(
        r#"{"op":"schedule","id":"bad","kernel":"kernel k { arrays a; b[0] = 1; }","system":"fixed(2)"}"#,
    ).expect("round trip");
    assert_eq!(status(&v), "error", "{v:?}");
    assert_eq!(v.get("id").and_then(Json::as_str), Some("bad"));
    assert!(v.get("kind").and_then(Json::as_str).is_some());
    assert!(v.get("reason").and_then(Json::as_str).is_some());
    server.begin_shutdown();
    server.join();
}

#[test]
fn stats_and_ping_answer_inline() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let pong = client
        .round_trip(r#"{"op":"ping","id":"p"}"#)
        .expect("round trip");
    assert_eq!(status(&pong), "ok");
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    let stats = client.round_trip(r#"{"op":"stats"}"#).expect("round trip");
    let obj = stats.get("stats").expect("stats object");
    for key in [
        "requests",
        "ok",
        "errors",
        "overloaded",
        "timeouts",
        "queue_depth",
        "p50_us",
        "p95_us",
        "p99_us",
        "cache_hits",
        "cache_misses",
        "cache_entries",
        "workers",
        "queue_capacity",
        "steals",
        "parks",
        "pool_queued",
        "io_threads",
        "open_connections",
        "too_large",
        "slow_consumers",
        "streams",
        "max_line_bytes",
        "write_cap_bytes",
        "draining",
    ] {
        assert!(obj.get(key).is_some(), "/stats missing {key}");
    }
    server.begin_shutdown();
    server.join();
}

#[test]
fn shutdown_op_drains_in_flight_work_before_join_returns() {
    let _guard = fault_lock();
    bsched_faults::install("slow-worker:arg=150".parse().expect("plan"));
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Three slow requests in flight, then shutdown.
    for i in 0..3 {
        client
            .send(&DAXPY.replace("rt1", &format!("d{i}")))
            .expect("send");
    }
    let draining = client
        .round_trip(r#"{"op":"shutdown","id":"s"}"#)
        .expect("round trip");
    bsched_faults::clear();
    assert_eq!(draining.get("draining").and_then(Json::as_bool), Some(true));
    let started = Instant::now();
    // Every in-flight response still arrives, then the server exits.
    let mut seen = Vec::new();
    for _ in 0..3 {
        let v = client.recv().expect("response");
        assert_eq!(status(&v), "ok", "{v:?}");
        seen.push(v.get("id").and_then(Json::as_str).unwrap_or("").to_owned());
    }
    seen.sort();
    assert_eq!(seen, ["d0", "d1", "d2"]);
    server.join();
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drain must not hang"
    );
}

/// A connection that has sent half a request line when the drain begins
/// must get a typed `overloaded` response before the socket closes —
/// never a silent hangup.
#[test]
fn connection_caught_mid_line_at_drain_gets_a_typed_overloaded() {
    let server = small_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Half a schedule request: bytes on the wire, no terminating newline.
    client
        .stream()
        .write_all(br#"{"op":"schedule","id":"half"#)
        .expect("send partial");
    client.stream().flush().expect("flush partial");
    // Let the IO thread read the fragment into the connection buffer.
    std::thread::sleep(Duration::from_millis(100));
    server.begin_shutdown();
    let v = client.recv().expect("response");
    assert_eq!(status(&v), "overloaded", "{v:?}");
    assert_eq!(v.get("retry").and_then(Json::as_bool), Some(true));
    // After the notice the server closes the connection cleanly.
    let line = client.recv_line().expect("read eof");
    assert_eq!(line, None, "expected EOF after the drain notice");
    server.join();
}

#[test]
fn responses_can_arrive_out_of_order_and_ids_disambiguate() {
    let _guard = fault_lock();
    // First request stalls 300ms; second is a cache-miss but fast. With
    // two workers the fast one overtakes the slow one. The plan is keyed
    // by request id, so only the request with id "slow" can fire it.
    bsched_faults::install(
        "slow-worker:key=slow,limit=1,arg=300"
            .parse()
            .expect("plan"),
    );
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.send(&DAXPY.replace("rt1", "slow")).expect("send");
    // Let the slow request reach its worker before the fast one is sent.
    std::thread::sleep(Duration::from_millis(50));
    client
        .send(
            &DAXPY
                .replace("rt1", "fast")
                .replace("\"runs\":3", "\"runs\":4"),
        )
        .expect("send");
    let first = client.recv().expect("response");
    let second = client.recv().expect("response");
    bsched_faults::clear();
    assert_eq!(first.get("id").and_then(Json::as_str), Some("fast"));
    assert_eq!(second.get("id").and_then(Json::as_str), Some("slow"));
    server.begin_shutdown();
    server.join();
}

#[test]
fn sixteen_concurrent_connections_are_all_answered() {
    // Holds the fault lock so no other test's plan can shed or stall
    // these requests.
    let _guard = fault_lock();
    const CLIENTS: usize = 16;
    let server = Server::start(ServerConfig::default()).expect("start server");
    let addr = server.local_addr();
    let stand_ins = bsched_workload::perfect_club();
    // Every client sends the whole stand-in mix, one request at a time,
    // so all 16 connections have a request in flight together.
    let answers: Vec<Vec<(String, Json)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let stand_ins = &stand_ins;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    stand_ins
                        .iter()
                        .map(|bench| {
                            let id = format!("c{c}-{}", bench.name());
                            let line = format!(
                                "{{\"op\":\"schedule\",\"id\":\"{id}\",\"benchmark\":\"{}\",\
                                 \"system\":\"L80(2,5)\",\"scheduler\":\"balanced\",\"runs\":2,\
                                 \"analyze\":false}}",
                                bench.name()
                            );
                            let response = client.round_trip(&line).expect("answered");
                            (id, response)
                        })
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let answered: usize = answers.iter().map(Vec::len).sum();
    assert_eq!(answered, CLIENTS * stand_ins.len(), "dropped responses");
    assert_eq!(answered, 128);
    for (id, response) in answers.iter().flatten() {
        assert_eq!(status(response), "ok", "{id}: {response:?}");
        assert_eq!(
            response.get("id").and_then(Json::as_str),
            Some(id.as_str()),
            "response answered the wrong request"
        );
    }
    server.begin_shutdown();
    server.join();
}
