//! Model-checked interleavings for the serving layer's shared state:
//! the stats recorder, the LRU cache behind its mutex, and the
//! router's prober shutdown handshake.
//!
//! Build with `RUSTFLAGS="--cfg bsched_model"` (the CI `model` job);
//! without the cfg this file is empty.
#![cfg(bsched_model)]

use std::sync::Arc;
use std::time::Duration;

use bsched_model::{explore, explore_pct, Config};
use bsched_par::sync::{thread, AtomicBool, Mutex, Ordering};
use bsched_serve::health::{prober_loop, HealthConfig};
use bsched_serve::{stable_key, LruCache, ServerStats};

/// Two request threads racing on the stats path — counters plus the
/// mutex-guarded service-time ring — never lose an update under any
/// interleaving.
#[test]
fn concurrent_stat_recording_loses_nothing() {
    let report = explore(&Config::default(), || {
        let stats = Arc::new(ServerStats::default());
        let worker = {
            let stats = Arc::clone(&stats);
            thread::spawn(move || {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                stats.record_service(10);
                stats.ok.fetch_add(1, Ordering::Relaxed);
            })
        };
        stats.requests.fetch_add(1, Ordering::Relaxed);
        stats.record_service(30);
        stats.ok.fetch_add(1, Ordering::Relaxed);
        worker.join().unwrap();
        assert_eq!(stats.requests.load(Ordering::Relaxed), 2);
        assert_eq!(stats.ok.load(Ordering::Relaxed), 2);
        let (p50, _, p99) = stats.percentiles();
        assert_eq!((p50, p99), (10, 30), "both samples landed in the ring");
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
    assert!(report.complete, "stats path must be explored exhaustively");
}

/// The server's cache discipline: `LruCache` is plain data behind a
/// shim `Mutex` (exactly how `server::Inner` holds it). A hit/miss race
/// between two request threads must keep the hit+miss counters equal to
/// the number of lookups and never corrupt LRU bookkeeping.
#[test]
fn lru_counters_stay_consistent_across_racing_lookups() {
    let report = explore(&Config::default(), || {
        let cache = Arc::new(Mutex::new(LruCache::new(4)));
        let key_a = stable_key(&[("kernel", "a")]);
        let key_b = stable_key(&[("kernel", "b")]);
        let other = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                let mut c = cache.lock().unwrap();
                if c.get(key_b).is_none() {
                    c.put(key_b, "resp-b".into());
                }
            })
        };
        {
            let mut c = cache.lock().unwrap();
            if c.get(key_a).is_none() {
                c.put(key_a, "resp-a".into());
            }
        }
        other.join().unwrap();
        let mut c = cache.lock().unwrap();
        assert_eq!(c.get(key_a).as_deref(), Some("resp-a"));
        assert_eq!(c.get(key_b).as_deref(), Some("resp-b"));
        assert_eq!(c.len(), 2);
        // 2 misses from the inserting threads + 2 hits just above.
        assert_eq!(c.counters(), (2, 2), "hit/miss counters lost an update");
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
    assert!(report.complete);
}

/// The router's prober shutdown handshake: the prober polls a stop
/// flag; `Router::drop`/`begin_shutdown` sets it and joins. Modelled
/// with an empty shard list (no sockets), the handshake must never
/// deadlock, under PCT priorities that can starve either side.
/// Schedules where the prober spins past the step budget are truncated
/// (`fail_on_step_limit: false`), not failures — the property under
/// test is "stop is eventually observed and join returns", and every
/// schedule that terminates must do so cleanly.
#[test]
fn prober_shutdown_handshake_cannot_deadlock() {
    let cfg = Config {
        max_steps: 2_000,
        fail_on_step_limit: false,
        ..Config::default()
    };
    let report = explore_pct(&cfg, 0x9026, 300, 3, || {
        let stop = Arc::new(AtomicBool::new(false));
        let prober = {
            let stop = Arc::clone(&stop);
            let health = HealthConfig {
                interval: Duration::from_millis(1),
                ..HealthConfig::default()
            };
            thread::Builder::new()
                .name("bsched-route-health".to_owned())
                .spawn(move || prober_loop(&Mutex::new(Vec::new()), &health, &stop))
                .unwrap()
        };
        stop.store(true, Ordering::Relaxed);
        prober.join().unwrap();
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
}
