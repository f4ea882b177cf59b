//! Model-checked interleaving proofs for the worker pool's parking and
//! shutdown protocols.
//!
//! Build with `RUSTFLAGS="--cfg bsched_model"` (the CI `model` job);
//! without the cfg this file is empty and tier-1 never pays for it.
//! Result accounting deliberately uses *std* atomics/mutexes — they
//! are not yield points, so the bookkeeping cannot perturb the
//! schedules being explored.
#![cfg(bsched_model)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bsched_model::{explore_pct, Config};
use bsched_par::pool::WorkerPool;

/// A scope submitted from outside a two-worker pool, with no shutdown
/// until it returns: the job must run and the scope must return under
/// 2,000 PCT schedules. Both workers race to park while the job is
/// pushed; without the queue re-check under the parking mutex, two
/// workers that found the queue empty can both sleep through the only
/// notify, and the scope latch waits forever (a detected deadlock).
#[test]
fn scope_on_two_workers_never_loses_its_wakeup() {
    let report = explore_pct(&Config::default(), 0x2B0C, 2_000, 3, || {
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
            ran.fetch_add(1, Ordering::SeqCst);
        })];
        pool.scope(jobs, || {});
        assert_eq!(ran.load(Ordering::SeqCst), 1, "scoped job must have run");
        pool.shutdown();
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
}

/// Shutdown drains: jobs spawned *before* shutdown must all have run
/// by the time `shutdown()` returns, under thousands of PCT schedules.
#[test]
fn drain_never_strands_a_job() {
    let report = explore_pct(&Config::default(), 0xD5A1, 500, 3, || {
        let pool = WorkerPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.shutdown();
        assert_eq!(
            ran.load(Ordering::SeqCst),
            2,
            "shutdown returned with a queued job unrun"
        );
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
}

/// The submit/shutdown race model: a `scope` on one thread racing
/// `shutdown()` on another. The fixed code must survive 10k PCT
/// schedules without a hang (a stranded job = the scope latch waits
/// forever = a detected deadlock, not a wedged test).
fn submit_racing_shutdown_model() {
    let pool = Arc::new(WorkerPool::new(1));
    let scoper = {
        let pool = Arc::clone(&pool);
        bsched_par::sync::thread::spawn(move || {
            let ran = AtomicUsize::new(0);
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![Box::new(|| {
                ran.fetch_add(1, Ordering::SeqCst);
            })];
            pool.scope(jobs, || {});
            assert_eq!(ran.load(Ordering::SeqCst), 1, "scoped job must have run");
        })
    };
    pool.shutdown();
    scoper.join().unwrap();
}

#[cfg(not(bsched_model_mutant))]
#[test]
fn submit_racing_shutdown_passes_10k_pct_schedules() {
    let report = explore_pct(
        &Config::default(),
        0xB5C4ED,
        10_000,
        3,
        submit_racing_shutdown_model,
    );
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.map_or_else(String::new, |f| f.render())
    );
    assert_eq!(report.schedules_run, 10_000);
}

/// With the fix mechanically reverted (`--cfg bsched_model_mutant`
/// gates out both shutdown's post-join queue sweep and submit's
/// post-enqueue re-check), the checker must *find* the race — the
/// scope latch deadlock — and the recorded schedule must replay to the
/// same failure. This is the proof that the model suite catches the
/// stranded-scope bug.
#[cfg(bsched_model_mutant)]
#[test]
fn mutant_submit_shutdown_race_is_detected_and_replayable() {
    use bsched_model::replay;

    let report = explore_pct(
        &Config::default(),
        0xB5C4ED,
        10_000,
        3,
        submit_racing_shutdown_model,
    );
    let failure = report
        .failure
        .expect("the reverted fix must be caught by PCT");
    assert!(
        failure.message.contains("deadlock"),
        "stranded scope job shows up as a deadlock, got: {}",
        failure.message
    );
    let rendered = failure.render();
    assert!(
        rendered.contains("replay schedule"),
        "failure must carry a replayable schedule:\n{rendered}"
    );
    // Replay: the exact recorded schedule reproduces the hang.
    let again = replay(
        &Config::default(),
        &failure.schedule,
        submit_racing_shutdown_model,
    );
    let refound = again.failure.expect("replay reproduces the deadlock");
    assert!(
        refound.message.contains("deadlock"),
        "replayed failure differs: {}",
        refound.message
    );
}
