//! Differential tests: `evaluate` is bit-identical at every thread
//! count.
//!
//! `evaluate` promises bit-identical results to `evaluate_serial`
//! however the per-block work is spread across the worker pool:
//! per-block streams depend only on the block index and master seed,
//! and block contributions are folded in block order. The tests here
//! exercise that contract across the whole Perfect Club stand-in suite,
//! both schedulers, and several `BSCHED_THREADS` settings — including
//! 7, which oversubscribes any test machine, so drain jobs queue behind
//! each other and blocks land on workers in a different order every
//! run.
//!
//! The tests live in their own integration-test binary (own process)
//! because they mutate `BSCHED_THREADS`; a single `#[test]` body keeps
//! the env mutations ordered even with a multi-threaded test harness.

#![allow(clippy::disallowed_methods)] // sets the live variable

use balanced_scheduling::prelude::*;
use bsched_pipeline::{evaluate_serial, ProgramEval};

/// Restores `BSCHED_THREADS` on scope exit, panic or not.
struct ThreadsGuard {
    previous: Option<String>,
}

impl ThreadsGuard {
    fn set(value: &str) -> Self {
        let previous = std::env::var("BSCHED_THREADS").ok();
        std::env::set_var("BSCHED_THREADS", value);
        ThreadsGuard { previous }
    }
}

impl Drop for ThreadsGuard {
    fn drop(&mut self) {
        match &self.previous {
            Some(v) => std::env::set_var("BSCHED_THREADS", v),
            None => std::env::remove_var("BSCHED_THREADS"),
        }
    }
}

fn quick_cfg() -> EvalConfig {
    EvalConfig {
        runs: 6,
        ..EvalConfig::default()
    }
}

/// Bit-exact comparison: `assert_eq!` on floats would accept `-0.0 ==
/// 0.0` and reject NaN; the parity contract is about the exact bits the
/// fold produces.
fn assert_bits_eq(serial: &ProgramEval, parallel: &ProgramEval, ctx: &str) {
    assert_eq!(
        serial.bootstrap_runtimes.len(),
        parallel.bootstrap_runtimes.len(),
        "{ctx}: resample count diverged"
    );
    for (i, (s, p)) in serial
        .bootstrap_runtimes
        .iter()
        .zip(&parallel.bootstrap_runtimes)
        .enumerate()
    {
        assert_eq!(
            s.to_bits(),
            p.to_bits(),
            "{ctx}: bootstrap runtime {i} diverged ({s} vs {p})"
        );
    }
    assert_eq!(
        serial.mean_runtime.to_bits(),
        parallel.mean_runtime.to_bits(),
        "{ctx}: mean runtime diverged"
    );
    assert_eq!(
        serial.dynamic_instructions.to_bits(),
        parallel.dynamic_instructions.to_bits(),
        "{ctx}: dynamic instruction count diverged"
    );
    assert_eq!(
        serial.mean_interlocks.to_bits(),
        parallel.mean_interlocks.to_bits(),
        "{ctx}: mean interlocks diverged"
    );
}

/// The schedule itself must not depend on the thread budget either:
/// compilation is deterministic, so the instruction order per block is
/// the program's identity for this comparison.
fn schedule_fingerprint(prog: &CompiledProgram) -> Vec<String> {
    prog.blocks
        .iter()
        .map(|cb| format!("{:?}", cb.block.insts()))
        .collect()
}

#[test]
fn every_thread_count_matches_serial_bit_for_bit() {
    let suite = perfect_club();
    let pipeline = Pipeline::default();
    let mem = MemorySystem::Cache(CacheModel::l80_5());
    let cfg = quick_cfg();

    // References are computed with the var unset so `evaluate_serial`
    // sees the same world regardless of the outer environment.
    let _clear = ThreadsGuard::set("1");

    for bench in &suite {
        for choice in [
            SchedulerChoice::balanced(),
            SchedulerChoice::traditional(Ratio::from_int(2)),
        ] {
            let prog = pipeline.compile(bench.function(), &choice).unwrap();
            let reference = evaluate_serial(&prog, &mem, &cfg);
            let shape = schedule_fingerprint(&prog);

            for threads in ["1", "2", "7"] {
                let _guard = ThreadsGuard::set(threads);
                let ctx = format!(
                    "{} / {} / BSCHED_THREADS={threads}",
                    bench.name(),
                    choice.name()
                );
                // Recompile under the thread budget: the schedule (and
                // hence every downstream number) must be unaffected.
                let reprog = pipeline.compile(bench.function(), &choice).unwrap();
                assert_eq!(
                    schedule_fingerprint(&reprog),
                    shape,
                    "{ctx}: compiled block shapes diverged"
                );
                let parallel = evaluate(&reprog, &mem, &cfg);
                assert_bits_eq(&reference, &parallel, &ctx);
            }
        }
    }
}

/// Same contract under a latency model with genuinely random draws
/// (network): parity must come from deterministic per-block streams,
/// not from the cache model happening to be latency-stable.
#[test]
fn parity_holds_under_network_latency() {
    let pipeline = Pipeline::default();
    let mem = MemorySystem::Network(NetworkModel::new(2.0, 5.0));
    let cfg = quick_cfg();
    let suite = perfect_club();
    let bench = &suite[0];
    let prog = pipeline
        .compile(bench.function(), &SchedulerChoice::balanced())
        .unwrap();

    let serial = {
        let _guard = ThreadsGuard::set("1");
        evaluate_serial(&prog, &mem, &cfg)
    };
    let parallel = {
        let _guard = ThreadsGuard::set("7");
        evaluate(&prog, &mem, &cfg)
    };
    assert_bits_eq(&serial, &parallel, "network model, BSCHED_THREADS=7");
}
