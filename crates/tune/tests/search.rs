//! Search-level guarantees: determinism across thread budgets, seed
//! reproducibility, journal resumption, and the space-wide safety
//! property that every candidate policy compiles to verifier-clean
//! schedules.

use bsched_ir::Function;
use bsched_memsim::MemorySystem;
use bsched_pipeline::{Pipeline, PolicySpec, SchedulerChoice};
use bsched_stats::Pcg32;
use bsched_tune::{tune, CandidateSpace, TuneConfig, TuneReport};
use bsched_verify::ValidationLevel;
use bsched_workload::kernels::{daxpy, stencil3};
use bsched_workload::{lower_kernel, GeneratorConfig};
use proptest::prelude::*;

fn small_function() -> Function {
    let blocks = vec![lower_kernel(&daxpy(), 10.0), lower_kernel(&stencil3(), 5.0)];
    Function::new("tune-e2e", blocks)
}

fn quick_config(threads: usize) -> TuneConfig {
    TuneConfig {
        seed: 42,
        beam_width: 2,
        runs: 2,
        threads,
        ..TuneConfig::default()
    }
}

fn fingerprint(report: &TuneReport) -> (String, u64, usize, usize, usize) {
    (
        report.best.canonical(),
        report.best_score.to_bits(),
        report.evaluated,
        report.pruned,
        report.skipped,
    )
}

#[test]
fn beam_is_bit_identical_across_thread_budgets() {
    let func = small_function();
    let system: MemorySystem = "N(30,5)".parse().unwrap();
    let serial = tune(&func, &system, &quick_config(1)).unwrap();
    let parallel = tune(&func, &system, &quick_config(7)).unwrap();
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
    assert_eq!(
        serial.baseline_score.to_bits(),
        parallel.baseline_score.to_bits()
    );
}

#[test]
fn same_seed_reproduces_policy_and_score() {
    let func = small_function();
    let system: MemorySystem = "N(30,5)".parse().unwrap();
    let a = tune(&func, &system, &quick_config(3)).unwrap();
    let b = tune(&func, &system, &quick_config(3)).unwrap();
    assert_eq!(a.best.canonical(), b.best.canonical());
    assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
}

#[test]
fn tuned_never_loses_to_the_balanced_baseline() {
    let func = small_function();
    let system: MemorySystem = "N(30,5)".parse().unwrap();
    let report = tune(&func, &system, &quick_config(4)).unwrap();
    assert!(
        report.best_score <= report.baseline_score,
        "tuned {} > balanced {}",
        report.best_score,
        report.baseline_score
    );
    assert_eq!(report.baseline, PolicySpec::balanced_default());
}

#[test]
fn journal_resumes_without_changing_the_result() {
    let func = small_function();
    let system: MemorySystem = "N(30,5)".parse().unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("bsched-tune-resume-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let cfg = TuneConfig {
        journal: Some(path.clone()),
        ..quick_config(2)
    };
    let first = tune(&func, &system, &cfg).unwrap();
    assert_eq!(first.resumed, 0);
    let second = tune(&func, &system, &cfg).unwrap();
    assert!(
        second.resumed > 0,
        "second run should resume from the journal"
    );
    assert_eq!(second.evaluated, 0, "nothing should re-simulate");
    assert_eq!(fingerprint(&first).0, fingerprint(&second).0);
    assert_eq!(first.best_score.to_bits(), second.best_score.to_bits());
    let _ = std::fs::remove_file(&path);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Differential safety sweep: every policy the candidate space can
    /// generate must compile random blocks into schedules that pass the
    /// independent `bsched-verify` checks (both scheduling passes and
    /// the allocation value-flow check run at `ValidationLevel::Full`).
    #[test]
    fn every_candidate_policy_compiles_verifier_clean(seed in 0u64..1u64 << 48) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let gen = GeneratorConfig { size: 24, ..GeneratorConfig::default() };
        let block = bsched_workload::random_block(&gen, &mut rng);
        let pipeline = Pipeline {
            validation: ValidationLevel::Full,
            ..Pipeline::default()
        };
        let space = CandidateSpace::for_optimistic_latency(3.0);
        for spec in space.enumerate() {
            let choice = SchedulerChoice::Tuned(spec);
            let compiled = pipeline.compile_block(&block, &choice);
            prop_assert!(
                compiled.is_ok(),
                "policy {} failed verification: {:?}",
                spec.canonical(),
                compiled.err()
            );
        }
    }
}
