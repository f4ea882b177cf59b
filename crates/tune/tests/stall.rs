//! Fault plans under the tuner: a candidate whose evaluation hangs
//! (the `tune-stall` site) must be quarantined by the per-candidate
//! watchdog without aborting the search, and a fault keyed to some
//! candidates must hit exactly those candidates even though the search
//! shares compile and simulation stages between candidates. Lives in its
//! own integration binary because the fault plan is process-global.

use std::sync::{Mutex, MutexGuard, PoisonError};

use bsched_analyze::journal::Record;
use bsched_analyze::json::{self, Json};
use bsched_faults::{FaultPlan, FaultSpec, Site};
use bsched_ir::Function;
use bsched_memsim::MemorySystem;
use bsched_pipeline::{try_evaluate_serial, EvalConfig, Pipeline, PolicySpec, SchedulerChoice};
use bsched_tune::{tune, CandidateOutcome, Driver, TuneConfig, TuneReport};
use bsched_workload::kernels::daxpy;
use bsched_workload::lower_kernel;

/// Tests that install a plan take turns.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_lock() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn stalled_candidate_is_quarantined_not_fatal() {
    let _turn = plan_lock();
    // Target exactly the average-parallelism candidate by its canonical
    // cell context; every other candidate evaluates normally.
    let plan = FaultPlan::seeded(1).with(
        FaultSpec::always(Site::TuneStall)
            .with_key("family=average")
            .with_arg(5_000),
    );
    bsched_faults::install(plan);

    let func = Function::new("stall", vec![lower_kernel(&daxpy(), 1.0)]);
    let system: MemorySystem = "N(3,2)".parse().unwrap();
    let cfg = TuneConfig {
        driver: Driver::Beam,
        seed: 7,
        beam_width: 2,
        runs: 2,
        threads: 2,
        candidate_timeout: Some(std::time::Duration::from_millis(500)),
        ..TuneConfig::default()
    };
    let report = tune(&func, &system, &cfg).unwrap();
    bsched_faults::clear();

    assert!(
        report.skipped >= 1,
        "the stalled candidate must be quarantined"
    );
    assert!(report.best_score <= report.baseline_score);
    assert!(
        !report.best.canonical().contains("family=average"),
        "a quarantined candidate must not win"
    );
}

#[test]
fn keyed_faults_in_shared_stages_hit_only_their_candidates() {
    let _turn = plan_lock();
    // Allocation fails for the average-parallelism candidates and loads
    // are jittered for the exact balanced ones. Both sites run inside
    // stages the search shares between candidates when no plan is set.
    let plan = FaultPlan::seeded(3)
        .with(FaultSpec::always(Site::Alloc).with_key("family=average"))
        .with(FaultSpec::always(Site::LatencyJitter).with_key("family=balanced;"));
    bsched_faults::install(plan);

    let func = Function::new("keyed", vec![lower_kernel(&daxpy(), 1.0)]);
    let system: MemorySystem = "N(30,5)".parse().unwrap();
    let journal =
        std::env::temp_dir().join(format!("bsched-keyed-faults-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);
    let cfg = |threads, journal| TuneConfig {
        driver: Driver::Beam,
        runs: 5,
        threads,
        journal,
        ..TuneConfig::default()
    };
    let one = tune(&func, &system, &cfg(1, Some(journal.clone()))).unwrap();
    let two = tune(&func, &system, &cfg(2, None)).unwrap();
    let recorded = std::fs::read_to_string(&journal).unwrap();
    std::fs::remove_file(&journal).unwrap();

    // Every recorded outcome is what a fresh compile and evaluation give
    // under that candidate's own fault context.
    let cfg = cfg(1, None);
    let pipeline = Pipeline {
        alias: cfg.alias,
        ..Pipeline::default()
    };
    let eval = EvalConfig {
        runs: cfg.runs,
        processor: cfg.processor,
        seed: cfg.seed,
        ..EvalConfig::default()
    };
    let (mut failed, mut scored) = (0, 0);
    for line in recorded.lines().skip(1) {
        let entry = json::parse(line).unwrap();
        let name = entry.get("candidate").and_then(Json::as_str).unwrap();
        let outcome = CandidateOutcome::parse(&entry).unwrap();
        let choice = SchedulerChoice::Tuned(PolicySpec::parse_canonical(name).unwrap());
        let fresh = bsched_faults::with_cell_context(name, 0, || {
            pipeline
                .compile(&func, &choice)
                .and_then(|p| try_evaluate_serial(&p, &system, &eval))
        });
        let expected = match fresh {
            Ok(e) => {
                scored += 1;
                CandidateOutcome::Score(e.mean_runtime)
            }
            Err(e) => {
                failed += 1;
                CandidateOutcome::Failed(e.to_string())
            }
        };
        assert_eq!(outcome, expected, "{name}");
    }
    bsched_faults::clear();

    assert!(failed > 0 && scored > 0, "{failed} failed, {scored} scored");
    // The same plan gives the same search at any thread budget.
    let summary = |r: &TuneReport| {
        let counts = (r.evaluated, r.pruned, r.skipped);
        (r.best.canonical(), r.best_score.to_bits(), counts)
    };
    assert_eq!(summary(&one), summary(&two));
}
