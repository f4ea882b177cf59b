//! Chaos soak: full table slices run under seeded fault plans, with the
//! metamorphic invariant that every cell is either **bit-identical** to
//! the fault-free run or a **typed degraded outcome** — never a
//! silently wrong number. Alongside the soak, property tests pin the
//! latency contracts the fault layer leans on: every memory model
//! samples inside its declared support, injected jitter is clamped back
//! into that support, and `min_latency_elapsed` stays a valid floor on
//! simulated time even while jitter fires.
//!
//! The soak drives the harness through the `BSCHED_*` variables, as the
//! table binaries and CI do, so it is the end-to-end check that
//! `run_cells_reported` reads them at each call.

#![allow(clippy::disallowed_methods)] // sets the live variables

use balanced_scheduling::cpusim::simulate_block;
use balanced_scheduling::faults::{self, FaultPlan, FaultSpec, Site};
use balanced_scheduling::prelude::*;
use balanced_scheduling::verify::min_latency_elapsed;
use balanced_scheduling::workload::{random_block, GeneratorConfig};
use bsched_bench::{run_cell, run_cells_reported, table2_rows, Cell, CellJob, SystemRow};
use proptest::prelude::*;

/// Serialises every test in this binary that installs a fault plan or
/// touches `BSCHED_*` environment variables; the test harness runs
/// tests on concurrent threads and both are process-global.
static CHAOS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small but real table slice: three Perfect Club benchmarks under a
/// cache row and a network row. Cheap enough to evaluate repeatedly,
/// wide enough that rate-based plans hit some cells and miss others.
fn slice_jobs<'a>(benches: &'a [Benchmark], rows: &'a [SystemRow]) -> Vec<CellJob<'a>> {
    let mut jobs = Vec::new();
    for bench in benches {
        for row in rows {
            jobs.push(CellJob {
                bench,
                row,
                processor: ProcessorModel::Unlimited,
            });
        }
    }
    jobs
}

fn baseline(jobs: &[CellJob<'_>]) -> Vec<Cell> {
    jobs.iter()
        .map(|j| run_cell(j.bench, j.row, j.processor))
        .collect()
}

/// Bit-identical in every number a table renders from the cell.
fn assert_bit_identical(cell: &Cell, base: &Cell, key: &str) {
    assert_eq!(
        cell.improvement.mean_percent.to_bits(),
        base.improvement.mean_percent.to_bits(),
        "{key}: improvement drifted from the fault-free run"
    );
    assert_eq!(
        cell.traditional.bootstrap_runtimes, base.traditional.bootstrap_runtimes,
        "{key}: traditional bootstrap drifted"
    );
    assert_eq!(
        cell.balanced.bootstrap_runtimes, base.balanced.bootstrap_runtimes,
        "{key}: balanced bootstrap drifted"
    );
    assert_eq!(
        cell.traditional_spill_percent.to_bits(),
        base.traditional_spill_percent.to_bits()
    );
    assert_eq!(
        cell.balanced_spill_percent.to_bits(),
        base.balanced_spill_percent.to_bits()
    );
}

/// The soak itself: three seeded plans — panics, result-perturbing
/// jitter, and a stall at a rate — each run over the same slice and
/// checked cell by cell against the fault-free baseline.
#[test]
fn chaos_soak_holds_the_metamorphic_invariant() {
    let _guard = chaos_lock();
    std::env::set_var("BSCHED_RUNS", "2");
    std::env::set_var("BSCHED_BACKOFF_MS", "0");
    let benches: Vec<Benchmark> = perfect_club().into_iter().take(3).collect();
    let rows: Vec<SystemRow> = {
        let all = table2_rows();
        vec![all[0].clone(), all[8].clone()] // L80(2,5) @ 2 and N(2,2) @ 2
    };
    let jobs = slice_jobs(&benches, &rows);
    let base = baseline(&jobs);

    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "eval-panic at rate 1/2",
            FaultPlan::seeded(3).with(FaultSpec::always(Site::EvalPanic).with_rate(0.5)),
        ),
        (
            "latency jitter at rate 1/2",
            FaultPlan::seeded(11).with(
                FaultSpec::always(Site::LatencyJitter)
                    .with_rate(0.5)
                    .with_arg(200),
            ),
        ),
        (
            "simulator stall on one benchmark",
            FaultPlan::seeded(42).with(
                FaultSpec::always(Site::SimStall)
                    .with_key(benches[1].name())
                    .with_arg(1 << 40),
            ),
        ),
    ];

    for (label, plan) in plans {
        faults::install(plan);
        let reports = run_cells_reported(&jobs);
        faults::clear();
        assert_eq!(reports.len(), jobs.len());
        let mut degraded = 0usize;
        for (report, base_cell) in reports.iter().zip(&base) {
            match report.cell() {
                // A produced number must be the fault-free number.
                Some(cell) => assert_bit_identical(cell, base_cell, &report.key),
                // A missing number must carry a typed failure kind.
                None => {
                    degraded += 1;
                    let kind = report
                        .failure_kind()
                        .unwrap_or_else(|| panic!("{label}: {}: untyped failure", report.key));
                    assert!(
                        !kind.id().is_empty() && report.failure_reason().is_some(),
                        "{label}: {}: failure without vocabulary id or reason",
                        report.key
                    );
                }
            }
        }
        assert!(
            degraded > 0,
            "{label}: plan never degraded a cell — soak is vacuous"
        );
    }
    std::env::remove_var("BSCHED_BACKOFF_MS");
    std::env::remove_var("BSCHED_RUNS");
}

/// A transient fault (one firing, then quiet) must be invisible in the
/// output: the retry re-evaluates and lands on the fault-free bits.
#[test]
fn transient_faults_recover_bit_identically() {
    let _guard = chaos_lock();
    std::env::set_var("BSCHED_RUNS", "2");
    std::env::set_var("BSCHED_BACKOFF_MS", "0");
    let benches: Vec<Benchmark> = perfect_club().into_iter().take(2).collect();
    let rows = vec![table2_rows()[8].clone()];
    let jobs = slice_jobs(&benches, &rows);
    let base = baseline(&jobs);

    faults::install(FaultPlan::seeded(5).with(FaultSpec::always(Site::EvalPanic).with_limit(1)));
    let reports = run_cells_reported(&jobs);
    faults::clear();
    std::env::remove_var("BSCHED_BACKOFF_MS");
    std::env::remove_var("BSCHED_RUNS");

    let mut recovered = 0usize;
    for (report, base_cell) in reports.iter().zip(&base) {
        let cell = report
            .cell()
            .unwrap_or_else(|| panic!("{}: transient fault was not recovered", report.key));
        assert_bit_identical(cell, base_cell, &report.key);
        if matches!(report.status, bsched_bench::CellStatus::Recovered { .. }) {
            recovered += 1;
        }
    }
    assert!(recovered > 0, "no cell exercised the retry path");
}

/// Crash-safety: evaluate a slice with a journal, truncate the journal
/// to a prefix (a simulated mid-run kill), and re-run. The resumed run
/// must report exactly the surviving prefix as resumed and still land
/// on the fault-free bits for every cell.
#[test]
fn journal_resumes_after_a_simulated_crash() {
    let _guard = chaos_lock();
    std::env::set_var("BSCHED_RUNS", "2");
    let benches: Vec<Benchmark> = perfect_club().into_iter().take(3).collect();
    let rows = vec![table2_rows()[0].clone()];
    let jobs = slice_jobs(&benches, &rows);
    let base = baseline(&jobs);

    let path = std::env::temp_dir().join(format!("bsched-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("BSCHED_JOURNAL", &path);

    let first = run_cells_reported(&jobs);
    assert!(first.iter().all(|r| !r.resumed && r.cell().is_some()));

    // Keep the header plus the first recorded cell: the state a SIGKILL
    // between cells leaves behind.
    let text = std::fs::read_to_string(&path).expect("journal was written");
    let keep: Vec<&str> = text.lines().take(2).collect();
    assert_eq!(keep.len(), 2, "journal should hold a header and cells");
    std::fs::write(&path, format!("{}\n", keep.join("\n"))).unwrap();

    let second = run_cells_reported(&jobs);
    std::env::remove_var("BSCHED_JOURNAL");
    std::env::remove_var("BSCHED_RUNS");
    let _ = std::fs::remove_file(&path);

    assert_eq!(second.iter().filter(|r| r.resumed).count(), 1);
    for (report, base_cell) in second.iter().zip(&base) {
        let cell = report.cell().expect("clean rerun must produce every cell");
        assert_bit_identical(cell, base_cell, &report.key);
    }
}

fn paper_models() -> Vec<MemorySystem> {
    vec![
        CacheModel::l80_5().into(),
        NetworkModel::paper_configs()[0].into(),
        MixedModel::l80_n30_5().into(),
    ]
}

fn arb_block_config() -> impl Strategy<Value = GeneratorConfig> {
    (8usize..40, 0.15f64..0.6, 0.0f64..0.4, 0.0f64..0.2).prop_map(
        |(size, load_fraction, chain_fraction, store_fraction)| GeneratorConfig {
            size,
            load_fraction,
            chain_fraction,
            store_fraction,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every latency a model hands the simulator lies inside the
    /// support it declares — the bound the timeline validator and the
    /// jitter clamp both trust.
    #[test]
    fn memory_models_sample_inside_their_declared_support(
        seed in 0u64..10_000,
        addr in 0u64..1 << 20,
    ) {
        for mem in paper_models() {
            for addr in [None, Some(addr)] {
                mem.begin_run();
                let mut rng = Pcg32::seed_from_u64(seed);
                let lo = mem.min_latency();
                let hi = mem.max_latency();
                for _ in 0..64 {
                    let sample = mem.sample_at(addr, &mut rng);
                    prop_assert!(sample >= lo, "{sample} below declared min {lo}");
                    if let Some(hi) = hi {
                        prop_assert!(sample <= hi, "{sample} above declared max {hi}");
                    }
                }
            }
        }
    }

    /// The jitter clamp never escapes the declared support, however
    /// large the injected extra latency is.
    #[test]
    fn injected_jitter_is_clamped_to_the_support(
        sampled in 0u64..1 << 20,
        extra in 0u64..u64::MAX / 2,
        lo in 0u64..100,
        span in 0u64..1 << 16,
    ) {
        let hi = lo + span;
        let floor = lo.max(1);
        let bounded = faults::jitter_latency(sampled, extra, lo, Some(hi));
        prop_assert!(bounded >= floor && bounded <= hi.max(floor));
        let unbounded = faults::jitter_latency(sampled, extra, lo, None);
        prop_assert!(unbounded >= floor && unbounded >= sampled);
    }

    /// `min_latency_elapsed` is a hard floor on simulated time for all
    /// three paper memory systems, and stays one while a latency-jitter
    /// plan fires on every load: jitter may only slow a run down.
    #[test]
    fn min_latency_floor_survives_injected_jitter(
        cfg in arb_block_config(),
        seed in 0u64..1_000,
    ) {
        let _guard = chaos_lock();
        let mut gen_rng = Pcg32::seed_from_u64(seed);
        let block = random_block(&cfg, &mut gen_rng);
        for mem in paper_models() {
            let floor = min_latency_elapsed(&block, mem.min_latency().max(1));
            mem.begin_run();
            let mut rng = Pcg32::seed_from_u64(seed ^ 0xC0FFEE);
            let clean = simulate_block(&block, &mem, ProcessorModel::Unlimited, &mut rng);
            prop_assert!(clean.cycles() >= floor, "clean run beat the floor");

            faults::install(FaultPlan::seeded(seed).with(
                FaultSpec::always(Site::LatencyJitter).with_arg(64),
            ));
            mem.begin_run();
            let mut rng = Pcg32::seed_from_u64(seed ^ 0xC0FFEE);
            let jittered = faults::with_cell_context("chaos-floor", 0, || {
                simulate_block(&block, &mem, ProcessorModel::Unlimited, &mut rng)
            });
            faults::clear();
            prop_assert!(
                jittered.cycles() >= clean.cycles(),
                "jitter sped a run up: {} < {}",
                jittered.cycles(),
                clean.cycles()
            );
            prop_assert!(jittered.cycles() >= floor, "jittered run beat the floor");
        }
    }
}
