//! Complexity scaling of the schedulers (§3 of the paper).
//!
//! The paper bounds balanced weight computation at `O(n²·α(n))` against
//! `O(n²)` for plain list scheduling and calls it "nearly as efficient".
//! This binary times both over random blocks of growing size and prints
//! the median wall time per call, plus that median divided by `n²`, so
//! the growth curves and the balanced/traditional constant-factor gap
//! read straight off the table. Timings are host-dependent; the repo's
//! end-to-end speed is measured by `benchmark/`.
//!
//! Usage: `cargo run --release -p bsched-bench --bin scaling`

use std::hint::black_box;
use std::time::{Duration, Instant};

use bsched_bench::print_table;
use bsched_core::{BalancedWeights, ListScheduler, Ratio, TraditionalWeights, WeightAssigner};
use bsched_dag::{build_dag, AliasModel, ChancesMethod, DagWorkspace};
use bsched_ir::BasicBlock;
use bsched_stats::Pcg32;
use bsched_workload::{random_block, GeneratorConfig};

/// Timed calls per row, after one untimed warm-up call; odd, so the
/// median is one measured call.
const SAMPLES: usize = 21;

fn block_of(size: usize) -> BasicBlock {
    let cfg = GeneratorConfig {
        size,
        load_fraction: 0.3,
        chain_fraction: 0.15,
        store_fraction: 0.1,
    };
    random_block(&cfg, &mut Pcg32::seed_from_u64(size as u64))
}

/// Median wall time of `SAMPLES` calls of `f`.
fn median<R>(mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let mut times: Vec<Duration> = (0..SAMPLES)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[SAMPLES / 2]
}

#[allow(clippy::cast_precision_loss)]
fn row(measure: &str, n: usize, time: Duration) -> Vec<String> {
    let nanos = time.as_nanos() as f64;
    vec![
        measure.to_owned(),
        n.to_string(),
        format!("{:.1}", nanos / 1e3),
        format!("{:.3}", nanos / (n * n) as f64),
    ]
}

fn main() {
    bsched_pipeline::check_environment();
    let mut rows = Vec::new();
    for n in [25usize, 50, 100, 200, 400] {
        let dag = build_dag(&block_of(n), AliasModel::Fortran);
        let balanced = BalancedWeights::new();
        rows.push(row(
            "weights/balanced",
            n,
            median(|| balanced.assign(black_box(&dag))),
        ));
        // `assign_with` reuses one workspace across calls: the warm,
        // allocation-free path the pipeline takes for every block after
        // the first. The gap to "balanced" (a fresh workspace per call)
        // is the buffer warm-up alone; the weights are identical.
        let mut ws = DagWorkspace::new();
        rows.push(row(
            "weights/balanced-reused-workspace",
            n,
            median(|| balanced.assign_with(black_box(&dag), &mut ws)),
        ));
        let approx = BalancedWeights::new().with_method(ChancesMethod::LevelApprox);
        rows.push(row(
            "weights/balanced-approx",
            n,
            median(|| approx.assign(black_box(&dag))),
        ));
        let traditional = TraditionalWeights::new(Ratio::from_int(2));
        rows.push(row(
            "weights/traditional",
            n,
            median(|| traditional.assign(black_box(&dag))),
        ));
    }
    for n in [50usize, 200, 400] {
        let dag = build_dag(&block_of(n), AliasModel::Fortran);
        let scheduler = ListScheduler::new();
        rows.push(row(
            "list-scheduler/balanced",
            n,
            median(|| scheduler.run(black_box(&dag), &BalancedWeights::new())),
        ));
        rows.push(row(
            "list-scheduler/traditional",
            n,
            median(|| {
                scheduler.run(
                    black_box(&dag),
                    &TraditionalWeights::new(Ratio::from_int(2)),
                )
            }),
        ));
    }
    for n in [100usize, 400] {
        let block = block_of(n);
        rows.push(row(
            "dag-build",
            n,
            median(|| build_dag(black_box(&block), AliasModel::Fortran)),
        ));
    }
    print_table(
        &format!("Scaling (§3): median wall time of {SAMPLES} calls per block size"),
        &[
            "Measure".to_owned(),
            "n".to_owned(),
            "median_us".to_owned(),
            "ns_per_n2".to_owned(),
        ],
        &rows,
    );
}
