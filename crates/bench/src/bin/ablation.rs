//! Ablations of the design choices DESIGN.md calls out.
//!
//! Measured quantity: total bootstrap mean runtime of the whole
//! Perfect-Club workload under `N(2,5)` with 10 runs per block (lower is
//! better). Ablations are about schedule quality, so every number here
//! is a deterministic cycle count, not a timing.
//!
//! 1. exact `Chances` vs the paper's level approximation;
//! 2. per-load balanced weights vs the §3 block-average variant;
//! 3. FIFO spill pool vs the original fixed pool;
//! 4. Fortran aliasing vs conservative C (paper Fig. 8);
//! 5. weight rounding mode;
//! 6. one vs two scheduling passes (§4.1);
//! 7. the §6 superblocks: balanced vs traditional on pairwise-fused
//!    blocks.
//!
//! Usage: `cargo run --release -p bsched-bench --bin ablation`

use bsched_bench::print_table;
use bsched_core::{Direction, Ratio, Rounding};
use bsched_cpusim::ProcessorModel;
use bsched_dag::{AliasModel, ChancesMethod};
use bsched_ir::Function;
use bsched_memsim::NetworkModel;
use bsched_pipeline::{evaluate, AllocationStrategy, EvalConfig, Pipeline, SchedulerChoice};
use bsched_regalloc::{AllocatorConfig, PoolPolicy};
use bsched_workload::{perfect_club, superblocks_of};

/// Total workload runtime (frequency-weighted bootstrap mean) for one
/// pipeline + scheduler configuration, each benchmark's function first
/// passed through `shape`.
fn workload_runtime(
    pipeline: &Pipeline,
    choice: &SchedulerChoice,
    shape: impl Fn(&Function) -> Function,
) -> f64 {
    let mem = NetworkModel::new(2.0, 5.0);
    let cfg = EvalConfig {
        runs: 10,
        processor: ProcessorModel::Unlimited,
        ..EvalConfig::default()
    };
    perfect_club()
        .iter()
        .map(|b| {
            let prog = pipeline
                .compile(&shape(b.function()), choice)
                .expect("compile");
            evaluate(&prog, &mem, &cfg).mean_runtime
        })
        .sum()
}

fn main() {
    bsched_pipeline::check_environment();
    let base = Pipeline::default();
    let fixed_pool = AllocatorConfig::gcc_original();
    let variants: Vec<(&str, Pipeline, SchedulerChoice)> = vec![
        ("balanced-exact", base, SchedulerChoice::balanced()),
        (
            "balanced-level-approx",
            base,
            SchedulerChoice::Balanced {
                method: ChancesMethod::LevelApprox,
            },
        ),
        ("average-weights", base, SchedulerChoice::Average),
        (
            "traditional-w2",
            base,
            SchedulerChoice::traditional(Ratio::from_int(2)),
        ),
        (
            "fixed-spill-pool",
            Pipeline {
                allocator: fixed_pool,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "fifo-spill-pool",
            Pipeline {
                allocator: AllocatorConfig {
                    policy: PoolPolicy::Fifo,
                    ..fixed_pool
                },
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "c-conservative-alias",
            Pipeline {
                alias: AliasModel::CConservative,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "rounding-floor",
            Pipeline {
                rounding: Rounding::Floor,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "rounding-ceil",
            Pipeline {
                rounding: Rounding::Ceil,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "single-pass",
            Pipeline {
                second_pass: false,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "rename-after-alloc",
            Pipeline {
                rename_after_alloc: true,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "rename-with-fixed-pool",
            Pipeline {
                rename_after_alloc: true,
                allocator: fixed_pool,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "top-down",
            Pipeline {
                direction: Direction::TopDown,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
        (
            "usage-count-alloc",
            Pipeline {
                allocation: AllocationStrategy::UsageCount,
                ..base
            },
            SchedulerChoice::balanced(),
        ),
    ];
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|(name, pipeline, choice)| {
            let runtime = workload_runtime(pipeline, choice, Clone::clone);
            vec![(*name).to_owned(), format!("{runtime:.0}")]
        })
        .collect();
    print_table(
        "Ablations: whole-workload runtime under N(2,5), 10 runs (cycles, lower is better)",
        &["Variant".to_owned(), "Runtime".to_owned()],
        &rows,
    );

    // §6 superblocks: fuse each benchmark's blocks pairwise and rerun the
    // balanced-vs-traditional comparison on the enlarged blocks.
    let fused = |f: &Function| Function::new(f.name(), superblocks_of(f, 2));
    let bal = workload_runtime(&base, &SchedulerChoice::balanced(), fused);
    let trad = workload_runtime(
        &base,
        &SchedulerChoice::traditional(Ratio::from_int(2)),
        fused,
    );
    print_table(
        "Superblocks (pairwise-fused blocks) under N(2,5), 10 runs (cycles)",
        &[
            "Variant".to_owned(),
            "Balanced".to_owned(),
            "Traditional".to_owned(),
            "Improvement".to_owned(),
        ],
        &[vec![
            "superblock-2".to_owned(),
            format!("{bal:.0}"),
            format!("{trad:.0}"),
            format!("{:+.1}%", (trad - bal) / trad * 100.0),
        ]],
    );
}
