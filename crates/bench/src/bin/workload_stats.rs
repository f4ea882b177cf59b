//! Workload census: the structural profile of every benchmark block —
//! sizes, load densities, dependence depth, parallelism and balanced
//! weights. This is the evidence behind DESIGN.md's claim that each
//! stand-in targets its Perfect Club namesake's qualitative profile.
//!
//! Usage: `cargo run --release -p bsched-bench --bin workload_stats`

use bsched_bench::print_table;
use bsched_core::{BalancedWeights, WeightAssigner};
use bsched_dag::{build_dag, AliasModel, DagProfile};
use bsched_workload::perfect_club;

fn main() {
    bsched_pipeline::check_environment();
    let header: Vec<String> = [
        "Block", "Freq", "Insts", "Loads", "Edges", "Depth", "Width", "SerLoads", "MaxW", "MeanW",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    for bench in perfect_club() {
        let mut rows = Vec::new();
        for block in bench.function().blocks() {
            let dag = build_dag(block, AliasModel::Fortran);
            let profile = DagProfile::of(&dag);
            let weights = BalancedWeights::new().assign(&dag);
            let loads = dag.load_ids();
            let max_w = loads
                .iter()
                .map(|&l| weights.weight(l))
                .max()
                .unwrap_or(bsched_core::Ratio::ONE);
            let mean_w = loads
                .iter()
                .map(|&l| weights.weight(l).to_f64())
                .sum::<f64>()
                / loads.len().max(1) as f64;
            rows.push(vec![
                block.name().to_owned(),
                format!("{:.0}", block.frequency()),
                profile.instructions.to_string(),
                profile.loads.to_string(),
                profile.edges.to_string(),
                profile.critical_path.to_string(),
                format!("{:.2}", profile.parallelism),
                profile.max_serial_loads.to_string(),
                max_w.to_string(),
                format!("{mean_w:.2}"),
            ]);
        }
        print_table(&format!("{} block profiles", bench.name()), &header, &rows);
    }
}
