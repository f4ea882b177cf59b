//! Table 4: spill instructions executed, as a percentage of total
//! dynamic instructions — the balanced scheduler versus the traditional
//! scheduler at each optimistic latency the paper evaluates.
//!
//! Spill percentages are properties of compilation only (no simulation),
//! so this binary is fast and exact.
//!
//! Usage: `cargo run --release -p bsched-bench --bin table4`

use bsched_bench::print_table;
use bsched_core::Ratio;
use bsched_pipeline::{AllocationStrategy, Pipeline, SchedulerChoice};
use bsched_workload::perfect_club;

fn main() {
    bsched_pipeline::check_environment();
    // BSCHED_ALLOC=usage swaps in the 1992-vintage usage-count allocator
    // that recreates GCC 2.2.2's spill-everywhere behaviour — the
    // allocator regime the paper's Table 4 was measured under.
    let allocation: AllocationStrategy = bsched_par::env::var("BSCHED_ALLOC").unwrap_or_default();
    // The optimistic-latency columns of Table 4.
    let latencies: Vec<(String, Ratio)> = [
        ("2", Ratio::from_int(2)),
        ("2.15", Ratio::new(43, 20)),
        ("2.4", Ratio::new(12, 5)),
        ("2.6", Ratio::new(13, 5)),
        ("3", Ratio::from_int(3)),
        ("3.6", Ratio::new(18, 5)),
        ("5", Ratio::from_int(5)),
        ("7.6", Ratio::new(38, 5)),
        ("30", Ratio::from_int(30)),
    ]
    .iter()
    .map(|(n, r)| ((*n).to_owned(), *r))
    .collect();

    let mut header = vec![
        "Program".to_owned(),
        "BIns".to_owned(),
        "Balanced".to_owned(),
    ];
    header.extend(latencies.iter().map(|(n, _)| format!("T@{n}")));

    let pipeline = Pipeline {
        allocation,
        ..Pipeline::default()
    };
    let mut rows = Vec::new();
    for bench in perfect_club() {
        let balanced = pipeline
            .compile(bench.function(), &SchedulerChoice::balanced())
            .expect("balanced");
        let mut cells = vec![
            bench.name().to_owned(),
            format!("{:.0}", balanced.dynamic_instructions()),
            format!("{:.2}", balanced.spill_percent()),
        ];
        for (_, latency) in &latencies {
            let traditional = pipeline
                .compile(bench.function(), &SchedulerChoice::traditional(*latency))
                .expect("traditional");
            cells.push(format!("{:.2}", traditional.spill_percent()));
        }
        rows.push(cells);
    }
    print_table(
        &format!(
            "Table 4: spill instructions executed (% of dynamic instructions), allocator {allocation:?}"
        ),
        &header,
        &rows,
    );
}
