//! Table 5: analysis of the unbalanced N(30,5) configuration — the case
//! where mean latency far exceeds the available load-level parallelism,
//! so balanced scheduling loses its guarantee (§5).
//!
//! Usage: `cargo run --release -p bsched-bench --bin table5`

use bsched_bench::{
    failure_label, print_table, report_cell_reports, run_cells_reported, CellJob, CellReport,
    SystemRow,
};
use bsched_core::Ratio;
use bsched_cpusim::ProcessorModel;
use bsched_memsim::NetworkModel;
use bsched_workload::perfect_club;

fn main() {
    bsched_pipeline::check_environment();
    let row = SystemRow {
        system: NetworkModel::new(30.0, 5.0).into(),
        optimistic: Ratio::from_int(30),
    };
    let header: Vec<String> = [
        "Program", "TIns", "BIns", "U:Imp%", "U:TI%", "U:BI%", "M8:Imp%", "M8:TI%", "M8:BI%",
        "L8:Imp%", "L8:TI%", "L8:BI%",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    // Evaluate all (benchmark × processor model) cells in parallel.
    let benchmarks = perfect_club();
    let models = ProcessorModel::paper_models();
    let jobs: Vec<CellJob> = benchmarks
        .iter()
        .flat_map(|bench| {
            models.iter().map(|&processor| CellJob {
                bench,
                row: &row,
                processor,
            })
        })
        .collect();
    let results = run_cells_reported(&jobs);

    let mut rows = Vec::new();
    for (bench, row_cells) in benchmarks.iter().zip(results.chunks(models.len())) {
        let mut cells = vec![bench.name().to_owned()];
        // TIns/BIns are compile-time statistics, identical across
        // processor models; any surviving cell can supply them.
        match row_cells.iter().find_map(CellReport::cell) {
            Some(cell) => {
                cells.push(format!("{:.0}", cell.traditional.dynamic_instructions));
                cells.push(format!("{:.0}", cell.balanced.dynamic_instructions));
            }
            None => cells.extend(["-".to_owned(), "-".to_owned()]),
        }
        for report in row_cells {
            match report.cell() {
                Some(cell) => {
                    cells.push(format!("{:.1}", cell.improvement.mean_percent));
                    cells.push(format!("{:.1}", cell.traditional.interlock_percent()));
                    cells.push(format!("{:.1}", cell.balanced.interlock_percent()));
                }
                None => {
                    cells.push(failure_label(report.failure_reason().unwrap_or("unknown")));
                    cells.extend(["-".to_owned(), "-".to_owned()]);
                }
            }
        }
        rows.push(cells);
        eprint!(".");
    }
    eprintln!();
    print_table(
        "Table 5: N(30,5) analysis — the effect of spill code under extreme latency",
        &header,
        &rows,
    );
    if report_cell_reports(&results) > 0 {
        std::process::exit(1);
    }
}
