//! Table 2: percentage improvement in execution time of balanced over
//! traditional scheduling, processor model UNLIMITED, for every memory
//! system and benchmark.
//!
//! Usage: `cargo run --release -p bsched-bench --bin table2`
//! (`BSCHED_RUNS=5` for a quick pass).

use bsched_bench::{
    failure_label, print_table, report_cell_reports, run_cells_reported, table2_rows, CellJob,
};
use bsched_cpusim::ProcessorModel;
use bsched_memsim::LatencyModel;
use bsched_par::env;
use bsched_workload::perfect_club;

fn main() {
    bsched_pipeline::check_environment();
    // The paper's Table 2 uses UNLIMITED; it reports that MAX-8 and
    // LEN-8 behave similarly (means 10.0% and 8.7% vs 9.9%). Set
    // BSCHED_PROCESSOR=max8|len8 to regenerate the table for those.
    let processor: ProcessorModel = env::var("BSCHED_PROCESSOR").unwrap_or_default();
    // BSCHED_CI=1 prints each cell as mean±halfwidth of its 95%
    // bootstrap confidence interval (§4.3).
    let with_ci = env::switch("BSCHED_CI");
    let benchmarks = perfect_club();
    let mut header: Vec<String> = vec!["System".to_owned(), "OptLat".to_owned()];
    header.extend(benchmarks.iter().map(|b| b.name().to_owned()));
    header.push("Mean".to_owned());

    // All 17 × 8 cells evaluate in parallel; formatting then walks the
    // results in table order.
    let system_rows = table2_rows();
    let jobs: Vec<CellJob> = system_rows
        .iter()
        .flat_map(|row| {
            benchmarks.iter().map(move |bench| CellJob {
                bench,
                row,
                processor,
            })
        })
        .collect();
    let results = run_cells_reported(&jobs);

    let mut rows = Vec::new();
    for (row, row_cells) in system_rows.iter().zip(results.chunks(benchmarks.len())) {
        let mut cells = vec![row.system.name(), row.optimistic.to_string()];
        let mut sum = 0.0;
        let mut survivors = 0usize;
        for report in row_cells {
            match report.cell() {
                Some(cell) => {
                    sum += cell.improvement.mean_percent;
                    survivors += 1;
                    if with_ci {
                        let half = cell.improvement.interval.width() / 2.0;
                        cells.push(format!("{:.1}±{half:.1}", cell.improvement.mean_percent));
                    } else {
                        cells.push(format!("{:.1}", cell.improvement.mean_percent));
                    }
                }
                None => cells.push(failure_label(report.failure_reason().unwrap_or("unknown"))),
            }
        }
        // The row mean averages the surviving cells only.
        cells.push(if survivors == 0 {
            "-".to_owned()
        } else {
            format!("{:.1}", sum / survivors as f64)
        });
        rows.push(cells);
        eprint!(".");
    }
    eprintln!();
    print_table(
        &format!(
            "Table 2: % improvement from balanced scheduling (processor model {})",
            processor.paper_name()
        ),
        &header,
        &rows,
    );
    if report_cell_reports(&results) > 0 {
        std::process::exit(1);
    }
}
