//! Table 3: detailed analysis of MDG — improvement, instruction counts
//! and interlock percentages under all three processor models and every
//! memory system.
//!
//! Usage: `cargo run --release -p bsched-bench --bin table3`

use bsched_bench::{
    failure_label, print_table, report_cell_reports, run_cells_reported, table2_rows, CellJob,
    CellReport,
};
use bsched_cpusim::ProcessorModel;
use bsched_memsim::LatencyModel;
use bsched_par::env;
use bsched_workload::perfect_club;

fn main() {
    bsched_pipeline::check_environment();
    // The paper details MDG; BSCHED_BENCH=<name> details any stand-in.
    let wanted: String = env::var("BSCHED_BENCH").unwrap_or_else(|| "MDG".to_owned());
    let mdg = perfect_club()
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(&wanted))
        .unwrap_or_else(|| env::invalid("BSCHED_BENCH", &wanted, &"no stand-in by that name"));
    let header: Vec<String> = [
        "System", "OptLat", "TIns", "BIns", "U:Imp%", "U:TI%", "U:BI%", "M8:Imp%", "M8:TI%",
        "M8:BI%", "L8:Imp%", "L8:TI%", "L8:BI%",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();

    // Evaluate all (system × processor model) cells in parallel.
    let system_rows = table2_rows();
    let models = ProcessorModel::paper_models();
    let bench = &mdg;
    let jobs: Vec<CellJob> = system_rows
        .iter()
        .flat_map(|row| {
            models.iter().map(move |&processor| CellJob {
                bench,
                row,
                processor,
            })
        })
        .collect();
    let results = run_cells_reported(&jobs);

    let mut rows = Vec::new();
    for (row, row_cells) in system_rows.iter().zip(results.chunks(models.len())) {
        let mut cells = vec![row.system.name(), row.optimistic.to_string()];
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
        &format!(
            "Table 3: detailed analysis of {} (U = UNLIMITED, M8 = MAX-8, L8 = LEN-8)",
            mdg.name()
        ),
        &header,
        &rows,
    );
    if report_cell_reports(&results) > 0 {
        std::process::exit(1);
    }
}
