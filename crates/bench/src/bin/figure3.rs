//! Figure 3: hardware interlocks incurred by the Figure 2 schedules as
//! the actual memory latency varies from 1 to 6 cycles.
//!
//! The paper's claim: "for latencies in the range of 2–4, the balanced
//! schedules are faster than both the greedy and lazy traditional
//! schedules … Outside this range the balanced and traditional schedules
//! perform equivalently."
//!
//! Usage: `cargo run --release -p bsched-bench --bin figure3`

use bsched_bench::print_table;
use bsched_cpusim::{simulate_block, ProcessorModel};
use bsched_ir::{BasicBlock, BlockBuilder, InstId};
use bsched_memsim::FixedLatency;
use bsched_stats::Pcg32;

/// The Figure 1 program with real register dependences:
/// `L0` loads the address used by `L1`; `X4` consumes `L1`'s value;
/// `X0..X3` are independent.
///
/// Instruction order: L0 L1 X0 X1 X2 X3 X4 (ids 1..: id 0 is the base).
fn figure1_block() -> BasicBlock {
    let mut b = BlockBuilder::new("fig1");
    let region = b.fresh_region();
    let base = b.def_int("base"); // id 0
    let addr_val = b.load_int_region("L0", region, base, Some(0)); // id 1
    let l1 = b.load_region("L1", region, addr_val, Some(8)); // id 2
    for n in 0..4 {
        let _ = b.fconst(&format!("X{n}"), 1.0); // ids 3..6
    }
    let _ = b.fadd("X4", l1, l1); // id 7
    b.finish()
}

/// Reorders the block's scheduled instructions (base stays first).
fn reorder(block: &BasicBlock, names: &[&str]) -> BasicBlock {
    let mut order = vec![InstId::new(0)];
    for name in names {
        let (id, _) = block
            .iter_ids()
            .find(|(_, i)| i.name() == Some(name))
            .expect("name exists");
        order.push(id);
    }
    block.reordered(&order)
}

fn main() {
    bsched_pipeline::check_environment();
    let block = figure1_block();
    // The three Figure 2 schedules.
    let schedules = [
        (
            "Traditional W=5",
            vec!["L0", "X0", "X1", "X2", "X3", "L1", "X4"],
        ),
        (
            "Traditional W=1",
            vec!["L0", "L1", "X0", "X1", "X2", "X3", "X4"],
        ),
        ("Balanced", vec!["L0", "X0", "X1", "L1", "X2", "X3", "X4"]),
    ];

    let header: Vec<String> = std::iter::once("Latency".to_owned())
        .chain(schedules.iter().map(|(n, _)| (*n).to_owned()))
        .collect();
    let mut rows = Vec::new();
    for latency in 1..=6u64 {
        let mut cells = vec![latency.to_string()];
        for (_, order) in &schedules {
            let scheduled = reorder(&block, order);
            let mut rng = Pcg32::seed_from_u64(0);
            let result = simulate_block(
                &scheduled,
                &FixedLatency::new(latency),
                ProcessorModel::Unlimited,
                &mut rng,
            );
            cells.push(result.interlocks.to_string());
        }
        rows.push(cells);
    }
    print_table(
        "Figure 3: interlocks vs actual load latency",
        &header,
        &rows,
    );
}
