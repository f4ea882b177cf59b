//! Walkthrough of the paper's §2–3 running examples: the Figure 1 DAG,
//! the three Figure 2 schedules, the Figure 3 interlock comparison, and
//! the Figure 4/5 parallel-loads example.
//!
//! Run with: `cargo run --example paper_walkthrough`

use balanced_scheduling::dag::{to_dot, CodeDag, DepKind};
use balanced_scheduling::ir::{Inst, MemAccess, MemLoc, Opcode, RegionId};
use balanced_scheduling::prelude::*;
use balanced_scheduling::sched::Direction;

fn load(name: &str) -> Inst {
    Inst::new(
        Opcode::Ldc1,
        vec![],
        vec![],
        Some(MemAccess::read(MemLoc::known(RegionId::new(0), 0))),
    )
    .with_name(name)
}

fn x(name: &str) -> Inst {
    Inst::new(Opcode::FMove, vec![], vec![], None).with_name(name)
}

/// Figure 1: L0 → L1 → X4 with X0..X3 independent.
fn figure1() -> (BasicBlock, CodeDag) {
    let block = BasicBlock::new(
        "fig1",
        vec![
            load("L0"),
            load("L1"),
            x("X0"),
            x("X1"),
            x("X2"),
            x("X3"),
            x("X4"),
        ],
    );
    let mut dag = CodeDag::new(&block);
    dag.add_edge(InstId::new(0), InstId::new(1), DepKind::True);
    dag.add_edge(InstId::new(1), InstId::new(6), DepKind::True);
    (block, dag)
}

/// Figure 4: L0 and L1 independent, X4 consumes both, X0..X3 independent.
fn figure4() -> (BasicBlock, CodeDag) {
    let block = BasicBlock::new(
        "fig4",
        vec![
            load("L0"),
            load("L1"),
            x("X0"),
            x("X1"),
            x("X2"),
            x("X3"),
            x("X4"),
        ],
    );
    let mut dag = CodeDag::new(&block);
    dag.add_edge(InstId::new(0), InstId::new(6), DepKind::True);
    dag.add_edge(InstId::new(1), InstId::new(6), DepKind::True);
    (block, dag)
}

fn show_schedule(block: &BasicBlock, dag: &CodeDag, title: &str, assigner: &dyn WeightAssigner) {
    let sched = ListScheduler::new()
        .with_direction(Direction::TopDown)
        .run(dag, assigner);
    let names: Vec<_> = sched.order().iter().map(|&i| block.label(i)).collect();
    println!("  {title:<18} {}", names.join(" "));
}

fn main() {
    let (fig1_block, fig1) = figure1();
    println!(
        "Figure 1 code DAG (Graphviz):\n{}",
        to_dot(&fig1, &fig1_block, "figure1")
    );

    // §3: weights on Figure 1 are 1 + 4/2 = 3 per load.
    let w = BalancedWeights::new().assign(&fig1);
    println!(
        "Balanced weights: L0 = {}, L1 = {}\n",
        w.weight(InstId::new(0)),
        w.weight(InstId::new(1))
    );

    println!("Figure 2 schedules (top-down, as illustrated in the paper):");
    show_schedule(
        &fig1_block,
        &fig1,
        "greedy (w=5):",
        &TraditionalWeights::new(Ratio::from_int(5)),
    );
    show_schedule(
        &fig1_block,
        &fig1,
        "lazy (w=1):",
        &TraditionalWeights::new(Ratio::ONE),
    );
    show_schedule(
        &fig1_block,
        &fig1,
        "balanced (w=3):",
        &BalancedWeights::new(),
    );

    // Figure 3: interlocks vs actual latency. We reuse the bench binary's
    // logic in miniature: schedule shapes are fixed, only latency varies.
    println!("\nFigure 3 (interlocks by actual latency) lives in:");
    println!("  cargo run --release -p bsched-bench --bin figure3");

    // Figure 4/5: independent loads share their padding set.
    let (fig4_block, fig4) = figure4();
    let w4 = BalancedWeights::new().assign(&fig4);
    println!(
        "\nFigure 4 weights (parallel loads share the pad set): L0 = {}, L1 = {}",
        w4.weight(InstId::new(0)),
        w4.weight(InstId::new(1))
    );
    let sched = ListScheduler::new()
        .with_direction(Direction::TopDown)
        .run(&fig4, &BalancedWeights::new());
    let names: Vec<_> = sched.order().iter().map(|&i| fig4_block.label(i)).collect();
    println!("Figure 5 schedule: {}", names.join(" "));
}
