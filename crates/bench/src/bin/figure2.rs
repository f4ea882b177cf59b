//! Figure 2: the three example schedules of the Figure 1 DAG — greedy
//! traditional (w = 5), lazy traditional (w = 1), and balanced (w = 3).
//!
//! Uses the top-down scheduler, which reproduces the paper's
//! illustration letter for letter.
//!
//! Usage: `cargo run --release -p bsched-bench --bin figure2`

use bsched_bench::print_table;
use bsched_core::{
    BalancedWeights, Direction, ListScheduler, Ratio, TraditionalWeights, WeightAssigner,
};
use bsched_dag::{CodeDag, DepKind};
use bsched_ir::{BasicBlock, Inst, InstId, MemAccess, MemLoc, Opcode, RegionId};

/// Builds the Figure 1 DAG: `L0 → L1 → X4`, with `X0..X3` independent.
fn figure1_dag() -> (BasicBlock, CodeDag) {
    let load = |name: &str| {
        Inst::new(
            Opcode::Ldc1,
            vec![],
            vec![],
            Some(MemAccess::read(MemLoc::known(RegionId::new(0), 0))),
        )
        .with_name(name)
    };
    let x = |name: &str| Inst::new(Opcode::FMove, vec![], vec![], None).with_name(name);
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

fn schedule_names(block: &BasicBlock, dag: &CodeDag, assigner: &dyn WeightAssigner) -> Vec<String> {
    let sched = ListScheduler::new()
        .with_direction(Direction::TopDown)
        .run(dag, assigner);
    sched
        .order()
        .iter()
        .map(|&i| block.label(i).into_owned())
        .collect()
}

fn main() {
    bsched_pipeline::check_environment();
    let (block, dag) = figure1_dag();
    let greedy = schedule_names(&block, &dag, &TraditionalWeights::new(Ratio::from_int(5)));
    let lazy = schedule_names(&block, &dag, &TraditionalWeights::new(Ratio::ONE));
    let balanced = schedule_names(&block, &dag, &BalancedWeights::new());

    let header: Vec<String> = ["slot", "Traditional W=5", "Traditional W=1", "Balanced"]
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    let rows: Vec<Vec<String>> = (0..greedy.len())
        .map(|i| {
            vec![
                i.to_string(),
                greedy[i].clone(),
                lazy[i].clone(),
                balanced[i].clone(),
            ]
        })
        .collect();
    print_table(
        "Figure 2: schedules generated from the Figure 1 code DAG",
        &header,
        &rows,
    );
}
