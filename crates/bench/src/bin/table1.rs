//! Table 1 / Figure 7: the balanced weight computation on the paper's
//! worked example — the per-instruction contribution matrix and the
//! final exact-rational weight of each load.
//!
//! Usage: `cargo run --release -p bsched-bench --bin table1`

use bsched_bench::print_table;
use bsched_core::{BalancedWeights, Ratio, WeightAssigner};
use bsched_dag::{chances_exact, connected_components, Closures, CodeDag, DepKind};
use bsched_ir::{BasicBlock, Inst, InstId, MemAccess, MemLoc, Opcode, RegionId};

/// Reconstruction of the Figure 7 DAG (see `bsched-core`'s tests and
/// EXPERIMENTS.md). Program order:
/// `0:L2 1:L3 2:L4 3:L5 4:L6 5:X1 6:X2 7:X3 8:X4 9:L1`.
fn figure7_dag() -> (BasicBlock, CodeDag) {
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
        "fig7",
        vec![
            load("L2"),
            load("L3"),
            load("L4"),
            load("L5"),
            load("L6"),
            x("X1"),
            x("X2"),
            x("X3"),
            x("X4"),
            load("L1"),
        ],
    );
    let mut dag = CodeDag::new(&block);
    for (a, b) in [
        (0, 1),
        (0, 5),
        (0, 6),
        (1, 2),
        (1, 3),
        (3, 4),
        (6, 7),
        (7, 8),
    ] {
        dag.add_edge(InstId::new(a), InstId::new(b), DepKind::True);
    }
    (block, dag)
}

fn main() {
    let (block, dag) = figure7_dag();
    let loads = dag.load_ids();
    let closures = Closures::compute(&dag);

    // Contribution matrix: contribution[load][donor].
    let mut header = vec!["Load".to_owned()];
    header.extend(dag.node_ids().map(|i| block.label(i).into_owned()));
    header.push("Weight".to_owned());

    let weights = BalancedWeights::new().assign(&dag);
    let mut rows = Vec::new();
    for &l in &loads {
        let mut contribution = vec![Ratio::ZERO; dag.len()];
        for donor in dag.node_ids() {
            let keep = closures.independent_of(donor);
            for component in connected_components(&dag, &keep) {
                if !component.contains(&l) {
                    continue;
                }
                let chances = chances_exact(&dag, &component);
                if chances > 0 {
                    contribution[donor.index()] = Ratio::new(1, i64::from(chances));
                }
            }
        }
        let mut cells = vec![block.label(l).into_owned()];
        cells.extend(contribution.iter().map(|c| {
            if *c == Ratio::ZERO {
                "0".to_owned()
            } else {
                c.to_string()
            }
        }));
        cells.push(weights.weight(l).to_string());
        rows.push(cells);
    }
    print_table(
        "Table 1: balanced weight contributions for the Figure 7 code DAG",
        &header,
        &rows,
    );
    println!("\nNarrative checks (§3): X1 contributes 1 to L1 and 1/3 to L3..L6;");
    println!("L1's weight is 10 (= 1 + one issue slot from each other instruction);");
    println!("L2's weight is 1 1/4 (only L1 contributes, Chances = 4).");
}
