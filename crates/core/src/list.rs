//! The shared list scheduler (§4.1).
//!
//! Both the balanced and traditional schedulers in the paper use the same
//! list scheduler; they differ only in the weights fed to it. The paper's
//! configuration, all reproduced here:
//!
//! * instructions enter the ready list only once every already-scheduled
//!   neighbour has **exhausted its expected latency** (delayed ready
//!   insertion); when the ready list starves, **virtual no-ops** are
//!   emitted and later removed;
//! * priority = own weight + maximum priority among DAG successors;
//! * ties break by (1) largest `uses − defs` difference (register
//!   pressure), (2) most newly exposed instructions, (3) earliest
//!   generated;
//! * scheduling is **bottom-up** — from the leaves of the DAG toward the
//!   roots, emitting the schedule in reverse. A top-down mode is also
//!   provided: it reproduces the paper's §2 illustrations (Figure 2)
//!   exactly and serves as an ablation.

use bsched_dag::{CodeDag, DepKind};
use bsched_ir::InstId;

use crate::ratio::Ratio;
use crate::schedule::Schedule;
use crate::ties::{TieBreak, TieBreakChain, TiePrefer};
use crate::weights::{Rounding, WeightAssigner, Weights};

/// Scheduling direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Direction {
    /// From the leaves toward the roots (the paper's production setup).
    #[default]
    BottomUp,
    /// From the roots toward the leaves (used by the paper's §2
    /// illustrations; kept for Figure 2/3 reproduction and ablation).
    TopDown,
}

/// The list scheduler.
///
/// # Example
///
/// ```
/// use bsched_core::{BalancedWeights, ListScheduler};
/// use bsched_dag::{build_dag, AliasModel};
/// use bsched_ir::BlockBuilder;
///
/// let mut b = BlockBuilder::new("ex");
/// let base = b.def_int("base");
/// let x = b.load("x", base, 0);
/// let y = b.load("y", base, 8);
/// let _ = b.fadd("s", x, y);
/// let block = b.finish();
/// let dag = build_dag(&block, AliasModel::Fortran);
/// let schedule = ListScheduler::new().run(&dag, &BalancedWeights::new());
/// assert!(schedule.verify(&dag).is_ok());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ListScheduler {
    direction: Direction,
    rounding: Rounding,
    ties: TieBreakChain,
}

impl ListScheduler {
    /// A bottom-up scheduler with nearest-integer weight rounding.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the scheduling direction.
    #[must_use]
    pub fn with_direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Sets how fractional weights become integer latencies.
    #[must_use]
    pub fn with_rounding(mut self, rounding: Rounding) -> Self {
        self.rounding = rounding;
        self
    }

    /// Sets the ready-list tie-break chain. The default chain is the
    /// paper's order and schedules bit-identically to the unparameterized
    /// implementation; generation order always remains the final
    /// fallback, so every chain selects deterministically.
    #[must_use]
    pub fn with_tie_breaks(mut self, ties: TieBreakChain) -> Self {
        self.ties = ties;
        self
    }

    /// Assigns weights with `assigner` and schedules `dag`.
    #[must_use]
    pub fn run(&self, dag: &CodeDag, assigner: &dyn WeightAssigner) -> Schedule {
        self.run_with_weights(dag, &assigner.assign(dag))
    }

    /// Schedules `dag` under precomputed `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `weights` does not cover every DAG node.
    #[must_use]
    pub fn run_with_weights(&self, dag: &CodeDag, weights: &Weights) -> Schedule {
        assert_eq!(weights.len(), dag.len(), "weights must cover the dag");
        let n = dag.len();
        if n == 0 {
            return Schedule::new(Vec::new(), Vec::new(), 0);
        }

        let latency: Vec<u64> = dag
            .node_ids()
            .map(|i| u64::from(weights.latency(i, self.rounding)))
            .collect();
        let priority = compute_priorities(dag, weights);
        // Slack and load density are whole-DAG analyses; compute them
        // only when the configured chain actually consults them, so the
        // default (paper) chain does no extra work.
        let aux = TieAux::for_chain(dag, &self.ties);

        // Direction-neutral terminology: we schedule against the *ahead*
        // relation — successors for bottom-up (they sit later in the block
        // and are placed first), predecessors for top-down.
        let ahead = |i: InstId| -> &[(InstId, DepKind)] {
            match self.direction {
                Direction::BottomUp => dag.succs(i),
                Direction::TopDown => dag.preds(i),
            }
        };
        let behind = |i: InstId| -> &[(InstId, DepKind)] {
            match self.direction {
                Direction::BottomUp => dag.preds(i),
                Direction::TopDown => dag.succs(i),
            }
        };
        // Delay a scheduled node imposes on its `behind` neighbours: for a
        // true dependence the producer's latency must elapse between the
        // pair in forward time (whichever end was placed first); other
        // dependences only need ordering.
        let gap = |edge_kind: DepKind, producer: InstId| -> u64 {
            if edge_kind.carries_latency() {
                latency[producer.index()]
            } else {
                1
            }
        };

        let mut remaining: Vec<usize> = dag.node_ids().map(|i| ahead(i).len()).collect();
        let mut ready_time = vec![0u64; n];
        let mut pending: Vec<InstId> = dag
            .node_ids()
            .filter(|&i| remaining[i.index()] == 0)
            .collect();
        let mut scheduled_at = vec![u64::MAX; n];
        let mut emitted = 0usize;
        let mut slot: u64 = 0;
        let mut vnops: u32 = 0;

        while emitted < n {
            // Pick the best ready instruction at this slot.
            let choice = pending
                .iter()
                .copied()
                .filter(|&i| ready_time[i.index()] <= slot)
                .max_by(|&a, &b| self.compare(dag, &priority, &remaining, &aux, a, b));
            match choice {
                Some(best) => {
                    pending.retain(|&i| i != best);
                    scheduled_at[best.index()] = slot;
                    emitted += 1;
                    // Release `behind` neighbours.
                    for &(nb, kind) in behind(best) {
                        let producer = match self.direction {
                            Direction::BottomUp => nb,  // nb is the DAG predecessor
                            Direction::TopDown => best, // best is the DAG predecessor
                        };
                        let t = slot + gap(kind, producer);
                        if t > ready_time[nb.index()] {
                            ready_time[nb.index()] = t;
                        }
                        remaining[nb.index()] -= 1;
                        if remaining[nb.index()] == 0 {
                            pending.push(nb);
                        }
                    }
                }
                None => {
                    // Ready-list starvation: emit a virtual no-op.
                    vnops += 1;
                }
            }
            slot += 1;
        }

        // Convert to forward slots.
        let total = slot;
        let mut items: Vec<(u64, InstId)> = dag
            .node_ids()
            .map(|i| {
                let s = scheduled_at[i.index()];
                let fwd = match self.direction {
                    Direction::BottomUp => total - 1 - s,
                    Direction::TopDown => s,
                };
                (fwd, i)
            })
            .collect();
        items.sort_unstable();
        let order: Vec<InstId> = items.iter().map(|&(_, i)| i).collect();
        let slots: Vec<u32> = items
            .iter()
            .map(|&(s, _)| u32::try_from(s).expect("schedule length exceeds u32"))
            .collect();
        Schedule::new(order, slots, vnops)
    }

    /// Selection order: priority, then the configured tie-break chain
    /// (the paper's three-key order by default), then — always —
    /// earliest generated, so selection is total and deterministic.
    fn compare(
        &self,
        dag: &CodeDag,
        priority: &[Ratio],
        remaining: &[usize],
        aux: &TieAux,
        a: InstId,
        b: InstId,
    ) -> std::cmp::Ordering {
        let mut ord = priority[a.index()].cmp(&priority[b.index()]);
        for &(key, prefer) in self.ties.keys() {
            if ord != std::cmp::Ordering::Equal {
                break;
            }
            let ascending = match key {
                TieBreak::PressureDelta => dag.pressure_delta(a).cmp(&dag.pressure_delta(b)),
                TieBreak::ExposedCount => exposed_count(dag, remaining, a, self.direction)
                    .cmp(&exposed_count(dag, remaining, b, self.direction)),
                TieBreak::Slack => aux.slack[a.index()].cmp(&aux.slack[b.index()]),
                TieBreak::LoadDensity => aux.loads[a.index()].cmp(&aux.loads[b.index()]),
                TieBreak::SourceOrder => a.cmp(&b),
            };
            ord = match prefer {
                TiePrefer::High => ascending,
                TiePrefer::Low => ascending.reverse(),
            };
        }
        // Earliest generated, unconditionally, as the final fallback.
        ord.then_with(|| b.cmp(&a))
    }
}

/// Per-node key values for the tie-break chain, computed once per run
/// and only for the keys the chain names.
struct TieAux {
    slack: Vec<u32>,
    loads: Vec<u32>,
}

impl TieAux {
    fn for_chain(dag: &CodeDag, ties: &TieBreakChain) -> Self {
        Self {
            slack: if ties.uses(TieBreak::Slack) {
                bsched_dag::slack(dag)
            } else {
                Vec::new()
            },
            loads: if ties.uses(TieBreak::LoadDensity) {
                bsched_dag::load_levels(dag)
            } else {
                Vec::new()
            },
        }
    }
}

/// Priority = weight + max successor priority (§4.1), computed in exact
/// arithmetic over the DAG in reverse program order (ids increase along
/// every edge, so decreasing id is a reverse topological order).
#[must_use]
pub fn compute_priorities(dag: &CodeDag, weights: &Weights) -> Vec<Ratio> {
    let n = dag.len();
    let mut priority = vec![Ratio::ZERO; n];
    for v in (0..n).rev() {
        let id = InstId::from_usize(v);
        let succ_max = dag
            .succs(id)
            .iter()
            .map(|&(s, _)| priority[s.index()])
            .max()
            .unwrap_or(Ratio::ZERO);
        priority[v] = weights.weight(id) + succ_max;
    }
    priority
}

/// How many neighbours of `i` would become schedulable if `i` were picked
/// now: those with exactly one unscheduled `ahead` dependence (which must
/// be `i` itself, since `i` is ready).
fn exposed_count(dag: &CodeDag, remaining: &[usize], i: InstId, direction: Direction) -> usize {
    let behind: &[(InstId, DepKind)] = match direction {
        Direction::BottomUp => dag.preds(i),
        Direction::TopDown => dag.succs(i),
    };
    behind
        .iter()
        .filter(|&&(nb, _)| remaining[nb.index()] == 1)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balanced::BalancedWeights;
    use crate::traditional::TraditionalWeights;
    use bsched_dag::{build_dag, AliasModel};
    use bsched_ir::{BasicBlock, BlockBuilder, Inst, MemAccess, MemLoc, Opcode, RegionId};

    fn id(i: u32) -> InstId {
        InstId::new(i)
    }

    /// The Figure 1 DAG laid out in the paper's generation order:
    /// 0:L0 1:L1 2:X0 3:X1 4:X2 5:X3 6:X4, edges L0→L1→X4.
    fn figure1_dag() -> CodeDag {
        let mk_load = |name: &str| {
            Inst::new(
                Opcode::Ldc1,
                vec![],
                vec![],
                Some(MemAccess::read(MemLoc::known(RegionId::new(0), 0))),
            )
            .with_name(name)
        };
        let mk_x = |name: &str| Inst::new(Opcode::FMove, vec![], vec![], None).with_name(name);
        let block = BasicBlock::new(
            "fig1",
            vec![
                mk_load("L0"),
                mk_load("L1"),
                mk_x("X0"),
                mk_x("X1"),
                mk_x("X2"),
                mk_x("X3"),
                mk_x("X4"),
            ],
        );
        let mut dag = CodeDag::new(&block);
        dag.add_edge(id(0), id(1), DepKind::True);
        dag.add_edge(id(1), id(6), DepKind::True);
        dag
    }

    fn names(dag: &CodeDag, schedule: &Schedule) -> Vec<String> {
        schedule
            .order()
            .iter()
            .map(|&i| dag.name(i).to_string())
            .collect()
    }

    #[test]
    fn figure2a_greedy_traditional_w5_top_down() {
        let dag = figure1_dag();
        let sched = ListScheduler::new()
            .with_direction(Direction::TopDown)
            .run(&dag, &TraditionalWeights::new(Ratio::from_int(5)));
        assert_eq!(
            names(&dag, &sched),
            ["L0", "X0", "X1", "X2", "X3", "L1", "X4"]
        );
        assert!(sched.verify(&dag).is_ok());
        // X4 had to wait for L1's 5-cycle latency: 4 virtual no-ops.
        assert_eq!(sched.vnop_count(), 4);
    }

    #[test]
    fn figure2b_lazy_traditional_w1_top_down() {
        let dag = figure1_dag();
        let sched = ListScheduler::new()
            .with_direction(Direction::TopDown)
            .run(&dag, &TraditionalWeights::new(Ratio::ONE));
        assert_eq!(
            names(&dag, &sched),
            ["L0", "L1", "X0", "X1", "X2", "X3", "X4"]
        );
        assert_eq!(sched.vnop_count(), 0);
    }

    #[test]
    fn figure2c_balanced_top_down() {
        let dag = figure1_dag();
        let sched = ListScheduler::new()
            .with_direction(Direction::TopDown)
            .run(&dag, &BalancedWeights::new());
        assert_eq!(
            names(&dag, &sched),
            ["L0", "X0", "X1", "L1", "X2", "X3", "X4"]
        );
        assert_eq!(
            sched.vnop_count(),
            0,
            "weight 3 exactly fits the parallelism"
        );
    }

    #[test]
    fn bottom_up_balanced_has_figure2c_shape() {
        // Bottom-up emits a schedule with the same structure: each load
        // followed by two independent instructions before its use.
        let dag = figure1_dag();
        let sched = ListScheduler::new().run(&dag, &BalancedWeights::new());
        let order = names(&dag, &sched);
        assert!(sched.verify(&dag).is_ok());
        assert_eq!(sched.vnop_count(), 0);
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert_eq!(pos("L0"), 0, "L0 first");
        assert_eq!(pos("L1") - pos("L0"), 3, "two pads after L0");
        assert_eq!(pos("X4") - pos("L1"), 3, "two pads after L1");
    }

    #[test]
    fn empty_dag_schedules_empty() {
        let block = BasicBlock::new("e", vec![]);
        let dag = CodeDag::new(&block);
        let sched = ListScheduler::new().run(&dag, &BalancedWeights::new());
        assert!(sched.is_empty());
        assert_eq!(sched.slot_count(), 0);
    }

    #[test]
    fn single_instruction() {
        let mut b = BlockBuilder::new("one");
        let _ = b.def_int("x");
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        let sched = ListScheduler::new().run(&dag, &BalancedWeights::new());
        assert_eq!(sched.order(), &[id(0)]);
        assert_eq!(sched.slot_count(), 1);
    }

    #[test]
    fn both_directions_verify_on_random_blocks() {
        for seed in 0..10u32 {
            let mut b = BlockBuilder::new("r");
            let region = b.fresh_region();
            let base = b.def_int("base");
            let mut vals = Vec::new();
            for k in 0..12 {
                let v = b.load_region("l", region, base, Some(8 * (k + i64::from(seed))));
                vals.push(v);
            }
            let mut acc = vals[0];
            for (k, &v) in vals.iter().enumerate().skip(1) {
                if (k as u32 + seed).is_multiple_of(3) {
                    acc = b.fadd("a", acc, v);
                } else {
                    let _ = b.fmul("m", v, v);
                }
            }
            b.store_region(region, acc, base, Some(1000));
            let dag = build_dag(&b.finish(), AliasModel::Fortran);
            for direction in [Direction::BottomUp, Direction::TopDown] {
                for assigner in [
                    &BalancedWeights::new() as &dyn WeightAssigner,
                    &TraditionalWeights::new(Ratio::from_int(2)),
                ] {
                    let sched = ListScheduler::new()
                        .with_direction(direction)
                        .run(&dag, assigner);
                    assert!(sched.verify(&dag).is_ok(), "seed {seed} {direction:?}");
                }
            }
        }
    }

    #[test]
    fn priorities_are_longest_weighted_paths() {
        let dag = figure1_dag();
        let w = TraditionalWeights::new(Ratio::from_int(5)).assign(&dag);
        let p = compute_priorities(&dag, &w);
        assert_eq!(p[6], Ratio::ONE, "X4 leaf");
        assert_eq!(p[1], Ratio::from_int(6), "L1 = 5 + 1");
        assert_eq!(p[0], Ratio::from_int(11), "L0 = 5 + 6");
        assert_eq!(p[2], Ratio::ONE, "X0 isolated");
    }

    #[test]
    fn rounding_mode_changes_latencies() {
        // A weight of 2.5 schedules as 3 (nearest) vs 2 (floor): the gap
        // between a load and its consumer shrinks under floor.
        let dag = figure1_dag();
        let w = TraditionalWeights::new(Ratio::new(5, 2));
        let near = ListScheduler::new()
            .with_direction(Direction::TopDown)
            .run(&dag, &w);
        let floor = ListScheduler::new()
            .with_direction(Direction::TopDown)
            .with_rounding(Rounding::Floor)
            .run(&dag, &w);
        let gap = |s: &Schedule| {
            let p0 = s.position(id(0)).unwrap();
            let p1 = s.position(id(1)).unwrap();
            s.slots()[p1] - s.slots()[p0]
        };
        assert_eq!(gap(&near), 3);
        assert_eq!(gap(&floor), 2);
    }

    #[test]
    fn anti_edges_do_not_impose_latency() {
        // 0 -anti-> 1: they may be adjacent even with huge weights.
        let mk = |name: &str| Inst::new(Opcode::FMove, vec![], vec![], None).with_name(name);
        let block = BasicBlock::new("t", vec![mk("a"), mk("b")]);
        let mut dag = CodeDag::new(&block);
        dag.add_edge(id(0), id(1), DepKind::Anti);
        let sched = ListScheduler::new().run(&dag, &TraditionalWeights::new(Ratio::from_int(30)));
        assert_eq!(sched.vnop_count(), 0);
        assert_eq!(sched.slot_count(), 2);
        assert_eq!(sched.order(), &[id(0), id(1)]);
    }

    #[test]
    fn explicit_default_chain_is_bit_identical_to_implicit() {
        use crate::ties::TieBreakChain;
        for seed in 0..6u32 {
            let mut b = BlockBuilder::new("chain-parity");
            let region = b.fresh_region();
            let base = b.def_int("base");
            let mut vals = Vec::new();
            for k in 0..10 {
                vals.push(b.load_region("l", region, base, Some(8 * (k + i64::from(seed)))));
            }
            let mut acc = vals[0];
            for &v in &vals[1..] {
                acc = b.fadd("a", acc, v);
            }
            b.store_region(region, acc, base, Some(900));
            let dag = build_dag(&b.finish(), AliasModel::Fortran);
            for direction in [Direction::BottomUp, Direction::TopDown] {
                let implicit = ListScheduler::new()
                    .with_direction(direction)
                    .run(&dag, &BalancedWeights::new());
                let explicit = ListScheduler::new()
                    .with_direction(direction)
                    .with_tie_breaks(TieBreakChain::default())
                    .run(&dag, &BalancedWeights::new());
                assert_eq!(implicit.order(), explicit.order(), "seed {seed}");
                assert_eq!(implicit.slots(), explicit.slots(), "seed {seed}");
            }
        }
    }

    #[test]
    fn every_tie_break_chain_schedules_validly() {
        use crate::ties::TieBreakChain;
        let mut b = BlockBuilder::new("chains");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let mut vals = Vec::new();
        for k in 0..8 {
            vals.push(b.load_region("l", region, base, Some(8 * k)));
        }
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.fadd("a", acc, v);
        }
        b.store_region(region, acc, base, Some(640));
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        for spec in [
            "",
            "slack-",
            "slack+,pressure+",
            "density+,exposed+",
            "source-",
            "pressure+,exposed+,slack-,density+,source-",
        ] {
            let chain = TieBreakChain::parse(spec).expect(spec);
            let sched = ListScheduler::new()
                .with_tie_breaks(chain)
                .run(&dag, &BalancedWeights::new());
            assert!(sched.verify(&dag).is_ok(), "chain {spec:?}");
            // Determinism: the same chain picks the same schedule again.
            let again = ListScheduler::new()
                .with_tie_breaks(chain)
                .run(&dag, &BalancedWeights::new());
            assert_eq!(sched.order(), again.order(), "chain {spec:?}");
        }
    }

    #[test]
    fn schedule_covers_all_even_under_starvation() {
        // Long chain with large weights: lots of vnops, still complete.
        let mut b = BlockBuilder::new("chain");
        let base = b.def_int("base");
        let mut cur = b.load("l0", base, 0);
        for _ in 0..5 {
            cur = b.fadd("a", cur, cur);
        }
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        let sched = ListScheduler::new().run(&dag, &TraditionalWeights::new(Ratio::from_int(10)));
        assert!(sched.verify(&dag).is_ok());
        assert!(sched.vnop_count() >= 9, "load latency forces starvation");
    }
}
