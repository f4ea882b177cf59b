//! The code DAG data structure.

use std::fmt;

use bsched_ir::{BasicBlock, InstId, Opcode};

/// Kind of dependence edge between two instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write through a register: the successor consumes a value
    /// the predecessor produces. Only true dependences carry the
    /// predecessor's latency/weight.
    True,
    /// Write-after-read through a register (anti-dependence). Introduced by
    /// register reuse; absent when scheduling over virtual registers.
    Anti,
    /// Write-after-write through a register (output dependence).
    Output,
    /// Ordering between conflicting memory accesses (store→load,
    /// load→store, store→store) under the active alias model.
    Memory,
}

impl DepKind {
    /// `true` for dependences that carry the producer's result latency.
    #[must_use]
    pub fn carries_latency(self) -> bool {
        matches!(self, DepKind::True)
    }
}

impl fmt::Display for DepKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DepKind::True => "true",
            DepKind::Anti => "anti",
            DepKind::Output => "output",
            DepKind::Memory => "memory",
        };
        f.write_str(s)
    }
}

/// A directed dependence edge `from → to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// The predecessor instruction.
    pub from: InstId,
    /// The successor instruction.
    pub to: InstId,
    /// Why the successor must follow the predecessor.
    pub kind: DepKind,
}

/// Per-node facts copied from the block at construction.
#[derive(Debug, Clone, Copy)]
struct Node {
    opcode: Opcode,
    /// Mirrors the opcode's classification unless
    /// [`CodeDag::mark_load_like`] set it.
    is_load: bool,
    /// `uses − defs`, the paper's first tie-break (§4.1); the opcode
    /// arity table bounds it to a few registers.
    pressure_delta: i8,
}

/// The code DAG of one basic block.
///
/// Nodes are the block's instruction ids (`0..len`); edges always point
/// from earlier to later program positions, so the graph is acyclic by
/// construction. Multiple dependences between the same pair are collapsed
/// to the strongest ([`DepKind::True`] wins, since only it carries
/// latency).
///
/// Edges are stored in compressed sparse row form: one array holds every
/// node's successors, then every node's predecessors, and per-node
/// offsets in each direction slice it. Node names stay with the block
/// ([`BasicBlock::label`]).
#[derive(Debug, Clone)]
pub struct CodeDag {
    nodes: Vec<Node>,
    /// `adj[succ_at[i]..succ_at[i + 1]]` lists node `i`'s (successor,
    /// kind) pairs.
    succ_at: Vec<u32>,
    /// `adj[pred_at[i]..pred_at[i + 1]]` lists node `i`'s (predecessor,
    /// kind) pairs; every offset is at least the edge count.
    pred_at: Vec<u32>,
    adj: Vec<(InstId, DepKind)>,
}

impl CodeDag {
    /// Creates an edgeless DAG over the instructions of `block`.
    #[must_use]
    pub fn new(block: &BasicBlock) -> Self {
        let nodes = block
            .insts()
            .iter()
            .map(|i| Node {
                opcode: i.opcode(),
                is_load: i.is_load(),
                pressure_delta: i8::try_from(i.pressure_delta())
                    .expect("operand arity bounds the pressure delta"),
            })
            .collect();
        Self {
            nodes,
            succ_at: vec![0; block.len() + 1],
            pred_at: vec![0; block.len() + 1],
            adj: Vec::new(),
        }
    }

    /// The DAG of `block` with `edges`, each pair listed once, in the
    /// order each node's successor and predecessor lists keep them.
    pub(crate) fn with_edges(block: &BasicBlock, edges: &[Edge]) -> Self {
        let mut dag = Self::new(block);
        let count = u32::try_from(edges.len()).expect("edge count exceeds u32");
        dag.adj = vec![(InstId::new(0), DepKind::True); 2 * edges.len()];
        fill_rows(&mut dag.succ_at, &mut dag.adj, 0, edges, |e| (e.from, e.to));
        fill_rows(&mut dag.pred_at, &mut dag.adj, count, edges, |e| {
            (e.to, e.from)
        });
        dag
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the DAG has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of (collapsed) edges.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.adj.len() / 2
    }

    fn succ_range(&self, i: usize) -> std::ops::Range<usize> {
        self.succ_at[i] as usize..self.succ_at[i + 1] as usize
    }

    fn pred_range(&self, i: usize) -> std::ops::Range<usize> {
        self.pred_at[i] as usize..self.pred_at[i + 1] as usize
    }

    /// Adds a dependence `from → to` of the given kind, for DAGs built by
    /// hand; [`build_dag`](crate::build_dag) lays out all its edges at
    /// once. Each call moves the edges stored after the new one.
    ///
    /// If an edge already exists between the pair, the kinds are merged:
    /// a [`DepKind::True`] edge subsumes any other kind.
    ///
    /// # Panics
    ///
    /// Panics if `from >= to` (edges must respect program order, which is
    /// what guarantees acyclicity) or either id is out of range.
    pub fn add_edge(&mut self, from: InstId, to: InstId, kind: DepKind) {
        assert!(
            from.index() < self.len() && to.index() < self.len(),
            "node out of range"
        );
        assert!(
            from < to,
            "edges must go forward in program order ({from} -> {to})"
        );
        let (f, t) = (from.index(), to.index());
        let succs = self.succ_range(f);
        if let Some(k) = self.adj[succs.clone()].iter().position(|(x, _)| *x == to) {
            if kind == DepKind::True && self.adj[succs.start + k].1 != DepKind::True {
                self.adj[succs.start + k].1 = DepKind::True;
                let preds = self.pred_range(t);
                let back = self.adj[preds]
                    .iter_mut()
                    .find(|(x, _)| *x == from)
                    .expect("adjacency lists out of sync");
                back.1 = DepKind::True;
            }
            return;
        }
        self.adj.insert(succs.end, (to, kind));
        for at in &mut self.succ_at[f + 1..] {
            *at += 1;
        }
        for at in &mut self.pred_at {
            *at += 1;
        }
        self.adj.insert(self.pred_at[t + 1] as usize, (from, kind));
        for at in &mut self.pred_at[t + 1..] {
            *at += 1;
        }
    }

    /// `true` if an edge `from → to` exists (any kind).
    #[must_use]
    pub fn has_edge(&self, from: InstId, to: InstId) -> bool {
        from.index() < self.len() && self.succs(from).iter().any(|(t, _)| *t == to)
    }

    /// The kind of the edge `from → to`, if present.
    #[must_use]
    pub fn edge_kind(&self, from: InstId, to: InstId) -> Option<DepKind> {
        self.succs(from)
            .iter()
            .find(|(t, _)| *t == to)
            .map(|(_, k)| *k)
    }

    /// Direct successors of `id` with edge kinds.
    #[must_use]
    pub fn succs(&self, id: InstId) -> &[(InstId, DepKind)] {
        &self.adj[self.succ_range(id.index())]
    }

    /// Direct predecessors of `id` with edge kinds.
    #[must_use]
    pub fn preds(&self, id: InstId) -> &[(InstId, DepKind)] {
        &self.adj[self.pred_range(id.index())]
    }

    /// `true` if instruction `id` is a load.
    #[must_use]
    pub fn is_load(&self, id: InstId) -> bool {
        self.nodes[id.index()].is_load
    }

    /// Ids of all load nodes.
    #[must_use]
    pub fn load_ids(&self) -> Vec<InstId> {
        self.node_ids().filter(|&id| self.is_load(id)).collect()
    }

    /// The instruction's `uses − defs` register-count difference, copied
    /// from the block at construction (the paper's first ready-list
    /// tie-break, §4.1).
    #[must_use]
    pub fn pressure_delta(&self, id: InstId) -> i64 {
        i64::from(self.nodes[id.index()].pressure_delta)
    }

    /// The instruction's opcode.
    #[must_use]
    pub fn opcode(&self, id: InstId) -> Opcode {
        self.nodes[id.index()].opcode
    }

    /// Reclassifies a non-load node as load-like for weighting purposes.
    ///
    /// §6 suggests extending balanced scheduling to other multi-cycle
    /// instructions (asynchronous FP units); marking an FP operation
    /// load-like makes the weight assigners treat its latency as
    /// uncertain. The simulator keys off real opcodes, not this flag.
    pub fn mark_load_like(&mut self, id: InstId) {
        self.nodes[id.index()].is_load = true;
    }

    /// Iterates all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = InstId> {
        (0..self.len()).map(InstId::from_usize)
    }

    /// Iterates every edge, by source node and then in each node's
    /// successor order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.node_ids().flat_map(move |from| {
            self.succs(from)
                .iter()
                .map(move |&(to, kind)| Edge { from, to, kind })
        })
    }

    /// Roots: nodes with no predecessors.
    #[must_use]
    pub fn roots(&self) -> Vec<InstId> {
        self.node_ids()
            .filter(|id| self.preds(*id).is_empty())
            .collect()
    }

    /// Leaves: nodes with no successors.
    #[must_use]
    pub fn leaves(&self) -> Vec<InstId> {
        self.node_ids()
            .filter(|id| self.succs(*id).is_empty())
            .collect()
    }
}

/// Lays `edges` out as rows of `adj` starting at `base`, one row per
/// `row_of(edge).0` and in `edges` order within a row (a stable counting
/// sort), and writes the row offsets to `at`.
fn fill_rows(
    at: &mut [u32],
    adj: &mut [(InstId, DepKind)],
    base: u32,
    edges: &[Edge],
    row_of: impl Fn(&Edge) -> (InstId, InstId),
) {
    for e in edges {
        at[row_of(e).0.index() + 1] += 1;
    }
    at[0] = base;
    for i in 1..at.len() {
        at[i] += at[i - 1];
    }
    // `at[r]` is row r's write cursor; once every edge is placed it has
    // reached row r + 1's start, and shifting by one restores the starts.
    for e in edges {
        let (row, other) = row_of(e);
        let slot = &mut at[row.index()];
        adj[*slot as usize] = (other, e.kind);
        *slot += 1;
    }
    at.copy_within(..at.len() - 1, 1);
    at[0] = base;
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::BlockBuilder;

    fn three_node_dag() -> CodeDag {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let x = b.load("x", base, 0);
        let _ = b.fadd("y", x, x);
        CodeDag::new(&b.finish())
    }

    #[test]
    fn new_dag_is_edgeless() {
        let d = three_node_dag();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.edge_count(), 0);
        assert_eq!(d.roots().len(), 3);
        assert_eq!(d.leaves().len(), 3);
        assert!(d.is_load(InstId::new(1)));
        assert!(!d.is_load(InstId::new(0)));
        assert_eq!(d.load_ids(), vec![InstId::new(1)]);
    }

    #[test]
    fn add_edge_updates_both_directions() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::True);
        assert!(d.has_edge(InstId::new(0), InstId::new(1)));
        assert!(!d.has_edge(InstId::new(1), InstId::new(0)));
        assert_eq!(d.succs(InstId::new(0)), &[(InstId::new(1), DepKind::True)]);
        assert_eq!(d.preds(InstId::new(1)), &[(InstId::new(0), DepKind::True)]);
        assert_eq!(d.edge_count(), 1);
        assert_eq!(d.roots(), vec![InstId::new(0), InstId::new(2)]);
        assert_eq!(d.leaves(), vec![InstId::new(1), InstId::new(2)]);
    }

    #[test]
    fn duplicate_edges_collapse_true_wins() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::Anti);
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::True);
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::Memory);
        assert_eq!(d.edge_count(), 1);
        assert_eq!(
            d.edge_kind(InstId::new(0), InstId::new(1)),
            Some(DepKind::True)
        );
        assert_eq!(d.preds(InstId::new(1))[0].1, DepKind::True);
    }

    #[test]
    #[should_panic(expected = "forward in program order")]
    fn backward_edge_panics() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(2), InstId::new(1), DepKind::True);
    }

    #[test]
    #[should_panic(expected = "forward in program order")]
    fn self_edge_panics() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(1), InstId::new(1), DepKind::True);
    }

    #[test]
    fn names_come_from_block() {
        // The DAG stores no names: its nodes are labelled by the block.
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let _ = b.load("x", base, 0);
        let block = b.finish();
        let d = CodeDag::new(&block);
        let labels: Vec<_> = d.node_ids().map(|id| block.label(id)).collect();
        assert_eq!(labels, ["base", "x"]);
    }

    #[test]
    fn add_edge_keeps_each_row_in_insertion_order() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(1), InstId::new(2), DepKind::Memory);
        d.add_edge(InstId::new(0), InstId::new(2), DepKind::Anti);
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::True);
        let (i0, i1, i2) = (InstId::new(0), InstId::new(1), InstId::new(2));
        assert_eq!(d.succs(i0), &[(i2, DepKind::Anti), (i1, DepKind::True)]);
        assert_eq!(d.succs(i1), &[(i2, DepKind::Memory)]);
        assert_eq!(d.preds(i2), &[(i1, DepKind::Memory), (i0, DepKind::Anti)]);
        assert_eq!(d.preds(i1), &[(i0, DepKind::True)]);
        assert!(d.preds(i0).is_empty() && d.succs(i2).is_empty());
        assert_eq!(d.edge_count(), 3);
    }

    #[test]
    fn edges_iterator_lists_all() {
        let mut d = three_node_dag();
        d.add_edge(InstId::new(0), InstId::new(1), DepKind::True);
        d.add_edge(InstId::new(1), InstId::new(2), DepKind::Memory);
        let edges: Vec<Edge> = d.edges().collect();
        assert_eq!(edges.len(), 2);
        assert!(edges
            .iter()
            .any(|e| e.kind == DepKind::Memory && e.to == InstId::new(2)));
    }

    #[test]
    fn dep_kind_latency_flag() {
        assert!(DepKind::True.carries_latency());
        assert!(!DepKind::Anti.carries_latency());
        assert!(!DepKind::Output.carries_latency());
        assert!(!DepKind::Memory.carries_latency());
    }
}
