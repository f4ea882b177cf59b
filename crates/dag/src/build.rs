//! Dependence analysis: turning a basic block into a code DAG.

use std::cell::Cell;

use bsched_ir::inst::MAX_USES;
use bsched_ir::{BasicBlock, InstId, MemAccess, Reg, RegClass};

use crate::dag::{CodeDag, DepKind, Edge};

/// How aggressively memory references are disambiguated (paper Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AliasModel {
    /// Fortran semantics: distinct regions (arrays, spill areas) never
    /// alias; references within one region conflict only when their byte
    /// ranges may overlap. This models the paper's parallelism-exposing
    /// transformation and is the default for all headline experiments.
    #[default]
    Fortran,
    /// Conservative C semantics: any two references to *different* regions
    /// may alias (as f2c-translated pointer code forces a compiler to
    /// assume); same-region references still use offset information.
    /// The paper's Fig. 8 explains why this model "severely restricts a
    /// scheduler's ability to exploit load level parallelism".
    CConservative,
}

impl AliasModel {
    /// Whether accesses `a` and `b` must be ordered under this model.
    #[must_use]
    pub fn conflicts(self, a: MemAccess, b: MemAccess) -> bool {
        if !a.is_write() && !b.is_write() {
            return false;
        }
        if a.loc().region() == b.loc().region() {
            return a.conflicts_same_region(b);
        }
        match self {
            AliasModel::Fortran => false,
            AliasModel::CConservative => true,
        }
    }
}

impl std::str::FromStr for AliasModel {
    type Err = String;

    /// Parses the spelling shared by the CLI's `--alias` and the wire
    /// protocol's `alias` field: `fortran` or `c`.
    fn from_str(s: &str) -> Result<AliasModel, String> {
        match s {
            "fortran" => Ok(AliasModel::Fortran),
            "c" => Ok(AliasModel::CConservative),
            other => Err(format!("unknown alias model {other:?} (fortran|c)")),
        }
    }
}

thread_local! {
    static BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// How many DAGs [`build_dag`] has built on the calling thread. A
/// measurement hook for tests; it is no part of any report.
#[doc(hidden)]
#[must_use]
pub fn builds_on_this_thread() -> usize {
    BUILDS.get()
}

/// Builds the code DAG of `block` under `alias`.
///
/// Edges produced:
///
/// * **True** register dependences (def → later use);
/// * **Anti** register dependences (use → later def of the same register);
/// * **Output** register dependences (def → later def);
/// * **Memory** dependences between conflicting accesses per
///   [`AliasModel::conflicts`].
///
/// When the block uses only virtual registers in SSA-like fashion (each
/// register defined once), no anti/output register edges arise — which is
/// exactly why the paper's first scheduling pass has maximal freedom.
#[must_use]
pub fn build_dag(block: &BasicBlock, alias: AliasModel) -> CodeDag {
    const NONE: u32 = u32::MAX;
    BUILDS.set(BUILDS.get() + 1);
    let n = block.len();
    let slots = RegSlots::of(block);
    // Per register: its last definition, and the uses since then as a
    // list threaded through `chain` (user, next), oldest first.
    let mut last_def = vec![NONE; slots.len()];
    let mut first_use = vec![NONE; slots.len()];
    let mut last_use = vec![NONE; slots.len()];
    let mut chain: Vec<(InstId, u32)> = Vec::with_capacity(n * MAX_USES);
    // Every edge in the order the adjacency rows keep it: each node's
    // register in-edges in turn, then the memory edges. `seen[from]` is
    // the index of the latest edge out of `from`; it belongs to the
    // current node's row when it is at least the row's start.
    let mut edges: Vec<Edge> = Vec::with_capacity(2 * n);
    let mut rows: Vec<u32> = Vec::with_capacity(n + 1);
    let mut seen = vec![NONE; n];

    // Register dependences.
    for (id, inst) in block.iter_ids() {
        let row = edges.len();
        rows.push(row as u32);
        let mut add = |from: InstId, kind: DepKind| {
            let at = seen[from.index()];
            if at != NONE && at as usize >= row {
                let edge = &mut edges[at as usize];
                if kind == DepKind::True {
                    edge.kind = DepKind::True;
                }
            } else {
                seen[from.index()] = edges.len() as u32;
                edges.push(Edge { from, to: id, kind });
            }
        };
        for &u in inst.uses() {
            let r = slots.slot(u);
            if last_def[r] != NONE {
                add(InstId::new(last_def[r]), DepKind::True);
            }
            let link = chain.len() as u32;
            chain.push((id, NONE));
            match last_use[r] {
                NONE => first_use[r] = link,
                tail => chain[tail as usize].1 = link,
            }
            last_use[r] = link;
        }
        for &d in inst.defs() {
            let r = slots.slot(d);
            let mut link = first_use[r];
            while link != NONE {
                let (user, next) = chain[link as usize];
                if user != id {
                    add(user, DepKind::Anti);
                }
                link = next;
            }
            if last_def[r] != NONE && last_def[r] != id.raw() {
                add(InstId::new(last_def[r]), DepKind::Output);
            }
            last_def[r] = id.raw();
            first_use[r] = NONE;
            last_use[r] = NONE;
        }
    }
    rows.push(edges.len() as u32);

    // Memory dependences, skipping pairs a register edge already orders
    // (only a true dependence would strengthen one).
    seen.fill(NONE);
    let mem_ops: Vec<(InstId, MemAccess)> = block
        .iter_ids()
        .filter_map(|(id, i)| i.mem().map(|m| (id, m)))
        .collect();
    for (later_pos, &(later_id, later_acc)) in mem_ops.iter().enumerate() {
        let later = later_id.index();
        for e in rows[later] as usize..rows[later + 1] as usize {
            seen[edges[e].from.index()] = later_id.raw();
        }
        for &(earlier_id, earlier_acc) in &mem_ops[..later_pos] {
            if seen[earlier_id.index()] != later_id.raw() && alias.conflicts(earlier_acc, later_acc)
            {
                edges.push(Edge {
                    from: earlier_id,
                    to: later_id,
                    kind: DepKind::Memory,
                });
            }
        }
    }

    CodeDag::with_edges(block, &edges)
}

/// Dense numbers `0..len` for the registers one block names, so the
/// builder keeps per-register state in flat tables instead of hash maps.
enum RegSlots {
    /// Indices are dense within each (virtual or physical, class) group,
    /// as the block builder and the allocator number them: a register's
    /// slot is its group's start plus its offset from the group's
    /// smallest index.
    Offsets {
        min: [u32; 4],
        start: [usize; 4],
        len: usize,
    },
    /// Indices too sparse to offset: a register's slot is its position
    /// among the block's distinct registers, sorted.
    Sorted(Vec<Reg>),
}

impl RegSlots {
    fn group(reg: Reg) -> usize {
        let class = match reg.class() {
            RegClass::Int => 0,
            RegClass::Float => 1,
        };
        2 * usize::from(!reg.is_virt()) + class
    }

    fn index(reg: Reg) -> u32 {
        match reg {
            Reg::Virt(v) => v.index(),
            Reg::Phys(p) => p.index(),
        }
    }

    fn of(block: &BasicBlock) -> Self {
        let operands = || {
            block
                .insts()
                .iter()
                .flat_map(|i| i.defs().iter().chain(i.uses()).copied())
        };
        let mut min = [u32::MAX; 4];
        let mut max = [0; 4];
        let mut count = 0;
        for reg in operands() {
            let (g, i) = (Self::group(reg), Self::index(reg));
            min[g] = min[g].min(i);
            max[g] = max[g].max(i);
            count += 1;
        }
        let mut start = [0; 4];
        let mut len = 0;
        for g in 0..4 {
            start[g] = len;
            if min[g] <= max[g] {
                len += (max[g] - min[g]) as usize + 1;
            }
        }
        if len <= 4 * count + 64 {
            RegSlots::Offsets { min, start, len }
        } else {
            let mut regs: Vec<Reg> = operands().collect();
            regs.sort_unstable();
            regs.dedup();
            RegSlots::Sorted(regs)
        }
    }

    fn len(&self) -> usize {
        match self {
            RegSlots::Offsets { len, .. } => *len,
            RegSlots::Sorted(regs) => regs.len(),
        }
    }

    fn slot(&self, reg: Reg) -> usize {
        match self {
            RegSlots::Offsets { min, start, .. } => {
                let g = Self::group(reg);
                start[g] + (Self::index(reg) - min[g]) as usize
            }
            RegSlots::Sorted(regs) => regs
                .binary_search(&reg)
                .expect("every operand was numbered"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::{BlockBuilder, Inst, InstId, Opcode, PhysReg, RegClass};

    fn id(i: u32) -> InstId {
        InstId::new(i)
    }

    #[test]
    fn true_dependence_def_to_use() {
        let mut b = BlockBuilder::new("t");
        let base = b.def_int("base");
        let x = b.load("x", base, 0);
        let _ = b.fadd("y", x, x);
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        assert_eq!(
            dag.edge_kind(id(0), id(1)),
            Some(DepKind::True),
            "base feeds load"
        );
        assert_eq!(
            dag.edge_kind(id(1), id(2)),
            Some(DepKind::True),
            "load feeds add"
        );
        assert!(!dag.has_edge(id(0), id(2)), "no direct edge base->add");
    }

    #[test]
    fn virtual_registers_produce_no_false_deps() {
        let mut b = BlockBuilder::new("t");
        let c1 = b.fconst("c1", 1.0);
        let c2 = b.fconst("c2", 2.0);
        let _ = b.fadd("s", c1, c2);
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        assert!(
            dag.edges().all(|e| e.kind == DepKind::True),
            "SSA-style block has only true deps"
        );
    }

    #[test]
    fn physical_register_reuse_creates_anti_and_output() {
        // r1 = li ; r2 = add r1, r1 ; r1 = li  (reuses r1)
        let r1: bsched_ir::Reg = PhysReg::new(RegClass::Int, 1).into();
        let r2: bsched_ir::Reg = PhysReg::new(RegClass::Int, 2).into();
        let block = bsched_ir::BasicBlock::new(
            "t",
            vec![
                Inst::new(Opcode::Li, vec![r1], vec![], None),
                Inst::new(Opcode::Add, vec![r2], vec![r1, r1], None),
                Inst::new(Opcode::Li, vec![r1], vec![], None),
            ],
        );
        let dag = build_dag(&block, AliasModel::Fortran);
        assert_eq!(dag.edge_kind(id(0), id(1)), Some(DepKind::True));
        assert_eq!(
            dag.edge_kind(id(1), id(2)),
            Some(DepKind::Anti),
            "use then redefine"
        );
        assert_eq!(
            dag.edge_kind(id(0), id(2)),
            Some(DepKind::Output),
            "def then redefine"
        );
    }

    #[test]
    fn redefinition_with_self_use_has_no_self_edge() {
        // r1 = add r1, r1 — reads old r1, writes new r1.
        let r1: bsched_ir::Reg = PhysReg::new(RegClass::Int, 1).into();
        let block = bsched_ir::BasicBlock::new(
            "t",
            vec![
                Inst::new(Opcode::Li, vec![r1], vec![], None),
                Inst::new(Opcode::Add, vec![r1], vec![r1, r1], None),
            ],
        );
        let dag = build_dag(&block, AliasModel::Fortran);
        assert_eq!(dag.edge_kind(id(0), id(1)), Some(DepKind::True));
        assert_eq!(dag.edge_count(), 1);
    }

    #[test]
    fn store_load_same_region_conflicts() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(0));
        b.store_region(region, x, base, Some(0));
        let _ = b.load_region("y", region, base, Some(0));
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        // load x (1) -> store (2): anti via memory; store (2) -> load y (3): true mem dep.
        assert_eq!(
            dag.edge_kind(id(1), id(2)),
            Some(DepKind::True),
            "register edge dominates"
        );
        assert_eq!(dag.edge_kind(id(2), id(3)), Some(DepKind::Memory));
    }

    #[test]
    fn disjoint_offsets_do_not_conflict_in_fortran() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(0));
        b.store_region(region, x, base, Some(64));
        let _ = b.load_region("y", region, base, Some(0));
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        assert!(
            !dag.has_edge(id(2), id(3)),
            "store to offset 64 vs load of offset 0"
        );
    }

    #[test]
    fn cross_region_fortran_vs_c() {
        // Fig. 8: store a[1]; load b[3]. Fortran: independent. C: ordered.
        let mut b = BlockBuilder::new("t");
        let region_a = b.fresh_region();
        let region_b = b.fresh_region();
        let base = b.def_int("base");
        let v = b.fconst("v", 1.0);
        b.store_region(region_a, v, base, Some(8));
        let _ = b.load_region("b3", region_b, base, Some(24));
        let block = b.finish();

        let fortran = build_dag(&block, AliasModel::Fortran);
        assert!(
            !fortran.has_edge(id(2), id(3)),
            "Fortran arrays are disjoint"
        );

        let c = build_dag(&block, AliasModel::CConservative);
        assert_eq!(
            c.edge_kind(id(2), id(3)),
            Some(DepKind::Memory),
            "C must order them"
        );
    }

    #[test]
    fn loads_never_conflict_with_loads() {
        let mut b = BlockBuilder::new("t");
        let r1 = b.fresh_region();
        let r2 = b.fresh_region();
        let base = b.def_int("base");
        let _ = b.load_region("x", r1, base, Some(0));
        let _ = b.load_region("y", r2, base, None);
        let dag = build_dag(&b.finish(), AliasModel::CConservative);
        assert!(!dag.has_edge(id(1), id(2)), "read-read never ordered");
    }

    #[test]
    fn unknown_offset_conflicts_within_region() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let v = b.fconst("v", 0.0);
        b.store_region(region, v, base, None);
        let _ = b.load_region("x", region, base, Some(800));
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        assert_eq!(dag.edge_kind(id(2), id(3)), Some(DepKind::Memory));
    }

    #[test]
    fn sparse_register_numbers_build_the_same_dag_as_dense_ones() {
        // r1 = li ; r2 = add r1, r1 ; r1 = li ; store r2
        let block = |one: u32, two: u32| {
            let r1: bsched_ir::Reg = PhysReg::new(RegClass::Int, one).into();
            let r2: bsched_ir::Reg = PhysReg::new(RegClass::Int, two).into();
            let w = bsched_ir::MemAccess::write(bsched_ir::MemLoc::known(
                bsched_ir::RegionId::new(0),
                0,
            ));
            bsched_ir::BasicBlock::new(
                "t",
                vec![
                    Inst::new(Opcode::Li, vec![r1], vec![], None),
                    Inst::new(Opcode::Add, vec![r2], vec![r1, r1], None),
                    Inst::new(Opcode::Li, vec![r1], vec![], None),
                    Inst::new(Opcode::Sw, vec![], vec![r2, r1], Some(w)),
                ],
            )
        };
        let edges = |b: &bsched_ir::BasicBlock| -> Vec<_> {
            build_dag(b, AliasModel::Fortran).edges().collect()
        };
        let dense = edges(&block(1, 2));
        assert_eq!(dense.len(), 5, "{dense:?}");
        assert_eq!(edges(&block(7, 4_000_000_000)), dense);
        assert_eq!(edges(&block(4_000_000_000, 7)), dense);
    }

    #[test]
    fn dag_is_acyclic_by_construction() {
        // Any built DAG only has forward edges; verify on a busy block.
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let mut prev = b.load_region("l", region, base, Some(0));
        for k in 1..20 {
            let x = b.load_region("l", region, base, Some(8 * k));
            prev = b.fadd("a", prev, x);
            b.store_region(region, prev, base, Some(8 * k + 400));
        }
        let dag = build_dag(&b.finish(), AliasModel::Fortran);
        for e in dag.edges() {
            assert!(e.from < e.to);
        }
    }
}
