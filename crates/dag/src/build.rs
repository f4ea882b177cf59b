//! Dependence analysis: turning a basic block into a code DAG.

use std::collections::HashMap;

use bsched_ir::{BasicBlock, InstId, MemAccess, Reg};

use crate::dag::{CodeDag, DepKind};

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
    let mut dag = CodeDag::new(block);

    // Register dependences.
    let mut last_def: HashMap<Reg, InstId> = HashMap::new();
    let mut uses_since_def: HashMap<Reg, Vec<InstId>> = HashMap::new();

    for (id, inst) in block.iter_ids() {
        for &u in inst.uses() {
            if let Some(&d) = last_def.get(&u) {
                dag.add_edge(d, id, DepKind::True);
            }
            uses_since_def.entry(u).or_default().push(id);
        }
        for &d in inst.defs() {
            if let Some(users) = uses_since_def.get(&d) {
                for &user in users {
                    if user != id {
                        dag.add_edge(user, id, DepKind::Anti);
                    }
                }
            }
            if let Some(&prev) = last_def.get(&d) {
                if prev != id {
                    dag.add_edge(prev, id, DepKind::Output);
                }
            }
            last_def.insert(d, id);
            uses_since_def.insert(d, Vec::new());
        }
    }

    // Memory dependences.
    let mem_ops: Vec<(InstId, MemAccess)> = block
        .iter_ids()
        .filter_map(|(id, i)| i.mem().map(|m| (id, m)))
        .collect();
    for (later_pos, &(later_id, later_acc)) in mem_ops.iter().enumerate() {
        for &(earlier_id, earlier_acc) in &mem_ops[..later_pos] {
            if alias.conflicts(earlier_acc, later_acc) {
                dag.add_edge(earlier_id, later_id, DepKind::Memory);
            }
        }
    }

    dag
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
