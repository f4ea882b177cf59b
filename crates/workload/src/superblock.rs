//! Superblock formation (§6).
//!
//! The paper notes balanced scheduling "should be applicable to …
//! techniques that enlarge basic blocks (trace scheduling and software
//! pipelining)". This module provides the enlarging transformation:
//! fusing consecutive basic blocks of a trace into one superblock, with
//! virtual registers and memory regions renumbered so the fused block is
//! well-formed. More instructions per block means more load-level
//! parallelism for the weight algorithm to distribute — the ablation
//! bench quantifies how much that widens balanced scheduling's lead.
//!
//! Fusion here models a straight-line trace (each block falls through to
//! the next); the blocks of our workload are loop bodies, so fusing k
//! copies of a body is the trace through k consecutive iterations of an
//! outer loop. The fused frequency is the *minimum* of the member
//! frequencies (a trace executes only when every member does).

use std::collections::HashMap;

use bsched_ir::{BasicBlock, Inst, Reg, RegionId, VirtReg};

/// Fuses `blocks` into one superblock.
///
/// Virtual registers are renumbered into one namespace per class; memory
/// regions keep their identity *within* a block but are made distinct
/// *across* blocks (two different source blocks never share arrays —
/// matching traces through distinct loop nests; fusing iterations of the
/// same loop should instead use the kernel's `unroll`).
///
/// # Panics
///
/// Panics if `blocks` is empty or any block contains physical registers
/// (superblocks are formed before register allocation, like the paper's
/// first scheduling pass).
#[must_use]
pub fn fuse_blocks(name: &str, blocks: &[&BasicBlock]) -> BasicBlock {
    assert!(!blocks.is_empty(), "cannot fuse zero blocks");
    let mut insts: Vec<Inst> = Vec::new();
    let mut next_reg: HashMap<bsched_ir::RegClass, u32> = HashMap::new();
    let mut frequency = f64::INFINITY;

    for (block_no, block) in blocks.iter().enumerate() {
        frequency = frequency.min(block.frequency());
        let mut reg_map: HashMap<VirtReg, VirtReg> = HashMap::new();
        for inst in block.insts() {
            let mut renamed = inst.clone();
            renamed.map_regs(|r| match r {
                Reg::Virt(v) => {
                    let mapped = *reg_map.entry(v).or_insert_with(|| {
                        let counter = next_reg.entry(v.class()).or_insert(0);
                        let fresh = VirtReg::new(v.class(), *counter);
                        *counter += 1;
                        fresh
                    });
                    Reg::Virt(mapped)
                }
                Reg::Phys(_) => panic!("superblocks are formed before register allocation"),
            });
            // Regions: offset each block's regions into a distinct band.
            let renamed = match renamed.mem() {
                Some(access) => {
                    let region =
                        RegionId::new(access.loc().region().raw() + (block_no as u32) * 10_000);
                    let loc = match access.loc().offset() {
                        Some(k) => bsched_ir::MemLoc::known(region, k),
                        None => bsched_ir::MemLoc::unknown(region),
                    };
                    let new_access = bsched_ir::MemAccess::new(loc, access.kind(), access.width());
                    let mut inst2 = Inst::new(
                        renamed.opcode(),
                        renamed.defs(),
                        renamed.uses(),
                        Some(new_access),
                    );
                    if let Some(n) = renamed.name() {
                        inst2 = inst2.with_name(n);
                    }
                    inst2
                }
                None => renamed,
            };
            insts.push(renamed);
        }
    }
    BasicBlock::new(name, insts).with_frequency(frequency)
}

/// Fuses every function block into one superblock per group of
/// `group_size` consecutive blocks, returning the superblock list.
#[must_use]
pub fn superblocks_of(func: &bsched_ir::Function, group_size: usize) -> Vec<BasicBlock> {
    assert!(group_size >= 1, "group size must be positive");
    func.blocks()
        .chunks(group_size)
        .enumerate()
        .map(|(i, chunk)| {
            let refs: Vec<&BasicBlock> = chunk.iter().collect();
            fuse_blocks(&format!("{}.sb{i}", func.name()), &refs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels;
    use crate::lower::lower_kernel;
    use bsched_dag::{build_dag, AliasModel};
    use bsched_ir::Function;

    fn two_blocks() -> (BasicBlock, BasicBlock) {
        (
            lower_kernel(&kernels::daxpy().with_unroll(2), 100.0),
            lower_kernel(&kernels::stencil3().with_unroll(2), 40.0),
        )
    }

    #[test]
    fn fusion_concatenates_and_renumbers() {
        let (a, b) = two_blocks();
        let fused = fuse_blocks("sb", &[&a, &b]);
        assert_eq!(fused.len(), a.len() + b.len());
        assert_eq!(fused.frequency(), 40.0, "minimum frequency");
        // All registers virtual, and numbering has no duplicates per def.
        let mut seen = std::collections::HashSet::new();
        for inst in fused.insts() {
            for d in inst.defs() {
                assert!(d.is_virt());
                assert!(seen.insert(*d), "register {d} defined twice");
            }
        }
    }

    #[test]
    fn fused_block_builds_valid_dag() {
        let (a, b) = two_blocks();
        let fused = fuse_blocks("sb", &[&a, &b]);
        let dag = build_dag(&fused, AliasModel::Fortran);
        assert_eq!(dag.len(), fused.len());
        for e in dag.edges() {
            assert!(e.from < e.to);
        }
        // No cross-block register or memory edges: the halves are
        // independent, so some instruction in the second half has no
        // predecessor in the first half.
        let closures = bsched_dag::Closures::compute(&dag);
        let first_half_len = a.len();
        let second = bsched_ir::InstId::from_usize(first_half_len);
        assert!(
            closures.preds(second).is_empty(),
            "block boundary leaks dependences"
        );
    }

    #[test]
    fn fusion_increases_load_level_parallelism() {
        use bsched_core::{BalancedWeights, WeightAssigner};
        let (a, b) = two_blocks();
        let fused = fuse_blocks("sb", &[&a, &b]);
        let dag_a = build_dag(&a, AliasModel::Fortran);
        let dag_f = build_dag(&fused, AliasModel::Fortran);
        let max_weight = |dag: &bsched_dag::CodeDag| {
            let w = BalancedWeights::new().assign(dag);
            dag.load_ids().iter().map(|&l| w.weight(l)).max().unwrap()
        };
        assert!(
            max_weight(&dag_f) > max_weight(&dag_a),
            "the superblock exposes more parallelism per load"
        );
    }

    #[test]
    fn superblocks_of_groups() {
        let func = Function::new(
            "f",
            vec![
                lower_kernel(&kernels::daxpy(), 10.0),
                lower_kernel(&kernels::dot(), 20.0),
                lower_kernel(&kernels::stencil3(), 30.0),
            ],
        );
        let sbs = superblocks_of(&func, 2);
        assert_eq!(sbs.len(), 2);
        assert_eq!(
            sbs[0].len(),
            func.blocks()[0].len() + func.blocks()[1].len()
        );
        assert_eq!(sbs[1].len(), func.blocks()[2].len());
        assert_eq!(sbs[0].frequency(), 10.0);
    }

    #[test]
    #[should_panic(expected = "cannot fuse zero blocks")]
    fn empty_fusion_panics() {
        let _ = fuse_blocks("sb", &[]);
    }
}
