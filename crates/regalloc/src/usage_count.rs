//! A 1992-vintage usage-count allocator (the GCC 2.x flavour).
//!
//! The paper's spill results (Table 4) are products of GCC 2.2.2's
//! allocator: priority allocation by usage count with spill-everywhere
//! semantics, reloading through a small pool of spill registers (§4.1).
//! Our primary allocator ([`crate::allocate`]) is a modern Belady-evicting
//! linear scan, which is *too good* to reproduce those spill patterns —
//! so this module recreates the historical behaviour:
//!
//! * live ranges are whole intervals `[def, last use]`;
//! * ranges are coloured in **use-count priority order**; a range that
//!   finds no free register is spilled *entirely* (no splitting);
//! * spilled values are stored once after their def and reloaded before
//!   **every** use, through the spill-register pool (FIFO or fixed).
//!
//! Comparing the two allocators is the `ablation/usage-count-*` bench
//! axis, and `BSCHED_ALLOC=usage` regenerates Table 4 with it.

use std::collections::HashMap;

use bsched_ir::{
    AccessKind, BasicBlock, Inst, MemAccess, MemLoc, Opcode, PhysReg, Reg, RegClass, VirtReg,
};

use crate::alloc::{AllocError, AllocResult, SPILL_REGION};
use crate::config::{AllocatorConfig, PoolPolicy};

#[derive(Debug, Clone, Copy)]
struct Range {
    def: usize,
    end: usize,
    uses: usize,
}

/// Allocates registers by usage-count priority with spill-everywhere
/// semantics (see module docs).
///
/// # Errors
///
/// Returns [`AllocError::PhysicalInput`] for non-virtual inputs and
/// [`AllocError::UndefinedUse`] for uses without a preceding def.
pub fn allocate_usage_count(
    block: &BasicBlock,
    config: &AllocatorConfig,
) -> Result<AllocResult, AllocError> {
    config.check()?;

    // Live ranges.
    let mut ranges: HashMap<VirtReg, Range> = HashMap::new();
    for (idx, inst) in block.insts().iter().enumerate() {
        for &u in inst.uses() {
            let v = u.as_virt().ok_or(AllocError::PhysicalInput)?;
            let r = ranges
                .get_mut(&v)
                .ok_or(AllocError::UndefinedUse { reg: v })?;
            r.end = idx;
            r.uses += 1;
        }
        for &d in inst.defs() {
            let v = d.as_virt().ok_or(AllocError::PhysicalInput)?;
            ranges.entry(v).or_insert(Range {
                def: idx,
                end: idx,
                uses: 0,
            });
        }
    }

    // Priority colouring: use count desc, then earlier def, then index
    // (fully deterministic).
    let mut order: Vec<(VirtReg, Range)> = ranges.iter().map(|(v, r)| (*v, *r)).collect();
    order.sort_unstable_by_key(|(v, r)| (std::cmp::Reverse(r.uses), r.def, v.index()));

    let mut assignment: HashMap<VirtReg, u32> = HashMap::new();
    let mut spilled: Vec<VirtReg> = Vec::new();
    // Occupancy per class per register: list of (start, end) intervals.
    let mut occupancy: HashMap<(RegClass, u32), Vec<(usize, usize)>> = HashMap::new();
    for (v, r) in &order {
        let general = config.general_regs_of(v.class());
        let slot = (0..general).find(|&reg| {
            occupancy
                .get(&(v.class(), reg))
                .is_none_or(|ivs| ivs.iter().all(|&(s, e)| r.end < s || e < r.def))
        });
        match slot {
            Some(reg) => {
                occupancy
                    .entry((v.class(), reg))
                    .or_default()
                    .push((r.def, r.end));
                assignment.insert(*v, reg);
            }
            None => spilled.push(*v),
        }
    }

    // Emission with spill-everywhere semantics.
    let spilled_set: std::collections::HashSet<VirtReg> = spilled.iter().copied().collect();
    let mut slots: HashMap<VirtReg, i64> = HashMap::new();
    let mut next_slot: i64 = 0;
    let mut pool_cursor: HashMap<RegClass, u32> = HashMap::new();
    let mut out: Vec<Inst> = Vec::with_capacity(block.len() + spilled.len() * 2);
    let mut spill_loads = 0usize;
    let mut spill_stores = 0usize;

    let mut take_pool = |class: RegClass, claimed: &[u32]| -> Result<u32, AllocError> {
        let general = config.general_regs_of(class);
        let pool = config.pool_size;
        match config.policy {
            PoolPolicy::Fifo => {
                let start = *pool_cursor.get(&class).unwrap_or(&0);
                for step in 0..pool {
                    let reg = general + (start + step) % pool;
                    if !claimed.contains(&reg) {
                        pool_cursor.insert(class, (start + step + 1) % pool);
                        return Ok(reg);
                    }
                }
                Err(AllocError::PoolExhausted {
                    needed: claimed.len() + 1,
                    have: pool as usize,
                })
            }
            PoolPolicy::Fixed => (0..pool)
                .map(|i| general + i)
                .find(|reg| !claimed.contains(reg))
                .ok_or(AllocError::PoolExhausted {
                    needed: claimed.len() + 1,
                    have: pool as usize,
                }),
        }
    };

    for inst in block.insts() {
        let mut mapping: HashMap<VirtReg, PhysReg> = HashMap::new();
        let mut claimed: HashMap<RegClass, Vec<u32>> = HashMap::new();

        // Reload spilled operands.
        for &u in inst.uses() {
            let v = u.as_virt().expect("checked above");
            if mapping.contains_key(&v) {
                continue;
            }
            if let Some(&reg) = assignment.get(&v) {
                mapping.insert(v, PhysReg::new(v.class(), reg));
            } else {
                let claims = claimed.entry(v.class()).or_default();
                let reg = take_pool(v.class(), claims)?;
                claims.push(reg);
                let phys = PhysReg::new(v.class(), reg);
                let slot = slots[&v];
                out.push(
                    Inst::new(
                        Opcode::SpillLoad,
                        [Reg::from(phys)],
                        [],
                        Some(MemAccess::new(
                            MemLoc::known(SPILL_REGION, slot),
                            AccessKind::Read,
                            8,
                        )),
                    )
                    .with_name(format!("reload {v}")),
                );
                spill_loads += 1;
                mapping.insert(v, phys);
            }
        }

        // Defs: assigned ranges get their colour; spilled defs borrow a
        // pool register and store immediately (spill-everywhere). A def
        // may reuse a register claimed by this instruction's reloads —
        // reads precede writes — so only other def claims are avoided.
        let mut stores_after: Vec<Inst> = Vec::new();
        let mut def_claims: HashMap<RegClass, Vec<u32>> = HashMap::new();
        for &d in inst.defs() {
            let v = d.as_virt().expect("checked above");
            if let Some(&reg) = assignment.get(&v) {
                mapping.insert(v, PhysReg::new(v.class(), reg));
            } else {
                let claims = def_claims.entry(v.class()).or_default();
                let reg = take_pool(v.class(), claims)?;
                claims.push(reg);
                let phys = PhysReg::new(v.class(), reg);
                let slot = *slots.entry(v).or_insert_with(|| {
                    let s = next_slot;
                    next_slot += 8;
                    s
                });
                stores_after.push(
                    Inst::new(
                        Opcode::SpillStore,
                        [],
                        [Reg::from(phys)],
                        Some(MemAccess::new(
                            MemLoc::known(SPILL_REGION, slot),
                            AccessKind::Write,
                            8,
                        )),
                    )
                    .with_name(format!("spill {v}")),
                );
                spill_stores += 1;
                mapping.insert(v, phys);
            }
        }

        let _ = &claimed;
        let mut rewritten = inst.clone();
        rewritten.map_regs(|r| match r {
            Reg::Virt(v) => Reg::Phys(mapping[&v]),
            phys => phys,
        });
        out.push(rewritten);
        out.append(&mut stores_after);
    }

    let _ = spilled_set;
    Ok(AllocResult {
        block: BasicBlock::new(block.name().to_owned(), out).with_frequency(block.frequency()),
        spill_loads,
        spill_stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::allocate;
    use bsched_ir::BlockBuilder;

    fn small_config() -> AllocatorConfig {
        AllocatorConfig {
            int_regs: 6,
            fp_regs: 6,
            pool_size: 2,
            policy: PoolPolicy::Fifo,
        }
    }

    fn pressure_block(n: usize) -> BasicBlock {
        let mut b = BlockBuilder::new("p");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let vals: Vec<_> = (0..n)
            .map(|k| b.load_region("l", region, base, Some(8 * k as i64)))
            .collect();
        let mut acc = vals[0];
        for &v in vals.iter().rev() {
            acc = b.fadd("a", acc, v);
        }
        b.store_region(region, acc, base, Some(10_000));
        b.finish()
    }

    #[test]
    fn low_pressure_matches_belady_spill_free() {
        let block = pressure_block(3);
        let r = allocate_usage_count(&block, &small_config()).unwrap();
        assert_eq!(r.spill_count(), 0);
        assert_eq!(r.block.len(), block.len());
    }

    #[test]
    fn dataflow_is_preserved_under_spilling() {
        let block = pressure_block(16);
        let r = allocate_usage_count(&block, &small_config()).unwrap();
        assert!(r.spill_count() > 0);
        assert_eq!(r.block.len(), block.len() + r.spill_count());
        let mut defined = std::collections::HashSet::new();
        let mut written_slots = std::collections::HashSet::new();
        for inst in r.block.insts() {
            for u in inst.uses() {
                assert!(!u.is_virt());
                assert!(defined.contains(u), "{u} used before def in {inst}");
            }
            if inst.opcode() == Opcode::SpillLoad {
                let slot = inst.mem().unwrap().loc().offset().unwrap();
                assert!(written_slots.contains(&slot), "reload of unwritten slot");
            }
            if inst.opcode() == Opcode::SpillStore {
                written_slots.insert(inst.mem().unwrap().loc().offset().unwrap());
            }
            for d in inst.defs() {
                defined.insert(*d);
            }
        }
    }

    #[test]
    fn spills_at_least_as_much_as_belady() {
        // The historical allocator never beats Belady eviction.
        for n in [8, 12, 16, 24] {
            let block = pressure_block(n);
            let old = allocate_usage_count(&block, &small_config()).unwrap();
            let modern = allocate(&block, &small_config()).unwrap();
            assert!(
                old.spill_count() >= modern.spill_count(),
                "n={n}: usage-count {} vs belady {}",
                old.spill_count(),
                modern.spill_count()
            );
        }
    }

    #[test]
    fn spill_everywhere_reloads_per_use() {
        // A spilled value used k times produces k reloads.
        let block = pressure_block(16);
        let r = allocate_usage_count(&block, &small_config()).unwrap();
        assert!(
            r.spill_loads >= r.spill_stores,
            "each store's value is reloaded at least once"
        );
    }

    #[test]
    fn is_deterministic() {
        let block = pressure_block(20);
        let a = allocate_usage_count(&block, &small_config()).unwrap();
        let b = allocate_usage_count(&block, &small_config()).unwrap();
        assert_eq!(a.block, b.block);
    }

    #[test]
    fn rejects_undefined_use() {
        use bsched_ir::VirtReg;
        let ghost: Reg = VirtReg::new(RegClass::Float, 99).into();
        let block = BasicBlock::new(
            "t",
            vec![Inst::new(Opcode::FAdd, vec![], vec![ghost, ghost], None)],
        );
        assert!(matches!(
            allocate_usage_count(&block, &small_config()),
            Err(AllocError::UndefinedUse { .. })
        ));
    }
}
