//! The allocator: on-demand linear scan with Belady eviction.

use std::collections::{HashMap, VecDeque};

use bsched_ir::{
    AccessKind, BasicBlock, Inst, MemAccess, MemLoc, Opcode, PhysReg, Reg, RegClass, RegionId,
    VirtReg,
};

use crate::config::{AllocatorConfig, PoolPolicy};
use crate::liveness::UsePositions;

/// The memory region holding spill slots. Distinct from every workload
/// array region, so under Fortran aliasing spill traffic never conflicts
/// with array traffic — matching a compiler's private stack frame.
pub const SPILL_REGION: RegionId = RegionId::new(3_000_000);

/// Outcome of register allocation on one block.
#[derive(Debug, Clone)]
pub struct AllocResult {
    /// The rewritten block: physical registers, spill code inserted.
    pub block: BasicBlock,
    /// Reload instructions inserted.
    pub spill_loads: usize,
    /// Store-to-slot instructions inserted.
    pub spill_stores: usize,
}

impl AllocResult {
    /// Total instructions inserted by the allocator — the paper's
    /// definition of spill code (§5).
    #[must_use]
    pub fn spill_count(&self) -> usize {
        self.spill_loads + self.spill_stores
    }
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// The input block already contains physical registers.
    PhysicalInput,
    /// An instruction needs more same-class reloads than the pool holds.
    PoolExhausted {
        /// Registers required at once.
        needed: usize,
        /// Pool capacity.
        have: usize,
    },
    /// An instruction reads a register that was never defined.
    UndefinedUse {
        /// The offending register.
        reg: VirtReg,
    },
    /// The register file/pool configuration cannot allocate at all.
    InvalidConfig {
        /// What is wrong with the configuration.
        detail: String,
    },
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::PhysicalInput => write!(f, "input block already uses physical registers"),
            AllocError::PoolExhausted { needed, have } => {
                write!(
                    f,
                    "instruction needs {needed} reload registers, pool has {have}"
                )
            }
            AllocError::UndefinedUse { reg } => write!(f, "use of undefined register {reg}"),
            AllocError::InvalidConfig { detail } => {
                write!(f, "invalid allocator configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// Per-class allocation state.
struct ClassState {
    class: RegClass,
    free: Vec<u32>,
    holder: HashMap<u32, VirtReg>,
    assigned: HashMap<VirtReg, u32>,
    pool: VecDeque<u32>,
    policy: PoolPolicy,
}

impl ClassState {
    fn new(class: RegClass, config: &AllocatorConfig) -> Self {
        let general = config.general_regs_of(class);
        let total = config.regs_of(class);
        Self {
            class,
            free: (0..general).rev().collect(),
            holder: HashMap::new(),
            assigned: HashMap::new(),
            pool: (general..total).collect(),
            policy: config.policy,
        }
    }

    fn release(&mut self, v: VirtReg) {
        if let Some(r) = self.assigned.remove(&v) {
            self.holder.remove(&r);
            self.free.push(r);
        }
    }

    /// Picks the next reload register, honouring the pool policy and
    /// avoiding registers already claimed by this instruction.
    fn take_pool_reg(&mut self, in_use_now: &[u32]) -> Result<u32, AllocError> {
        match self.policy {
            PoolPolicy::Fifo => {
                // Rotate the queue until an unclaimed register surfaces.
                for _ in 0..self.pool.len() {
                    let r = self.pool.pop_front().expect("pool is nonempty");
                    self.pool.push_back(r);
                    if !in_use_now.contains(&r) {
                        return Ok(r);
                    }
                }
                Err(AllocError::PoolExhausted {
                    needed: in_use_now.len() + 1,
                    have: self.pool.len(),
                })
            }
            PoolPolicy::Fixed => self
                .pool
                .iter()
                .copied()
                .filter(|r| !in_use_now.contains(r))
                .min()
                .ok_or(AllocError::PoolExhausted {
                    needed: in_use_now.len() + 1,
                    have: self.pool.len(),
                }),
        }
    }
}

/// Allocates physical registers for `block`, inserting spill code where
/// the file overflows.
///
/// The block must use only virtual registers (the output of the first
/// scheduling pass). Values are kept in general registers while live;
/// when the file overflows, the live value with the **farthest next use**
/// is stored to a spill slot (Belady's heuristic — a reasonable stand-in
/// for GCC's priority-based choice). Later uses of spilled values reload
/// through the dedicated **spill register pool**, recycled FIFO or
/// lowest-first per [`PoolPolicy`] (§4.1).
///
/// # Errors
///
/// Returns an error for physical-register inputs, undefined uses, or an
/// instruction whose same-class reload demand exceeds the pool.
pub fn allocate(block: &BasicBlock, config: &AllocatorConfig) -> Result<AllocResult, AllocError> {
    config.check()?;
    if let Some(fault) = bsched_faults::fault_point!(bsched_faults::Site::Alloc) {
        // Simulated spill-pool exhaustion: the error the allocator would
        // raise if an instruction demanded more reloads than the pool.
        return Err(AllocError::PoolExhausted {
            needed: usize::try_from(fault.arg.max(1)).unwrap_or(usize::MAX),
            have: 0,
        });
    }
    let uses_info = UsePositions::compute(block);
    let mut states: HashMap<RegClass, ClassState> = RegClass::ALL
        .into_iter()
        .map(|c| (c, ClassState::new(c, config)))
        .collect();
    let mut slots: HashMap<VirtReg, i64> = HashMap::new();
    let mut stored: HashMap<VirtReg, bool> = HashMap::new();
    let mut next_slot: i64 = 0;
    let mut out: Vec<Inst> = Vec::with_capacity(block.len() + 8);
    let mut spill_loads = 0usize;
    let mut spill_stores = 0usize;

    fn slot_of(slots: &mut HashMap<VirtReg, i64>, next_slot: &mut i64, v: VirtReg) -> i64 {
        *slots.entry(v).or_insert_with(|| {
            let s = *next_slot;
            *next_slot += 8;
            s
        })
    }

    for (idx, inst) in block.insts().iter().enumerate() {
        // Map each distinct used vreg to a physical register, reloading
        // spilled values through the pool.
        let mut mapping: HashMap<VirtReg, PhysReg> = HashMap::new();
        let mut pool_claims: HashMap<RegClass, Vec<u32>> = HashMap::new();
        for &u in inst.uses() {
            let v = u.as_virt().ok_or(AllocError::PhysicalInput)?;
            if mapping.contains_key(&v) {
                continue;
            }
            let state = states.get_mut(&v.class()).expect("state per class");
            if let Some(&r) = state.assigned.get(&v) {
                mapping.insert(v, PhysReg::new(v.class(), r));
            } else if slots.contains_key(&v) {
                // Reload from the spill slot through the pool.
                let claims = pool_claims.entry(v.class()).or_default();
                let r = state.take_pool_reg(claims)?;
                claims.push(r);
                let phys = PhysReg::new(v.class(), r);
                let slot = slots[&v];
                let op = Opcode::SpillLoad;
                out.push(
                    Inst::new(
                        op,
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
            } else {
                return Err(AllocError::UndefinedUse { reg: v });
            }
        }

        // Registers whose holders die after this instruction become free
        // before the defs claim space. (Sorted release keeps the free
        // list — and therefore the whole allocation — deterministic;
        // HashMap iteration order must never leak into results.)
        for class in RegClass::ALL {
            let state = states.get_mut(&class).expect("state per class");
            let mut dead: Vec<VirtReg> = state
                .assigned
                .keys()
                .copied()
                .filter(|v| uses_info.dead_after(Reg::Virt(*v), idx + 1))
                .collect();
            dead.sort_unstable();
            for v in dead {
                state.release(v);
            }
        }

        // Allocate general registers for the defs, spilling on overflow.
        for &d in inst.defs() {
            let v = d.as_virt().ok_or(AllocError::PhysicalInput)?;
            let state = states.get_mut(&v.class()).expect("state per class");
            let r = if let Some(r) = state.free.pop() {
                r
            } else {
                // Belady eviction: farthest next use; values used by the
                // current instruction are only evicted as a last resort
                // (their operand value has already been read).
                let current_uses: Vec<VirtReg> = mapping
                    .keys()
                    .copied()
                    .filter(|u| u.class() == v.class())
                    .collect();
                // Deterministic Belady choice: farthest next use, ties
                // broken toward the lowest-numbered virtual register.
                let belady_key = |cand: &VirtReg| {
                    (
                        uses_info
                            .next_use_at_or_after(Reg::Virt(*cand), idx + 1)
                            .unwrap_or(usize::MAX),
                        std::cmp::Reverse(cand.index()),
                    )
                };
                let victim = state
                    .assigned
                    .keys()
                    .copied()
                    .filter(|cand| !current_uses.contains(cand))
                    .max_by_key(belady_key)
                    .or_else(|| state.assigned.keys().copied().max_by_key(belady_key))
                    .expect("no free register and nothing to evict");
                let victim_reg = state.assigned[&victim];
                // Store the victim unless its value already sits in its
                // slot (virtual registers are defined once, so a slot
                // written once stays valid).
                if !stored.get(&victim).copied().unwrap_or(false) {
                    let slot = slot_of(&mut slots, &mut next_slot, victim);
                    out.push(
                        Inst::new(
                            Opcode::SpillStore,
                            [],
                            [Reg::from(PhysReg::new(victim.class(), victim_reg))],
                            Some(MemAccess::new(
                                MemLoc::known(SPILL_REGION, slot),
                                AccessKind::Write,
                                8,
                            )),
                        )
                        .with_name(format!("spill {victim}")),
                    );
                    spill_stores += 1;
                    stored.insert(victim, true);
                }
                state.release(victim);
                state.free.pop().expect("eviction freed a register")
            };
            state.holder.insert(r, v);
            state.assigned.insert(v, r);
            debug_assert_eq!(state.class, v.class());
            mapping.insert(v, PhysReg::new(v.class(), r));
        }

        // Emit the instruction with operands rewritten.
        let mut rewritten = inst.clone();
        rewritten.map_regs(|r| match r {
            Reg::Virt(v) => Reg::Phys(mapping[&v]),
            phys => phys,
        });
        out.push(rewritten);
    }

    Ok(AllocResult {
        block: BasicBlock::new(block.name().to_owned(), out).with_frequency(block.frequency()),
        spill_loads,
        spill_stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsched_ir::BlockBuilder;

    fn all_physical(block: &BasicBlock) -> bool {
        block
            .insts()
            .iter()
            .all(|i| i.defs().iter().chain(i.uses()).all(|r| !r.is_virt()))
    }

    fn small_config() -> AllocatorConfig {
        AllocatorConfig {
            int_regs: 6,
            fp_regs: 6,
            pool_size: 2,
            policy: PoolPolicy::Fifo,
        }
    }

    /// A block holding `n` FP values live simultaneously before consuming
    /// them in reverse.
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
    fn low_pressure_inserts_no_spills() {
        let block = pressure_block(3);
        let r = allocate(&block, &small_config()).unwrap();
        assert_eq!(r.spill_count(), 0);
        assert_eq!(r.block.len(), block.len());
        assert!(all_physical(&r.block));
        assert_eq!(r.block.frequency(), block.frequency());
    }

    #[test]
    fn high_pressure_spills_and_reloads() {
        let block = pressure_block(12);
        let r = allocate(&block, &small_config()).unwrap();
        assert!(r.spill_stores > 0, "must store some values");
        assert!(
            r.spill_loads >= r.spill_stores,
            "every stored value is reloaded"
        );
        assert_eq!(r.block.len(), block.len() + r.spill_count());
        assert!(all_physical(&r.block));
        assert_eq!(
            r.block.spill_count(),
            r.spill_count(),
            "block agrees with result"
        );
    }

    #[test]
    fn spill_code_uses_the_spill_region() {
        let block = pressure_block(12);
        let r = allocate(&block, &small_config()).unwrap();
        for inst in r.block.insts().iter().filter(|i| i.is_spill()) {
            assert_eq!(inst.mem().unwrap().loc().region(), SPILL_REGION);
        }
    }

    #[test]
    fn values_survive_spilling() {
        // Semantic check: simulate def/use through memory. Every reload
        // must read a slot that was previously written, and every use of
        // a physical register must be preceded by a def of it (or a
        // reload into it).
        let block = pressure_block(14);
        let r = allocate(&block, &small_config()).unwrap();
        let mut written_slots = std::collections::HashSet::new();
        let mut defined: std::collections::HashSet<Reg> = std::collections::HashSet::new();
        for inst in r.block.insts() {
            for &u in inst.uses() {
                assert!(defined.contains(&u), "{u} used before def in {inst}");
            }
            if inst.opcode() == Opcode::SpillLoad {
                let slot = inst.mem().unwrap().loc().offset().unwrap();
                assert!(
                    written_slots.contains(&slot),
                    "reload of unwritten slot {slot}"
                );
            }
            if inst.opcode() == Opcode::SpillStore {
                written_slots.insert(inst.mem().unwrap().loc().offset().unwrap());
            }
            for &d in inst.defs() {
                defined.insert(d);
            }
        }
    }

    #[test]
    fn fifo_pool_rotates_reload_registers() {
        let block = pressure_block(16);
        let fifo = allocate(
            &block,
            &AllocatorConfig {
                policy: PoolPolicy::Fifo,
                ..small_config()
            },
        )
        .unwrap();
        let fixed = allocate(
            &block,
            &AllocatorConfig {
                policy: PoolPolicy::Fixed,
                ..small_config()
            },
        )
        .unwrap();
        let reload_regs = |r: &AllocResult| -> Vec<Reg> {
            r.block
                .insts()
                .iter()
                .filter(|i| i.opcode() == Opcode::SpillLoad)
                .map(|i| i.defs()[0])
                .collect()
        };
        let fifo_regs = reload_regs(&fifo);
        let fixed_regs = reload_regs(&fixed);
        assert!(!fifo_regs.is_empty());
        // FIFO spreads consecutive distinct reloads across registers;
        // fixed reuses the lowest register more often.
        let distinct = |regs: &[Reg]| regs.iter().collect::<std::collections::HashSet<_>>().len();
        assert!(distinct(&fifo_regs) >= distinct(&fixed_regs));
        let repeats = |regs: &[Reg]| regs.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(repeats(&fixed_regs) >= repeats(&fifo_regs));
    }

    #[test]
    fn allocation_is_deterministic() {
        // HashMap iteration order must never influence the output: two
        // allocations of the same block are bit-identical.
        let block = pressure_block(20);
        let a = allocate(&block, &small_config()).unwrap();
        let b = allocate(&block, &small_config()).unwrap();
        assert_eq!(a.block, b.block);
        assert_eq!(a.spill_loads, b.spill_loads);
        assert_eq!(a.spill_stores, b.spill_stores);
    }

    #[test]
    fn rejects_physical_inputs() {
        let phys: Reg = PhysReg::new(RegClass::Int, 1).into();
        let block = BasicBlock::new("t", vec![Inst::new(Opcode::Li, vec![phys], vec![], None)]);
        let err = allocate(&block, &small_config()).unwrap_err();
        assert_eq!(err, AllocError::PhysicalInput);
    }

    #[test]
    fn rejects_undefined_use() {
        use bsched_ir::VirtReg;
        let ghost: Reg = VirtReg::new(RegClass::Float, 99).into();
        let block = BasicBlock::new(
            "t",
            vec![Inst::new(Opcode::FAdd, vec![], vec![ghost, ghost], None)],
        );
        let err = allocate(&block, &small_config()).unwrap_err();
        assert!(matches!(err, AllocError::UndefinedUse { .. }));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            AllocError::PhysicalInput.to_string(),
            "input block already uses physical registers"
        );
        let e = AllocError::PoolExhausted { needed: 3, have: 2 };
        assert!(e.to_string().contains("pool has 2"));
    }
}
