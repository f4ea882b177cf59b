//! Ergonomic construction of basic blocks.

use crate::block::BasicBlock;
use crate::inst::Inst;
use crate::mem::{MemAccess, MemLoc, RegionId};
use crate::opcode::Opcode;
use crate::reg::{Reg, RegClass, VirtReg};

/// Builder for a [`BasicBlock`] over fresh virtual registers.
///
/// Handles virtual-register numbering, memory-region allocation and the
/// load/store plumbing so that tests, examples and the workload
/// mini-compiler can write kernels compactly.
///
/// # Example
///
/// Build the paper's Figure 1 shape (two dependent loads feeding a chain,
/// four independent single-cycle instructions):
///
/// ```
/// use bsched_ir::BlockBuilder;
///
/// let mut b = BlockBuilder::new("fig1");
/// let base = b.def_int("base");
/// let l0 = b.load("L0", base, 0);
/// let p = b.int_to_addr("addr", l0);
/// let l1 = b.load("L1", p, 0);
/// let x4 = b.fadd("X4", l1, l1);
/// for n in 0..4 {
///     let c = b.fconst(&format!("X{n}"), 1.0);
///     let _ = c;
/// }
/// let block = b.finish();
/// assert_eq!(block.len(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct BlockBuilder {
    name: String,
    insts: Vec<Inst>,
    next_reg: [u32; 2],
    next_region: u32,
    frequency: f64,
}

impl BlockBuilder {
    /// Creates a builder for a block called `name`.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            insts: Vec::new(),
            next_reg: [0, 0],
            next_region: 0,
            frequency: 1.0,
        }
    }

    /// Sets the profiled execution frequency of the block being built.
    pub fn set_frequency(&mut self, frequency: f64) -> &mut Self {
        self.frequency = frequency;
        self
    }

    /// Allocates a fresh virtual register of `class` without defining it.
    #[must_use]
    pub fn fresh_reg(&mut self, class: RegClass) -> Reg {
        let slot = match class {
            RegClass::Int => 0,
            RegClass::Float => 1,
        };
        let idx = self.next_reg[slot];
        self.next_reg[slot] += 1;
        VirtReg::new(class, idx).into()
    }

    /// Allocates a fresh memory region (array / stack area).
    #[must_use]
    pub fn fresh_region(&mut self) -> RegionId {
        let r = RegionId::new(self.next_region);
        self.next_region += 1;
        r
    }

    /// Emits an arbitrary instruction.
    pub fn push(&mut self, inst: Inst) -> &mut Self {
        self.insts.push(inst);
        self
    }

    /// Emits `li` defining a fresh integer register (e.g. an array base).
    pub fn def_int(&mut self, name: &str) -> Reg {
        let d = self.fresh_reg(RegClass::Int);
        self.insts
            .push(Inst::new(Opcode::Li, [d], [], None).with_name(name));
        d
    }

    /// Emits `li`-like FP constant materialisation defining a fresh FP
    /// register. (Modelled as an FP move with no inputs.)
    pub fn fconst(&mut self, name: &str, _value: f64) -> Reg {
        let d = self.fresh_reg(RegClass::Float);
        self.insts
            .push(Inst::new(Opcode::FMove, [d], [], None).with_name(name));
        d
    }

    /// Emits an integer op producing a fresh address register from an FP
    /// value (models a computed index feeding an address).
    pub fn int_to_addr(&mut self, name: &str, src: Reg) -> Reg {
        let d = self.fresh_reg(RegClass::Int);
        self.insts
            .push(Inst::new(Opcode::Add, [d], [src], None).with_name(name));
        d
    }

    /// Emits an FP load of `region`-less memory at `base + offset` into a
    /// fresh FP register. The access is attributed to a per-base anonymous
    /// region keyed by the base register's identity; use
    /// [`BlockBuilder::load_region`] when the region matters for aliasing.
    pub fn load(&mut self, name: &str, base: Reg, offset: i64) -> Reg {
        // A conservative default: each distinct base integer register gets
        // its own region numbered after the register index. The workload
        // generator always uses load_region for precise aliasing.
        let region = RegionId::new(1_000_000 + base.as_virt().map_or(0, VirtReg::index));
        self.load_region(name, region, base, Some(offset))
    }

    /// Emits an FP load from `region` at known or unknown `offset`.
    pub fn load_region(
        &mut self,
        name: &str,
        region: RegionId,
        base: Reg,
        offset: Option<i64>,
    ) -> Reg {
        let d = self.fresh_reg(RegClass::Float);
        let loc = match offset {
            Some(k) => MemLoc::known(region, k),
            None => MemLoc::unknown(region),
        };
        self.insts
            .push(Inst::new(Opcode::Ldc1, [d], [base], Some(MemAccess::read(loc))).with_name(name));
        d
    }

    /// Emits an integer load from `region` at known `offset`.
    pub fn load_int_region(
        &mut self,
        name: &str,
        region: RegionId,
        base: Reg,
        offset: Option<i64>,
    ) -> Reg {
        let d = self.fresh_reg(RegClass::Int);
        let loc = match offset {
            Some(k) => MemLoc::known(region, k),
            None => MemLoc::unknown(region),
        };
        self.insts
            .push(Inst::new(Opcode::Lw, [d], [base], Some(MemAccess::read(loc))).with_name(name));
        d
    }

    /// Emits an FP store of `value` to `base + offset` (anonymous region;
    /// see [`BlockBuilder::load`]).
    pub fn store(&mut self, value: Reg, base: Reg, offset: i64) -> &mut Self {
        let region = RegionId::new(1_000_000 + base.as_virt().map_or(0, VirtReg::index));
        self.store_region(region, value, base, Some(offset))
    }

    /// Emits an FP store of `value` to `region` at known or unknown `offset`.
    pub fn store_region(
        &mut self,
        region: RegionId,
        value: Reg,
        base: Reg,
        offset: Option<i64>,
    ) -> &mut Self {
        let loc = match offset {
            Some(k) => MemLoc::known(region, k),
            None => MemLoc::unknown(region),
        };
        self.insts.push(Inst::new(
            Opcode::Sdc1,
            [],
            [value, base],
            Some(MemAccess::write(loc)),
        ));
        self
    }

    fn binop(&mut self, op: Opcode, name: &str, a: Reg, b: Reg) -> Reg {
        let d = self.fresh_reg(op.value_class());
        self.insts
            .push(Inst::new(op, [d], [a, b], None).with_name(name));
        d
    }

    /// Emits `add.d` producing a fresh FP register.
    pub fn fadd(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::FAdd, name, a, b)
    }

    /// Emits `sub.d` producing a fresh FP register.
    pub fn fsub(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::FSub, name, a, b)
    }

    /// Emits `mul.d` producing a fresh FP register.
    pub fn fmul(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::FMul, name, a, b)
    }

    /// Emits `div.d` producing a fresh FP register.
    pub fn fdiv(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::FDiv, name, a, b)
    }

    /// Emits integer `add` producing a fresh integer register.
    pub fn add(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::Add, name, a, b)
    }

    /// Emits integer `mul` producing a fresh integer register.
    pub fn mul(&mut self, name: &str, a: Reg, b: Reg) -> Reg {
        self.binop(Opcode::Mul, name, a, b)
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when nothing has been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Finishes the block.
    #[must_use]
    pub fn finish(self) -> BasicBlock {
        BasicBlock::new(self.name, self.insts).with_frequency(self.frequency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::InstId;

    #[test]
    fn fresh_regs_are_distinct_per_class() {
        let mut b = BlockBuilder::new("t");
        let r0 = b.fresh_reg(RegClass::Int);
        let r1 = b.fresh_reg(RegClass::Int);
        let f0 = b.fresh_reg(RegClass::Float);
        assert_ne!(r0, r1);
        assert_ne!(r0, f0);
        assert_eq!(f0.class(), RegClass::Float);
    }

    #[test]
    fn fresh_regions_are_distinct() {
        let mut b = BlockBuilder::new("t");
        assert_ne!(b.fresh_region(), b.fresh_region());
    }

    #[test]
    fn load_store_roundtrip_structure() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let x = b.load_region("x", region, base, Some(0));
        b.store_region(region, x, base, Some(8));
        let blk = b.finish();
        assert_eq!(blk.len(), 3);
        assert!(blk.inst(InstId::new(1)).is_load());
        assert!(blk.inst(InstId::new(2)).is_store());
        assert_eq!(
            blk.inst(InstId::new(2)).mem().unwrap().loc().offset(),
            Some(8)
        );
    }

    #[test]
    fn unknown_offsets_supported() {
        let mut b = BlockBuilder::new("t");
        let region = b.fresh_region();
        let base = b.def_int("base");
        let _ = b.load_region("x", region, base, None);
        let blk = b.finish();
        assert_eq!(blk.inst(InstId::new(1)).mem().unwrap().loc().offset(), None);
    }

    #[test]
    fn arith_ops_use_value_class() {
        let mut b = BlockBuilder::new("t");
        let a = b.fconst("a", 1.0);
        let c = b.fmul("c", a, a);
        assert_eq!(c.class(), RegClass::Float);
        let i = b.def_int("i");
        let j = b.add("j", i, i);
        assert_eq!(j.class(), RegClass::Int);
    }

    #[test]
    fn frequency_flows_through() {
        let mut b = BlockBuilder::new("t");
        b.set_frequency(42.0);
        let _ = b.def_int("x");
        assert_eq!(b.finish().frequency(), 42.0);
    }

    #[test]
    fn len_tracks_emission() {
        let mut b = BlockBuilder::new("t");
        assert!(b.is_empty());
        let _ = b.def_int("x");
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
