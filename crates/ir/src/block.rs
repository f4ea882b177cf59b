//! Basic blocks.

use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

use crate::inst::{Inst, InstId};

/// A basic block: a straight-line instruction sequence plus the profiled
/// execution frequency used to weight its simulated runtime (§4.3: block
/// sample means "are scaled by the profiled execution frequency").
///
/// Both schedulers in the paper operate strictly block-by-block, so the
/// block is the unit handed to the DAG builder, the schedulers, the
/// register allocator and the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct BasicBlock {
    name: Arc<str>,
    insts: Vec<Inst>,
    frequency: f64,
}

impl BasicBlock {
    /// Creates a block with execution frequency 1.
    #[must_use]
    pub fn new(name: impl Into<Arc<str>>, insts: Vec<Inst>) -> Self {
        Self {
            name: name.into(),
            insts,
            frequency: 1.0,
        }
    }

    /// Sets the profiled execution frequency (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `frequency` is not finite and positive.
    #[must_use]
    pub fn with_frequency(mut self, frequency: f64) -> Self {
        assert!(
            frequency.is_finite() && frequency > 0.0,
            "frequency must be finite and positive"
        );
        self.frequency = frequency;
        self
    }

    /// The block's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The instructions in program order.
    #[must_use]
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The instruction with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.index()]
    }

    /// The display label of instruction `id`: its name, or its id
    /// (`i3`) when it has none. DOT dumps and the paper's tables print
    /// nodes by this label.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn label(&self, id: InstId) -> Cow<'_, str> {
        self.inst(id)
            .name()
            .map_or_else(|| Cow::Owned(id.to_string()), Cow::Borrowed)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// `true` when the block has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Profiled execution frequency.
    #[must_use]
    pub fn frequency(&self) -> f64 {
        self.frequency
    }

    /// Iterates `(InstId, &Inst)` pairs in program order.
    pub fn iter_ids(&self) -> impl Iterator<Item = (InstId, &Inst)> {
        self.insts
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId::from_usize(i), inst))
    }

    /// Ids of all load instructions.
    #[must_use]
    pub fn load_ids(&self) -> Vec<InstId> {
        self.iter_ids()
            .filter(|(_, i)| i.is_load())
            .map(|(id, _)| id)
            .collect()
    }

    /// Count of instructions inserted by the register allocator.
    #[must_use]
    pub fn spill_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_spill()).count()
    }

    /// Returns a copy with the instructions permuted into `order`.
    ///
    /// Used to materialise a schedule back into a block. `order` must be a
    /// permutation of `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the block's instruction ids.
    #[must_use]
    pub fn reordered(&self, order: &[InstId]) -> BasicBlock {
        assert_eq!(
            order.len(),
            self.insts.len(),
            "order must cover every instruction"
        );
        let mut seen = vec![false; self.insts.len()];
        let insts = order
            .iter()
            .map(|id| {
                assert!(
                    !std::mem::replace(&mut seen[id.index()], true),
                    "duplicate id {id}"
                );
                self.insts[id.index()].clone()
            })
            .collect();
        BasicBlock {
            name: self.name.clone(),
            insts,
            frequency: self.frequency,
        }
    }
}

impl fmt::Display for BasicBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} (freq {}):", self.name, self.frequency)?;
        for (id, inst) in self.iter_ids() {
            writeln!(f, "  {id:>4}  {inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemAccess, MemLoc, RegionId};
    use crate::opcode::Opcode;
    use crate::reg::{Reg, RegClass, VirtReg};

    fn vf(i: u32) -> Reg {
        VirtReg::new(RegClass::Float, i).into()
    }

    fn vr(i: u32) -> Reg {
        VirtReg::new(RegClass::Int, i).into()
    }

    fn sample_block() -> BasicBlock {
        let acc = MemAccess::read(MemLoc::known(RegionId::new(0), 0));
        BasicBlock::new(
            "b",
            vec![
                Inst::new(Opcode::Ldc1, vec![vf(0)], vec![vr(9)], Some(acc)),
                Inst::new(Opcode::FAdd, vec![vf(1)], vec![vf(0), vf(0)], None),
                Inst::new(Opcode::Ldc1, vec![vf(2)], vec![vr(9)], Some(acc)),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let b = sample_block();
        assert_eq!(b.name(), "b");
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.frequency(), 1.0);
        assert_eq!(b.load_ids(), vec![InstId::new(0), InstId::new(2)]);
        assert_eq!(b.spill_count(), 0);
        assert_eq!(b.inst(InstId::new(1)).opcode(), Opcode::FAdd);
        assert_eq!(b.label(InstId::new(1)), "i1");
        let named = BasicBlock::new("n", vec![b.inst(InstId::new(1)).clone().with_name("X1")]);
        assert_eq!(named.label(InstId::new(0)), "X1");
    }

    #[test]
    fn with_frequency_sets() {
        let b = sample_block().with_frequency(123.5);
        assert_eq!(b.frequency(), 123.5);
    }

    #[test]
    #[should_panic(expected = "frequency must be finite and positive")]
    fn zero_frequency_panics() {
        let _ = sample_block().with_frequency(0.0);
    }

    #[test]
    fn reorder_permutes() {
        let b = sample_block();
        let r = b.reordered(&[InstId::new(2), InstId::new(0), InstId::new(1)]);
        assert_eq!(r.insts()[0], b.insts()[2]);
        assert_eq!(r.insts()[1], b.insts()[0]);
        assert_eq!(r.insts()[2], b.insts()[1]);
        assert_eq!(r.frequency(), b.frequency());
    }

    #[test]
    #[should_panic(expected = "duplicate id")]
    fn reorder_rejects_duplicates() {
        let b = sample_block();
        let _ = b.reordered(&[InstId::new(0), InstId::new(0), InstId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "order must cover")]
    fn reorder_rejects_short_order() {
        let b = sample_block();
        let _ = b.reordered(&[InstId::new(0)]);
    }

    #[test]
    fn display_contains_instructions() {
        let text = sample_block().to_string();
        assert!(text.contains("ldc1"));
        assert!(text.contains("add.d"));
    }
}
