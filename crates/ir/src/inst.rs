//! Instructions.

use std::fmt;
use std::sync::Arc;

use crate::mem::MemAccess;
use crate::opcode::Opcode;
use crate::reg::{PhysReg, Reg, RegClass};

/// Position of an instruction within its basic block.
///
/// Instruction ids are dense indices (`0..block.len()`); the code DAG and
/// the schedulers use them as node ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(u32);

impl InstId {
    /// Creates an id from a raw index.
    #[must_use]
    pub fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Creates an id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `idx` does not fit in `u32`.
    #[must_use]
    pub fn from_usize(idx: usize) -> Self {
        Self(u32::try_from(idx).expect("instruction index exceeds u32"))
    }

    /// The raw index.
    #[must_use]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The index as `usize`, for slice indexing.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Most registers any opcode writes: the length of an instruction's
/// inline def array. No [`Opcode::max_defs`] exceeds it.
pub const MAX_DEFS: usize = 1;

/// Most registers any opcode reads: the length of an instruction's
/// inline use array. No [`Opcode::max_uses`] exceeds it.
pub const MAX_USES: usize = 2;

/// What fills an operand slot past the instruction's arity. It is never
/// read: [`Inst::defs`] and [`Inst::uses`] stop at the live count.
const UNUSED: Reg = Reg::Phys(PhysReg::new(RegClass::Int, 0));

/// One RISC instruction: opcode, defined and used registers, optional
/// memory access, and an optional human-readable name used in examples and
/// DOT dumps (the paper labels nodes `L0`, `X1`, …).
///
/// Operands live inline, in arrays sized by the opcode arity table, and
/// the name is shared: cloning an instruction allocates nothing.
#[derive(Clone, PartialEq, Eq)]
pub struct Inst {
    opcode: Opcode,
    def_count: u8,
    use_count: u8,
    defs: [Reg; MAX_DEFS],
    uses: [Reg; MAX_USES],
    mem: Option<MemAccess>,
    name: Option<Arc<str>>,
}

impl Inst {
    /// Creates an instruction.
    ///
    /// # Panics
    ///
    /// Panics if a load/store opcode is given no memory access, or a
    /// non-memory opcode is given one; these invariants keep the DAG
    /// builder honest. Panics, too, if `defs` or `uses` is longer than
    /// the opcode's [`max_defs`](Opcode::max_defs) or
    /// [`max_uses`](Opcode::max_uses).
    #[must_use]
    pub fn new(
        opcode: Opcode,
        defs: impl AsRef<[Reg]>,
        uses: impl AsRef<[Reg]>,
        mem: Option<MemAccess>,
    ) -> Self {
        let is_mem_op = opcode.is_load() || opcode.is_store();
        assert_eq!(
            is_mem_op,
            mem.is_some(),
            "memory access must be present exactly on loads/stores ({opcode})"
        );
        if let Some(m) = mem {
            assert_eq!(
                m.is_write(),
                opcode.is_store(),
                "access kind must match opcode {opcode}"
            );
        }
        let (defs, uses) = (defs.as_ref(), uses.as_ref());
        assert!(
            defs.len() <= opcode.max_defs() && uses.len() <= opcode.max_uses(),
            "{opcode} takes at most {} defs and {} uses, not {} and {}",
            opcode.max_defs(),
            opcode.max_uses(),
            defs.len(),
            uses.len()
        );
        let mut inst = Self {
            opcode,
            def_count: defs.len() as u8,
            use_count: uses.len() as u8,
            defs: [UNUSED; MAX_DEFS],
            uses: [UNUSED; MAX_USES],
            mem,
            name: None,
        };
        inst.defs[..defs.len()].copy_from_slice(defs);
        inst.uses[..uses.len()].copy_from_slice(uses);
        inst
    }

    /// Attaches a display name (builder-style).
    #[must_use]
    pub fn with_name(mut self, name: impl Into<Arc<str>>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The opcode.
    #[must_use]
    pub fn opcode(&self) -> Opcode {
        self.opcode
    }

    /// Registers written by this instruction.
    #[must_use]
    pub fn defs(&self) -> &[Reg] {
        &self.defs[..usize::from(self.def_count)]
    }

    /// Registers read by this instruction.
    #[must_use]
    pub fn uses(&self) -> &[Reg] {
        &self.uses[..usize::from(self.use_count)]
    }

    /// The memory access, for loads and stores.
    #[must_use]
    pub fn mem(&self) -> Option<MemAccess> {
        self.mem
    }

    /// Optional display name.
    #[must_use]
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Shorthand for `self.opcode().is_load()`.
    #[must_use]
    pub fn is_load(&self) -> bool {
        self.opcode.is_load()
    }

    /// Shorthand for `self.opcode().is_store()`.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.opcode.is_store()
    }

    /// Shorthand for `self.opcode().is_spill()`.
    #[must_use]
    pub fn is_spill(&self) -> bool {
        self.opcode.is_spill()
    }

    /// Net register-pressure contribution when this instruction issues:
    /// `uses - defs`, counting distinct registers.
    ///
    /// The paper's first tie-break heuristic (§4.1) selects the ready
    /// instruction with the *largest difference between consumed and
    /// defined registers*, which (bottom-up) favours instructions that
    /// shrink the set of live values.
    #[must_use]
    pub fn pressure_delta(&self) -> i64 {
        fn distinct(regs: &[Reg]) -> i64 {
            let firsts = (0..regs.len()).filter(|&i| !regs[..i].contains(&regs[i]));
            firsts.count() as i64
        }
        distinct(self.uses()) - distinct(self.defs())
    }

    /// Rewrites every register operand through `f` (used by the register
    /// allocator to substitute physical for virtual registers).
    pub fn map_regs(&mut self, mut f: impl FnMut(Reg) -> Reg) {
        for d in &mut self.defs[..usize::from(self.def_count)] {
            *d = f(*d);
        }
        for u in &mut self.uses[..usize::from(self.use_count)] {
            *u = f(*u);
        }
    }
}

impl fmt::Debug for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Inst")
            .field("opcode", &self.opcode)
            .field("defs", &self.defs())
            .field("uses", &self.uses())
            .field("mem", &self.mem)
            .field("name", &self.name)
            .finish()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(name) = &self.name {
            write!(f, "{name}: ")?;
        }
        write!(f, "{}", self.opcode)?;
        let mut first = true;
        for d in self.defs() {
            write!(f, "{} {}", if first { "" } else { "," }, d)?;
            first = false;
        }
        for u in self.uses() {
            write!(f, "{} {}", if first { "" } else { "," }, u)?;
            first = false;
        }
        if let Some(m) = self.mem {
            write!(f, "{} {}", if first { "" } else { "," }, m)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{MemAccess, MemLoc, RegionId};
    use crate::reg::{Reg, RegClass, VirtReg};

    fn vr(i: u32) -> Reg {
        VirtReg::new(RegClass::Int, i).into()
    }

    fn vf(i: u32) -> Reg {
        VirtReg::new(RegClass::Float, i).into()
    }

    fn read_acc() -> MemAccess {
        MemAccess::read(MemLoc::known(RegionId::new(0), 0))
    }

    fn write_acc() -> MemAccess {
        MemAccess::write(MemLoc::known(RegionId::new(0), 0))
    }

    #[test]
    fn load_requires_mem() {
        let i = Inst::new(Opcode::Ldc1, vec![vf(0)], vec![vr(1)], Some(read_acc()));
        assert!(i.is_load());
        assert!(i.mem().is_some());
    }

    #[test]
    #[should_panic(expected = "memory access must be present")]
    fn load_without_mem_panics() {
        let _ = Inst::new(Opcode::Lw, vec![vr(0)], vec![vr(1)], None);
    }

    #[test]
    #[should_panic(expected = "memory access must be present")]
    fn alu_with_mem_panics() {
        let _ = Inst::new(Opcode::Add, vec![vr(0)], vec![vr(1)], Some(read_acc()));
    }

    #[test]
    #[should_panic(expected = "access kind must match")]
    fn store_with_read_access_panics() {
        let _ = Inst::new(Opcode::Sdc1, vec![], vec![vf(0), vr(1)], Some(read_acc()));
    }

    #[test]
    fn pressure_delta_counts_distinct() {
        let i = Inst::new(Opcode::FAdd, vec![vf(0)], vec![vf(1), vf(1)], None);
        // one distinct use minus one def
        assert_eq!(i.pressure_delta(), 0);
        let j = Inst::new(Opcode::FAdd, vec![vf(0)], vec![vf(1), vf(2)], None);
        assert_eq!(j.pressure_delta(), 1);
        let store = Inst::new(Opcode::Sdc1, vec![], vec![vf(0), vr(1)], Some(write_acc()));
        assert_eq!(store.pressure_delta(), 2);
    }

    #[test]
    fn arity_table_pins_every_opcode_and_construction_stops_at_it() {
        use Opcode::*;
        let table = [
            (Lw, 1, 1),
            (Ldc1, 1, 1),
            (Sw, 0, 2),
            (Sdc1, 0, 2),
            (Add, 1, 2),
            (Sub, 1, 2),
            (Mul, 1, 2),
            (Sll, 1, 2),
            (Li, 1, 0),
            (Move, 1, 1),
            (FAdd, 1, 2),
            (FSub, 1, 2),
            (FMul, 1, 2),
            (FDiv, 1, 2),
            (FNeg, 1, 1),
            (FMove, 1, 1),
            (FAbs, 1, 1),
            (SpillLoad, 1, 0),
            (SpillStore, 0, 1),
            (VNop, 0, 0),
        ];
        assert_eq!(table.len(), Opcode::ALL.len() + 1, "every opcode and VNop");
        let widest = table.iter().fold((0, 0), |(d, u), &(_, defs, uses)| {
            (d.max(defs), u.max(uses))
        });
        assert_eq!(
            (MAX_DEFS, MAX_USES),
            widest,
            "the inline arrays fit the table"
        );
        let mem = |op: Opcode| {
            if op.is_load() {
                Some(read_acc())
            } else if op.is_store() {
                Some(write_acc())
            } else {
                None
            }
        };
        let quiet = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        for (op, defs, uses) in table {
            assert_eq!((op.max_defs(), op.max_uses()), (defs, uses), "{op}");
            let at = Inst::new(op, vec![vr(0); defs], vec![vr(1); uses], mem(op));
            assert_eq!((at.defs().len(), at.uses().len()), (defs, uses), "{op}");
            for (d, u) in [(defs + 1, uses), (defs, uses + 1)] {
                let past = std::panic::catch_unwind(|| {
                    Inst::new(op, vec![vr(0); d], vec![vr(1); u], mem(op))
                });
                assert!(past.is_err(), "{op} accepted {d} defs and {u} uses");
            }
        }
        std::panic::set_hook(quiet);
    }

    #[test]
    fn map_regs_rewrites_all_operands() {
        let mut i = Inst::new(Opcode::FAdd, vec![vf(0)], vec![vf(1), vf(2)], None);
        i.map_regs(|r| match r {
            Reg::Virt(v) => VirtReg::new(v.class(), v.index() + 10).into(),
            other => other,
        });
        assert_eq!(i.defs(), &[vf(10)]);
        assert_eq!(i.uses(), &[vf(11), vf(12)]);
    }

    #[test]
    fn display_includes_name_and_operands() {
        let i = Inst::new(Opcode::Ldc1, vec![vf(0)], vec![vr(1)], Some(read_acc())).with_name("L0");
        let s = i.to_string();
        assert!(s.starts_with("L0: ldc1"), "{s}");
        assert!(s.contains("vf0"), "{s}");
        assert!(s.contains("@0[0]"), "{s}");
    }

    #[test]
    fn inst_id_roundtrip() {
        let id = InstId::from_usize(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(id.to_string(), "i42");
        assert!(InstId::new(1) < InstId::new(2));
    }
}
