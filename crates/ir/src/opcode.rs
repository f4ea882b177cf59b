//! Opcodes of the MIPS-like target.
//!
//! The set is intentionally small — the schedulers only care about three
//! properties of an instruction: whether it is a **load** (uncertain
//! latency), whether it is a **store** (memory ordering), and its nominal
//! **latency** / issue-slot requirement. Everything else (actual ALU
//! semantics) is irrelevant to scheduling and simulation of cycle counts,
//! so opcodes here carry no value semantics.

use std::fmt;

use crate::reg::RegClass;

/// Instruction opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Load an integer word from memory.
    Lw,
    /// Load a floating-point double from memory.
    Ldc1,
    /// Store an integer word to memory.
    Sw,
    /// Store a floating-point double to memory.
    Sdc1,
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Shift left logical (used for index scaling).
    Sll,
    /// Load immediate into an integer register.
    Li,
    /// Integer register move.
    Move,
    /// Floating-point add.
    FAdd,
    /// Floating-point subtract.
    FSub,
    /// Floating-point multiply.
    FMul,
    /// Floating-point divide.
    FDiv,
    /// Floating-point negate.
    FNeg,
    /// Floating-point register move.
    FMove,
    /// Floating-point absolute value.
    FAbs,
    /// Reload of a spilled value (inserted by the register allocator).
    ///
    /// Semantically a load; kept distinct so spill statistics (paper
    /// Table 4) can be computed by opcode inspection.
    SpillLoad,
    /// Spill of a live value to the stack (inserted by the allocator).
    SpillStore,
    /// A virtual no-op inserted by the list scheduler when the ready list
    /// starves (§4.1). Removed before code generation; the simulator never
    /// sees one.
    VNop,
}

impl Opcode {
    /// All opcodes, for exhaustive iteration in tests.
    pub const ALL: [Opcode; 19] = [
        Opcode::Lw,
        Opcode::Ldc1,
        Opcode::Sw,
        Opcode::Sdc1,
        Opcode::Add,
        Opcode::Sub,
        Opcode::Mul,
        Opcode::Sll,
        Opcode::Li,
        Opcode::Move,
        Opcode::FAdd,
        Opcode::FSub,
        Opcode::FMul,
        Opcode::FDiv,
        Opcode::FNeg,
        Opcode::FMove,
        Opcode::FAbs,
        Opcode::SpillLoad,
        Opcode::SpillStore,
    ];

    /// `true` for instructions that read memory (including spill reloads).
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Lw | Opcode::Ldc1 | Opcode::SpillLoad)
    }

    /// `true` for instructions that write memory (including spill stores).
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Sw | Opcode::Sdc1 | Opcode::SpillStore)
    }

    /// `true` for instructions inserted by the register allocator —
    /// the paper's definition of spill code (§5: "a spill instruction is
    /// any instruction that is inserted by the register allocator").
    #[must_use]
    pub fn is_spill(self) -> bool {
        matches!(self, Opcode::SpillLoad | Opcode::SpillStore)
    }

    /// `true` for the scheduler-internal virtual no-op.
    #[must_use]
    pub fn is_vnop(self) -> bool {
        matches!(self, Opcode::VNop)
    }

    /// Register class of the value this opcode produces or transports.
    ///
    /// Loads/stores of FP data and FP arithmetic are [`RegClass::Float`];
    /// everything else is [`RegClass::Int`]. Spill opcodes are class-neutral
    /// and report `Int` here; their instruction operands carry the real
    /// class.
    #[must_use]
    pub fn value_class(self) -> RegClass {
        match self {
            Opcode::Ldc1
            | Opcode::Sdc1
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FDiv
            | Opcode::FNeg
            | Opcode::FMove
            | Opcode::FAbs => RegClass::Float,
            _ => RegClass::Int,
        }
    }

    /// Most registers an instruction of this opcode writes: the arity
    /// table that sizes [`Inst`](crate::Inst)'s inline operand arrays.
    #[must_use]
    pub fn max_defs(self) -> usize {
        match self {
            Opcode::Sw | Opcode::Sdc1 | Opcode::SpillStore | Opcode::VNop => 0,
            _ => 1,
        }
    }

    /// Most registers an instruction of this opcode reads: a load's base,
    /// a store's value and base, an operation's operands.
    #[must_use]
    pub fn max_uses(self) -> usize {
        match self {
            Opcode::Li | Opcode::SpillLoad | Opcode::VNop => 0,
            Opcode::Lw
            | Opcode::Ldc1
            | Opcode::Move
            | Opcode::FNeg
            | Opcode::FMove
            | Opcode::FAbs
            | Opcode::SpillStore => 1,
            Opcode::Sw
            | Opcode::Sdc1
            | Opcode::Add
            | Opcode::Sub
            | Opcode::Mul
            | Opcode::Sll
            | Opcode::FAdd
            | Opcode::FSub
            | Opcode::FMul
            | Opcode::FDiv => 2,
        }
    }

    /// Issue slots this instruction occupies (`IssueSlots(i)` in Fig. 6).
    ///
    /// 1 for every opcode on the paper's single-issue machine.
    #[must_use]
    pub fn issue_slots(self) -> u32 {
        1
    }

    /// Assembly mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Lw => "lw",
            Opcode::Ldc1 => "ldc1",
            Opcode::Sw => "sw",
            Opcode::Sdc1 => "sdc1",
            Opcode::Add => "add",
            Opcode::Sub => "sub",
            Opcode::Mul => "mul",
            Opcode::Sll => "sll",
            Opcode::Li => "li",
            Opcode::Move => "move",
            Opcode::FAdd => "add.d",
            Opcode::FSub => "sub.d",
            Opcode::FMul => "mul.d",
            Opcode::FDiv => "div.d",
            Opcode::FNeg => "neg.d",
            Opcode::FMove => "mov.d",
            Opcode::FAbs => "abs.d",
            Opcode::SpillLoad => "reload",
            Opcode::SpillStore => "spill",
            Opcode::VNop => "vnop",
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Fixed (certain) result latencies per opcode.
///
/// The paper's machines execute every non-load in one cycle (§4.3), which
/// is [`OpLatencies::unit`] — the default everywhere. The §6 extension
/// ("other multi-cycle instructions, e.g. floating point operations
/// coupled with asynchronous floating point units") is exercised with
/// [`OpLatencies::mips_fpu`]-style tables: schedulers then pad dependent
/// FP chains and the simulator delays FP results accordingly. Loads are
/// *not* covered by this table — their latency is the uncertain quantity
/// sampled by the memory model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpLatencies {
    fadd: u32,
    fmul: u32,
    fdiv: u32,
}

impl OpLatencies {
    /// Every instruction takes one cycle (the paper's model).
    #[must_use]
    pub fn unit() -> Self {
        Self {
            fadd: 1,
            fmul: 1,
            fdiv: 1,
        }
    }

    /// An R3000-flavoured FP unit: add/sub 2 cycles, multiply 4,
    /// divide 12.
    #[must_use]
    pub fn mips_fpu() -> Self {
        Self {
            fadd: 2,
            fmul: 4,
            fdiv: 12,
        }
    }

    /// A custom table.
    ///
    /// # Panics
    ///
    /// Panics if any latency is zero.
    #[must_use]
    pub fn new(fadd: u32, fmul: u32, fdiv: u32) -> Self {
        assert!(
            fadd >= 1 && fmul >= 1 && fdiv >= 1,
            "latencies must be at least 1"
        );
        Self { fadd, fmul, fdiv }
    }

    /// The fixed result latency of `op` (1 for loads — see type docs —
    /// and all integer operations).
    #[must_use]
    pub fn latency(&self, op: Opcode) -> u32 {
        match op {
            Opcode::FAdd | Opcode::FSub | Opcode::FNeg => self.fadd,
            Opcode::FMul => self.fmul,
            Opcode::FDiv => self.fdiv,
            _ => 1,
        }
    }
}

impl Default for OpLatencies {
    fn default() -> Self {
        Self::unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_classification() {
        assert!(Opcode::Lw.is_load());
        assert!(Opcode::Ldc1.is_load());
        assert!(Opcode::SpillLoad.is_load());
        assert!(!Opcode::Sw.is_load());
        assert!(Opcode::Sw.is_store());
        assert!(Opcode::Sdc1.is_store());
        assert!(Opcode::SpillStore.is_store());
        assert!(!Opcode::FAdd.is_load());
        assert!(!Opcode::FAdd.is_store());
    }

    #[test]
    fn no_opcode_is_both_load_and_store() {
        for op in Opcode::ALL {
            assert!(!(op.is_load() && op.is_store()), "{op} is both");
        }
    }

    #[test]
    fn spill_classification() {
        assert!(Opcode::SpillLoad.is_spill());
        assert!(Opcode::SpillStore.is_spill());
        assert!(!Opcode::Lw.is_spill());
        assert!(!Opcode::Sw.is_spill());
    }

    #[test]
    fn single_cycle_single_issue() {
        for op in Opcode::ALL {
            assert_eq!(op.issue_slots(), 1, "{op}");
        }
    }

    #[test]
    fn value_classes() {
        assert_eq!(Opcode::Ldc1.value_class(), RegClass::Float);
        assert_eq!(Opcode::FMul.value_class(), RegClass::Float);
        assert_eq!(Opcode::Lw.value_class(), RegClass::Int);
        assert_eq!(Opcode::Add.value_class(), RegClass::Int);
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut names: Vec<&str> = Opcode::ALL.iter().map(|o| o.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Opcode::ALL.len());
    }

    #[test]
    fn op_latencies_tables() {
        let unit = OpLatencies::unit();
        for op in Opcode::ALL {
            assert_eq!(unit.latency(op), 1, "{op}");
        }
        let fpu = OpLatencies::mips_fpu();
        assert_eq!(fpu.latency(Opcode::FAdd), 2);
        assert_eq!(fpu.latency(Opcode::FSub), 2);
        assert_eq!(fpu.latency(Opcode::FMul), 4);
        assert_eq!(fpu.latency(Opcode::FDiv), 12);
        assert_eq!(fpu.latency(Opcode::Add), 1);
        assert_eq!(fpu.latency(Opcode::Ldc1), 1, "loads stay uncertain");
        assert_eq!(OpLatencies::default(), unit);
    }

    #[test]
    #[should_panic(expected = "latencies must be at least 1")]
    fn zero_op_latency_panics() {
        let _ = OpLatencies::new(0, 1, 1);
    }

    #[test]
    fn vnop_is_special() {
        assert!(Opcode::VNop.is_vnop());
        assert!(!Opcode::VNop.is_load());
        assert!(!Opcode::VNop.is_store());
        assert!(
            Opcode::ALL.iter().all(|o| !o.is_vnop()),
            "ALL excludes VNop"
        );
    }
}
