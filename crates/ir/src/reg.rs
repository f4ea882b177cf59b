//! Registers: classes, virtual registers and physical registers.

use std::fmt;

/// Register class: the MIPS has separate integer and floating-point files.
///
/// Classes matter to the register allocator (each class has its own
/// physical file and its own spill pool) and to the workload generator
/// (numeric kernels keep addresses in integer registers and data in FP
/// registers, which is what shapes register pressure in the paper's
/// Fortran programs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// General-purpose integer register (addresses, indices, integer data).
    Int,
    /// Floating-point register.
    Float,
}

impl RegClass {
    /// All register classes, in a fixed order.
    pub const ALL: [RegClass; 2] = [RegClass::Int, RegClass::Float];

    /// Single-letter prefix used in textual IR (`r` / `f`).
    #[must_use]
    pub fn prefix(self) -> char {
        match self {
            RegClass::Int => 'r',
            RegClass::Float => 'f',
        }
    }
}

impl fmt::Display for RegClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegClass::Int => write!(f, "int"),
            RegClass::Float => write!(f, "float"),
        }
    }
}

/// A virtual register: unbounded supply, produced by the front end.
///
/// The first scheduling pass runs entirely on virtual registers so that no
/// false (anti/output) dependences restrict code motion — mirroring GCC's
/// pre-register-allocation scheduling pass (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VirtReg {
    class: RegClass,
    index: u32,
}

impl VirtReg {
    /// Creates a virtual register of `class` with arbitrary `index`.
    #[must_use]
    pub const fn new(class: RegClass, index: u32) -> Self {
        Self { class, index }
    }

    /// The register's class.
    #[must_use]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register's index within its class.
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }
}

impl fmt::Display for VirtReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}{}", self.class.prefix(), self.index)
    }
}

/// A physical register: one of a finite machine file.
///
/// Produced by register allocation; the second scheduling pass must honour
/// the anti- and output dependences physical registers introduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysReg {
    class: RegClass,
    index: u32,
}

impl PhysReg {
    /// Creates a physical register of `class` with hardware number `index`.
    #[must_use]
    pub const fn new(class: RegClass, index: u32) -> Self {
        Self { class, index }
    }

    /// The register's class.
    #[must_use]
    pub fn class(self) -> RegClass {
        self.class
    }

    /// The register's hardware number within its class.
    #[must_use]
    pub fn index(self) -> u32 {
        self.index
    }
}

impl fmt::Display for PhysReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

/// Either a virtual or a physical register.
///
/// Instructions store `Reg` operands so the same IR type flows through both
/// scheduling passes; a block is either entirely virtual (pre-allocation)
/// or entirely physical (post-allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Reg {
    /// A virtual register.
    Virt(VirtReg),
    /// A physical register.
    Phys(PhysReg),
}

impl Reg {
    /// The register's class.
    #[must_use]
    pub fn class(self) -> RegClass {
        match self {
            Reg::Virt(v) => v.class(),
            Reg::Phys(p) => p.class(),
        }
    }

    /// Returns the contained virtual register, if any.
    #[must_use]
    pub fn as_virt(self) -> Option<VirtReg> {
        match self {
            Reg::Virt(v) => Some(v),
            Reg::Phys(_) => None,
        }
    }

    /// Returns the contained physical register, if any.
    #[must_use]
    pub fn as_phys(self) -> Option<PhysReg> {
        match self {
            Reg::Phys(p) => Some(p),
            Reg::Virt(_) => None,
        }
    }

    /// `true` for virtual registers.
    #[must_use]
    pub fn is_virt(self) -> bool {
        matches!(self, Reg::Virt(_))
    }
}

impl From<VirtReg> for Reg {
    fn from(v: VirtReg) -> Self {
        Reg::Virt(v)
    }
}

impl From<PhysReg> for Reg {
    fn from(p: PhysReg) -> Self {
        Reg::Phys(p)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reg::Virt(v) => v.fmt(f),
            Reg::Phys(p) => p.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(VirtReg::new(RegClass::Int, 3).to_string(), "vr3");
        assert_eq!(VirtReg::new(RegClass::Float, 0).to_string(), "vf0");
        assert_eq!(PhysReg::new(RegClass::Int, 31).to_string(), "r31");
        assert_eq!(
            Reg::from(PhysReg::new(RegClass::Float, 7)).to_string(),
            "f7"
        );
    }

    #[test]
    fn class_is_preserved() {
        let v = VirtReg::new(RegClass::Float, 1);
        let r: Reg = v.into();
        assert_eq!(r.class(), RegClass::Float);
        assert_eq!(r.as_virt(), Some(v));
        assert_eq!(r.as_phys(), None);
        assert!(r.is_virt());
    }

    #[test]
    fn phys_conversions() {
        let p = PhysReg::new(RegClass::Int, 4);
        let r: Reg = p.into();
        assert_eq!(r.as_phys(), Some(p));
        assert!(!r.is_virt());
    }

    #[test]
    fn ordering_groups_by_class_then_index() {
        let a = VirtReg::new(RegClass::Int, 5);
        let b = VirtReg::new(RegClass::Float, 0);
        assert!(a < b, "Int sorts before Float");
        let c = VirtReg::new(RegClass::Int, 6);
        assert!(a < c);
    }

    #[test]
    fn regclass_all_is_exhaustive() {
        assert_eq!(RegClass::ALL.len(), 2);
        assert_eq!(RegClass::Int.prefix(), 'r');
        assert_eq!(RegClass::Float.prefix(), 'f');
    }
}
