//! Operands: virtual or physical registers.

use mcc_machine::RegRef;

/// A virtual register — a symbolic variable before allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl std::fmt::Display for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A register operand of a [`MirOp`](crate::MirOp): either a virtual
/// register awaiting allocation or a physical machine register (the
/// "variables *are* machine registers" view of SIMPL, S\* and YALLL).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Operand {
    /// A virtual register.
    Vreg(VReg),
    /// A physical register.
    Reg(RegRef),
}

impl Operand {
    /// The physical register, if this operand is one.
    pub fn as_reg(self) -> Option<RegRef> {
        match self {
            Operand::Reg(r) => Some(r),
            Operand::Vreg(_) => None,
        }
    }

    /// Whether this operand is still virtual.
    pub fn is_virtual(self) -> bool {
        matches!(self, Operand::Vreg(_))
    }
}

/// A register or an immediate constant: the right operand of a
/// comparison and of most frontends' binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegOrImm {
    /// A register.
    Reg(Operand),
    /// A constant.
    Imm(u64),
}

impl From<VReg> for Operand {
    fn from(v: VReg) -> Self {
        Operand::Vreg(v)
    }
}

impl From<RegRef> for Operand {
    fn from(r: RegRef) -> Self {
        Operand::Reg(r)
    }
}

impl std::fmt::Display for Operand {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operand::Vreg(v) => write!(f, "{v}"),
            Operand::Reg(r) => write!(f, "{r}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::ids::FileId;

    #[test]
    fn conversions() {
        let v = Operand::from(VReg(3));
        assert!(v.is_virtual());
        assert_eq!(v.as_reg(), None);
        let r = Operand::from(RegRef::new(FileId(0), 5));
        assert!(!r.is_virtual());
        assert_eq!(r.as_reg(), Some(RegRef::new(FileId(0), 5)));
    }

    #[test]
    fn display() {
        assert_eq!(Operand::from(VReg(7)).to_string(), "v7");
    }
}
