//! Abstract micro-operations.

use mcc_machine::{AluOp, CondKind, Semantic, ShiftOp, SrcList};

use crate::func::BlockId;
use crate::operand::Operand;

/// One abstract micro-operation: a [`Semantic`] plus operands. Unlike a
/// bound operation, operands may be virtual and no machine template has
/// been chosen yet. Its sources are held inline, so it is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MirOp {
    /// What the operation does.
    pub sem: Semantic,
    /// Destination operand, when the operation produces a value.
    pub dst: Option<Operand>,
    /// Source operands, at most [`MAX_SRCS`](mcc_machine::MAX_SRCS). For
    /// [`Semantic::MemRead`] this is `[addr]`; for [`Semantic::MemWrite`]
    /// it is `[addr, data]`.
    pub srcs: SrcList<Operand>,
    /// Immediate constant (shift amounts, `LoadImm` values, dispatch masks).
    pub imm: Option<u64>,
    /// Call target (procedure entry block). Branch targets live in
    /// [`Term`](crate::Term), not here.
    pub target: Option<BlockId>,
    /// Condition tested (only set on in-block conditional ops, which the
    /// IR does not currently have; kept for symmetry with `BoundOp`).
    pub cond: Option<CondKind>,
    /// Set by the dead-flag analysis (`mcc-core`): nothing observes the
    /// condition flags this operation would set, so selection may use a
    /// flag-free template variant (unlocking packing past the single
    /// flags register, §2.1.3's classic "bizarre constraint").
    pub flags_dead: bool,
}

impl MirOp {
    /// A bare operation with the given semantic.
    pub fn new(sem: Semantic) -> Self {
        MirOp {
            sem,
            dst: None,
            srcs: SrcList::new(),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = a <op> b`.
    pub fn alu(op: AluOp, dst: impl Into<Operand>, a: impl Into<Operand>, b: impl Into<Operand>) -> Self {
        MirOp {
            sem: Semantic::Alu(op),
            dst: Some(dst.into()),
            srcs: SrcList::from([a.into(), b.into()]),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = a <op> imm`.
    pub fn alu_imm(op: AluOp, dst: impl Into<Operand>, a: impl Into<Operand>, imm: u64) -> Self {
        MirOp {
            sem: Semantic::Alu(op),
            dst: Some(dst.into()),
            srcs: SrcList::from([a.into()]),
            imm: Some(imm),
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = <op> a` (unary ALU operation).
    pub fn alu_un(op: AluOp, dst: impl Into<Operand>, a: impl Into<Operand>) -> Self {
        debug_assert!(op.is_unary());
        MirOp {
            sem: Semantic::Alu(op),
            dst: Some(dst.into()),
            srcs: SrcList::from([a.into()]),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = shift(a, amount)`.
    pub fn shift(op: ShiftOp, dst: impl Into<Operand>, a: impl Into<Operand>, amount: u64) -> Self {
        MirOp {
            sem: Semantic::Shift(op),
            dst: Some(dst.into()),
            srcs: SrcList::from([a.into()]),
            imm: Some(amount),
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = a`.
    pub fn mov(dst: impl Into<Operand>, a: impl Into<Operand>) -> Self {
        MirOp {
            sem: Semantic::Move,
            dst: Some(dst.into()),
            srcs: SrcList::from([a.into()]),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = value`.
    pub fn ldi(dst: impl Into<Operand>, value: u64) -> Self {
        MirOp {
            sem: Semantic::LoadImm,
            dst: Some(dst.into()),
            srcs: SrcList::new(),
            imm: Some(value),
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `dst = MEM[addr]`.
    pub fn load(dst: impl Into<Operand>, addr: impl Into<Operand>) -> Self {
        MirOp {
            sem: Semantic::MemRead,
            dst: Some(dst.into()),
            srcs: SrcList::from([addr.into()]),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// `MEM[addr] = data`.
    pub fn store(addr: impl Into<Operand>, data: impl Into<Operand>) -> Self {
        MirOp {
            sem: Semantic::MemWrite,
            dst: None,
            srcs: SrcList::from([addr.into(), data.into()]),
            imm: None,
            target: None,
            cond: None,
            flags_dead: false,
        }
    }

    /// A micro-subroutine call to the procedure entered at `entry`.
    pub fn call(entry: BlockId) -> Self {
        MirOp {
            sem: Semantic::Call,
            dst: None,
            srcs: SrcList::new(),
            imm: None,
            target: Some(entry),
            cond: None,
            flags_dead: false,
        }
    }

    /// An interrupt poll point.
    pub fn poll() -> Self {
        MirOp::new(Semantic::Poll)
    }

    /// All register operands read by this op.
    pub fn uses(&self) -> &[Operand] {
        &self.srcs
    }

    /// The register operand written by this op, if any.
    pub fn def(&self) -> Option<Operand> {
        self.dst
    }

    /// Whether this op updates the condition flags on typical machines
    /// (ALU and shift operations do; data movement does not).
    pub fn sets_flags(&self) -> bool {
        matches!(self.sem, Semantic::Alu(_) | Semantic::Shift(_))
    }
}

impl std::fmt::Display for MirOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}", self.sem)?;
        if let Some(d) = self.dst {
            write!(f, " {d} <-")?;
        }
        for s in &self.srcs {
            write!(f, " {s}")?;
        }
        if let Some(i) = self.imm {
            write!(f, " #{i}")?;
        }
        if let Some(t) = self.target {
            write!(f, " @b{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::VReg;

    #[test]
    fn constructors_shape_operands() {
        let v = |i| VReg(i);
        let add = MirOp::alu(AluOp::Add, v(0), v(1), v(2));
        assert_eq!(add.srcs.len(), 2);
        assert!(add.dst.is_some());
        assert!(add.sets_flags());

        let st = MirOp::store(v(0), v(1));
        assert!(st.dst.is_none());
        assert_eq!(st.srcs.len(), 2);
        assert!(!st.sets_flags());

        let ld = MirOp::load(v(2), v(0));
        assert_eq!(ld.srcs.len(), 1);

        let sh = MirOp::shift(ShiftOp::Shr, v(3), v(3), 1);
        assert_eq!(sh.imm, Some(1));
        assert!(sh.sets_flags());

        let li = MirOp::ldi(v(4), 0xFFFF);
        assert_eq!(li.imm, Some(0xFFFF));
        assert!(li.srcs.is_empty());
    }

    #[test]
    fn display_is_nonempty() {
        let op = MirOp::alu(AluOp::Xor, VReg(0), VReg(1), VReg(2));
        assert!(op.to_string().contains("Xor"));
    }
}
