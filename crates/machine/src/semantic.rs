//! The machine-independent meaning of micro-operations.
//!
//! Every micro-operation template of every machine carries a [`Semantic`]
//! describing its architectural effect; the simulator executes semantics,
//! and the instruction selector matches the abstract operations of the IR
//! against them. Semantics are deliberately at the level of the primitives
//! shared by SIMPL, EMPL and YALLL in the survey: ALU operations, shifts,
//! moves, memory access, and sequencing.

/// Binary and unary ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `dst = a + b`
    Add,
    /// `dst = a + b + carry`
    Adc,
    /// `dst = a - b`
    Sub,
    /// `dst = a - b - borrow`
    Sbb,
    /// `dst = a & b`
    And,
    /// `dst = a | b`
    Or,
    /// `dst = a ^ b`
    Xor,
    /// `dst = !(a & b)`
    Nand,
    /// `dst = !(a | b)`
    Nor,
    /// `dst = !a` (unary)
    Not,
    /// `dst = -a` (two's complement, unary)
    Neg,
    /// `dst = a + 1` (unary)
    Inc,
    /// `dst = a - 1` (unary)
    Dec,
    /// `dst = a` (pass-through; how moves ride the ALU on many machines)
    Pass,
}

impl AluOp {
    /// Every operation with its name (its MDL spelling after `alu.`, and
    /// the frontends' mnemonic), in declaration order.
    const NAMES: [(AluOp, &'static str); 14] = [
        (AluOp::Add, "add"),
        (AluOp::Adc, "adc"),
        (AluOp::Sub, "sub"),
        (AluOp::Sbb, "sbb"),
        (AluOp::And, "and"),
        (AluOp::Or, "or"),
        (AluOp::Xor, "xor"),
        (AluOp::Nand, "nand"),
        (AluOp::Nor, "nor"),
        (AluOp::Not, "not"),
        (AluOp::Neg, "neg"),
        (AluOp::Inc, "inc"),
        (AluOp::Dec, "dec"),
        (AluOp::Pass, "pass"),
    ];

    /// The operation's name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The operation whose [`name`](Self::name) is `name`, exactly.
    pub fn from_name(name: &str) -> Option<AluOp> {
        Self::NAMES.iter().find(|&&(_, n)| n == name).map(|&(op, _)| op)
    }

    /// Whether the operation takes a single source operand.
    pub fn is_unary(self) -> bool {
        matches!(self, AluOp::Not | AluOp::Neg | AluOp::Inc | AluOp::Dec | AluOp::Pass)
    }

    /// Applies the operation to `width`-bit operands, returning
    /// `(result, carry_out, overflow)`.
    pub fn apply(self, a: u64, b: u64, carry_in: bool, width: u16) -> (u64, bool, bool) {
        let mask = width_mask(width);
        let (a, b) = (a & mask, b & mask);
        let sign = 1u64 << (width - 1);
        match self {
            AluOp::Add | AluOp::Adc => {
                let c = if self == AluOp::Adc && carry_in { 1 } else { 0 };
                let full = (a as u128) + (b as u128) + c as u128;
                let r = (full as u64) & mask;
                let carry = full > mask as u128;
                let ovf = ((a ^ r) & (b ^ r) & sign) != 0;
                (r, carry, ovf)
            }
            AluOp::Sub | AluOp::Sbb => {
                let c = if self == AluOp::Sbb && carry_in { 1 } else { 0 };
                let full = (a as i128) - (b as i128) - c as i128;
                let r = (full as u64) & mask;
                let borrow = full < 0;
                let ovf = ((a ^ b) & (a ^ r) & sign) != 0;
                (r, borrow, ovf)
            }
            AluOp::And => (a & b, false, false),
            AluOp::Or => (a | b, false, false),
            AluOp::Xor => (a ^ b, false, false),
            AluOp::Nand => (!(a & b) & mask, false, false),
            AluOp::Nor => (!(a | b) & mask, false, false),
            AluOp::Not => (!a & mask, false, false),
            AluOp::Neg => {
                let r = a.wrapping_neg() & mask;
                (r, a != 0, a == sign)
            }
            AluOp::Inc => {
                let r = a.wrapping_add(1) & mask;
                (r, a == mask, a == mask >> 1)
            }
            AluOp::Dec => {
                let r = a.wrapping_sub(1) & mask;
                (r, a == 0, a == sign)
            }
            AluOp::Pass => (a, false, false),
        }
    }
}

/// Shift and rotate operations. All take a source and a shift amount.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftOp {
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right (sign-propagating).
    Sar,
    /// Rotate left.
    Rol,
    /// Rotate right.
    Ror,
}

impl ShiftOp {
    /// Every shift with its name (its MDL spelling after `shift.`, and
    /// every frontend's mnemonic or keyword), in declaration order.
    pub const NAMES: [(ShiftOp, &'static str); 5] = [
        (ShiftOp::Shl, "shl"),
        (ShiftOp::Shr, "shr"),
        (ShiftOp::Sar, "sar"),
        (ShiftOp::Rol, "rol"),
        (ShiftOp::Ror, "ror"),
    ];

    /// The shift's name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize].1
    }

    /// The shift whose [`name`](Self::name) is `name`, exactly.
    pub fn from_name(name: &str) -> Option<ShiftOp> {
        Self::NAMES.iter().find(|&&(_, n)| n == name).map(|&(op, _)| op)
    }

    /// Applies the shift to a `width`-bit value, returning
    /// `(result, uf)` where `uf` is the last bit shifted out (the `UF`
    /// condition of the SIMPL multiplication example in the paper).
    pub fn apply(self, a: u64, amount: u32, width: u16) -> (u64, bool) {
        let mask = width_mask(width);
        let a = a & mask;
        let w = width as u32;
        let n = amount % w.max(1);
        if n == 0 {
            // A zero shift moves nothing out.
            return (a, false);
        }
        match self {
            ShiftOp::Shl => {
                let uf = (a >> (w - n)) & 1 != 0;
                ((a << n) & mask, uf)
            }
            ShiftOp::Shr => {
                let uf = (a >> (n - 1)) & 1 != 0;
                (a >> n, uf)
            }
            ShiftOp::Sar => {
                let uf = (a >> (n - 1)) & 1 != 0;
                let sign = (a >> (w - 1)) & 1;
                let mut r = a >> n;
                if sign != 0 {
                    r |= mask & !(mask >> n);
                }
                (r & mask, uf)
            }
            ShiftOp::Rol => {
                let r = ((a << n) | (a >> (w - n))) & mask;
                let uf = r & 1 != 0; // last bit rotated around
                (r, uf)
            }
            ShiftOp::Ror => {
                let r = ((a >> n) | (a << (w - n))) & mask;
                let uf = (r >> (w - 1)) & 1 != 0;
                (r, uf)
            }
        }
    }
}

/// Testable machine conditions, used by conditional branch
/// micro-operations. Each machine lists which of these its sequencer can
/// test; the encoding of a condition is its position in that list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CondKind {
    /// Always true (turns a conditional branch into a jump).
    True,
    /// Result was zero.
    Zero,
    /// Result was nonzero.
    NotZero,
    /// Result was negative (sign bit set).
    Neg,
    /// Result was non-negative.
    NotNeg,
    /// Carry/borrow out.
    Carry,
    /// No carry.
    NotCarry,
    /// Two's-complement overflow.
    Overflow,
    /// The `UF` bit: last bit shifted out of the shifter (paper §2.2.1).
    Uf,
    /// `UF` clear.
    NotUf,
}

impl CondKind {
    /// Evaluates the condition against a flags word as packed by
    /// the simulator's flag bits `(z, n, c, v, uf)`.
    pub fn eval(self, z: bool, n: bool, c: bool, v: bool, uf: bool) -> bool {
        match self {
            CondKind::True => true,
            CondKind::Zero => z,
            CondKind::NotZero => !z,
            CondKind::Neg => n,
            CondKind::NotNeg => !n,
            CondKind::Carry => c,
            CondKind::NotCarry => !c,
            CondKind::Overflow => v,
            CondKind::Uf => uf,
            CondKind::NotUf => !uf,
        }
    }

    /// The logically negated condition.
    pub fn negate(self) -> CondKind {
        match self {
            CondKind::True => CondKind::True, // no "false" condition exists
            CondKind::Zero => CondKind::NotZero,
            CondKind::NotZero => CondKind::Zero,
            CondKind::Neg => CondKind::NotNeg,
            CondKind::NotNeg => CondKind::Neg,
            CondKind::Carry => CondKind::NotCarry,
            CondKind::NotCarry => CondKind::Carry,
            CondKind::Overflow => CondKind::Overflow,
            CondKind::Uf => CondKind::NotUf,
            CondKind::NotUf => CondKind::Uf,
        }
    }
}

/// The architectural meaning of a micro-operation template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Semantic {
    /// ALU operation; binary ops use `src0`, `src1` (or `src0`, `imm`);
    /// unary ops use `src0`.
    Alu(AluOp),
    /// Shift of `src0` by an immediate amount.
    Shift(ShiftOp),
    /// Register-to-register move over a bus (not through the ALU).
    Move,
    /// Load an immediate constant into the destination.
    LoadImm,
    /// `dst = MEM[src0]`; may trigger a page-fault microtrap.
    MemRead,
    /// `MEM[src0] = src1`; may trigger a page-fault microtrap.
    MemWrite,
    /// Unconditional micro-jump to `target`.
    Jump,
    /// Conditional micro-branch: if `cond` holds, go to `target`.
    Branch,
    /// Multiway dispatch: `µPC = target + (src0 & imm)` (the case/mbranch
    /// facility; the mask comes from the immediate field).
    Dispatch,
    /// Micro-subroutine call to `target` (pushes the return address).
    Call,
    /// Micro-subroutine return (pops the return address).
    Return,
    /// Poll for pending interrupts; if one is pending the machine services
    /// it before the next microinstruction (§2.1.5 of the paper).
    Poll,
    /// Stop the microengine.
    Halt,
    /// No operation (occupies nothing).
    Nop,
}

impl Semantic {
    /// Whether the semantic affects microprogram sequencing.
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Semantic::Jump
                | Semantic::Branch
                | Semantic::Dispatch
                | Semantic::Call
                | Semantic::Return
                | Semantic::Halt
        )
    }

    /// Whether the semantic may trigger a microtrap (page fault).
    pub fn may_trap(self) -> bool {
        matches!(self, Semantic::MemRead | Semantic::MemWrite)
    }
}

/// Masks a value to `width` bits.
pub fn width_mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_carry_and_overflow() {
        let (r, c, v) = AluOp::Add.apply(0xFFFF, 1, false, 16);
        assert_eq!(r, 0);
        assert!(c);
        assert!(!v);
        let (r, c, v) = AluOp::Add.apply(0x7FFF, 1, false, 16);
        assert_eq!(r, 0x8000);
        assert!(!c);
        assert!(v, "0x7FFF + 1 overflows signed 16-bit");
    }

    #[test]
    fn sub_borrow() {
        let (r, b, _) = AluOp::Sub.apply(0, 1, false, 16);
        assert_eq!(r, 0xFFFF);
        assert!(b);
        let (r, b, _) = AluOp::Sub.apply(5, 3, false, 16);
        assert_eq!(r, 2);
        assert!(!b);
    }

    #[test]
    fn adc_and_sbb_use_carry_in() {
        let (r, _, _) = AluOp::Adc.apply(1, 1, true, 16);
        assert_eq!(r, 3);
        let (r, _, _) = AluOp::Sbb.apply(5, 2, true, 16);
        assert_eq!(r, 2);
    }

    #[test]
    fn unary_ops() {
        assert!(AluOp::Not.is_unary());
        assert!(!AluOp::Add.is_unary());
        assert_eq!(AluOp::Not.apply(0x00FF, 0, false, 16).0, 0xFF00);
        assert_eq!(AluOp::Neg.apply(1, 0, false, 16).0, 0xFFFF);
        assert_eq!(AluOp::Inc.apply(0xFFFF, 0, false, 16).0, 0);
        assert_eq!(AluOp::Dec.apply(0, 0, false, 16).0, 0xFFFF);
        assert_eq!(AluOp::Pass.apply(42, 99, false, 16).0, 42);
    }

    #[test]
    fn logic_ops() {
        assert_eq!(AluOp::And.apply(0b1100, 0b1010, false, 4).0, 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010, false, 4).0, 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010, false, 4).0, 0b0110);
        assert_eq!(AluOp::Nand.apply(0b1100, 0b1010, false, 4).0, 0b0111);
        assert_eq!(AluOp::Nor.apply(0b1100, 0b1010, false, 4).0, 0b0001);
    }

    #[test]
    fn shifts_and_uf_bit() {
        // SIMPL's multiply tests UF = last bit shifted out.
        let (r, uf) = ShiftOp::Shr.apply(0b101, 1, 16);
        assert_eq!(r, 0b10);
        assert!(uf, "bit 0 was 1 and was shifted out");
        let (r, uf) = ShiftOp::Shr.apply(0b100, 1, 16);
        assert_eq!(r, 0b10);
        assert!(!uf);
        let (r, uf) = ShiftOp::Shl.apply(0x8000, 1, 16);
        assert_eq!(r, 0);
        assert!(uf);
    }

    #[test]
    fn sar_propagates_sign() {
        let (r, _) = ShiftOp::Sar.apply(0x8000, 3, 16);
        assert_eq!(r, 0xF000);
        let (r, _) = ShiftOp::Sar.apply(0x4000, 3, 16);
        assert_eq!(r, 0x0800);
    }

    #[test]
    fn rotates_wrap() {
        let (r, _) = ShiftOp::Rol.apply(0x8001, 1, 16);
        assert_eq!(r, 0x0003);
        let (r, _) = ShiftOp::Ror.apply(0x8001, 1, 16);
        assert_eq!(r, 0xC000);
    }

    #[test]
    fn names_round_trip() {
        // `name` indexes the tables by declaration order.
        for (i, (op, name)) in AluOp::NAMES.into_iter().enumerate() {
            assert_eq!((op as usize, op.name(), AluOp::from_name(name)), (i, name, Some(op)));
        }
        for (i, (op, name)) in ShiftOp::NAMES.into_iter().enumerate() {
            assert_eq!((op as usize, op.name(), ShiftOp::from_name(name)), (i, name, Some(op)));
        }
        assert_eq!(AluOp::from_name("ADD"), None, "names are exact");
        assert_eq!(ShiftOp::from_name("add"), None);
    }

    #[test]
    fn zero_shift_is_identity() {
        for (op, _) in ShiftOp::NAMES {
            let (r, uf) = op.apply(0xABCD, 0, 16);
            assert_eq!(r, 0xABCD);
            assert!(!uf);
        }
    }

    #[test]
    fn cond_eval_and_negate() {
        assert!(CondKind::Zero.eval(true, false, false, false, false));
        assert!(!CondKind::Zero.eval(false, false, false, false, false));
        assert!(CondKind::Uf.eval(false, false, false, false, true));
        assert!(CondKind::True.eval(false, false, false, false, false));
        for c in [
            CondKind::Zero,
            CondKind::NotZero,
            CondKind::Neg,
            CondKind::NotNeg,
            CondKind::Carry,
            CondKind::NotCarry,
            CondKind::Uf,
            CondKind::NotUf,
        ] {
            assert_eq!(c.negate().negate(), c);
            // A condition and its negation never agree.
            assert_ne!(
                c.eval(true, false, true, false, true),
                c.negate().eval(true, false, true, false, true)
            );
        }
    }

    #[test]
    fn semantic_classification() {
        assert!(Semantic::Jump.is_control());
        assert!(Semantic::Halt.is_control());
        assert!(!Semantic::Alu(AluOp::Add).is_control());
        assert!(Semantic::MemRead.may_trap());
        assert!(Semantic::MemWrite.may_trap());
        assert!(!Semantic::Move.may_trap());
    }

    #[test]
    fn width_mask_edges() {
        assert_eq!(width_mask(1), 1);
        assert_eq!(width_mask(16), 0xFFFF);
        assert_eq!(width_mask(64), u64::MAX);
    }
}
