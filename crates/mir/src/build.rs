//! A convenience builder for constructing [`MirFunction`]s, used by all
//! four language frontends.

use mcc_machine::{AluOp, CondKind, ShiftOp};

use crate::func::{BlockId, MirBlock, MirFunction, Term};
use crate::op::MirOp;
use crate::operand::{Operand, RegOrImm, VReg};

/// Incremental builder for a [`MirFunction`].
///
/// ```
/// use mcc_mir::{FuncBuilder, Term};
/// use mcc_machine::AluOp;
///
/// let mut b = FuncBuilder::new("demo");
/// let entry = b.current();
/// let x = b.vreg();
/// b.ldi(x, 5);
/// b.alu_imm(AluOp::Add, x, x, 1);
/// b.terminate(Term::Halt);
/// let f = b.finish();
/// assert_eq!(entry, 0);
/// assert_eq!(f.blocks.len(), 1);
/// f.validate().unwrap();
/// ```
#[derive(Debug)]
pub struct FuncBuilder {
    f: MirFunction,
    cur: BlockId,
}

impl FuncBuilder {
    /// Starts a function with one empty entry block.
    pub fn new(name: impl Into<String>) -> Self {
        let mut f = MirFunction::new(name);
        f.blocks.push(MirBlock::new());
        FuncBuilder { f, cur: 0 }
    }

    /// The block currently being appended to.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    /// Number of ops already emitted into the current block.
    pub fn ops_in_current(&self) -> usize {
        self.f.blocks[self.cur as usize].ops.len()
    }

    /// Creates a new (unterminated) block and returns its id without
    /// switching to it.
    pub fn new_block(&mut self) -> BlockId {
        self.f.blocks.push(MirBlock::new());
        (self.f.blocks.len() - 1) as BlockId
    }

    /// Creates a labelled block.
    pub fn new_labeled_block(&mut self, label: impl Into<String>) -> BlockId {
        let id = self.new_block();
        self.f.blocks[id as usize].label = Some(label.into());
        id
    }

    /// Switches emission to `block`.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn switch_to(&mut self, block: BlockId) {
        assert!(
            self.f.blocks[block as usize].term.is_none(),
            "switching to terminated block b{block}"
        );
        self.cur = block;
    }

    /// Allocates a fresh virtual register.
    pub fn vreg(&mut self) -> VReg {
        self.f.new_vreg()
    }

    /// Appends an arbitrary op to the current block.
    pub fn push(&mut self, op: MirOp) {
        let b = &mut self.f.blocks[self.cur as usize];
        assert!(b.term.is_none(), "appending to terminated block");
        b.ops.push(op);
    }

    /// `dst = a <op> b`.
    pub fn alu(
        &mut self,
        op: AluOp,
        dst: impl Into<Operand>,
        a: impl Into<Operand>,
        b: impl Into<Operand>,
    ) {
        self.push(MirOp::alu(op, dst, a, b));
    }

    /// `dst = a <op> imm`.
    pub fn alu_imm(&mut self, op: AluOp, dst: impl Into<Operand>, a: impl Into<Operand>, imm: u64) {
        self.push(MirOp::alu_imm(op, dst, a, imm));
    }

    /// `dst = <op> a`.
    pub fn alu_un(&mut self, op: AluOp, dst: impl Into<Operand>, a: impl Into<Operand>) {
        self.push(MirOp::alu_un(op, dst, a));
    }

    /// `dst = shift(a, amount)`.
    pub fn shift(&mut self, op: ShiftOp, dst: impl Into<Operand>, a: impl Into<Operand>, n: u64) {
        self.push(MirOp::shift(op, dst, a, n));
    }

    /// `dst = a`.
    pub fn mov(&mut self, dst: impl Into<Operand>, a: impl Into<Operand>) {
        self.push(MirOp::mov(dst, a));
    }

    /// `dst = value`.
    pub fn ldi(&mut self, dst: impl Into<Operand>, value: u64) {
        self.push(MirOp::ldi(dst, value));
    }

    /// `dst = MEM[addr]`.
    pub fn load(&mut self, dst: impl Into<Operand>, addr: impl Into<Operand>) {
        self.push(MirOp::load(dst, addr));
    }

    /// `MEM[addr] = data`.
    pub fn store(&mut self, addr: impl Into<Operand>, data: impl Into<Operand>) {
        self.push(MirOp::store(addr, data));
    }

    /// Calls the procedure entered at `entry`.
    pub fn call(&mut self, entry: BlockId) {
        self.push(MirOp::call(entry));
    }

    /// Terminates the current block.
    ///
    /// # Panics
    ///
    /// Panics if the block is already terminated.
    pub fn terminate(&mut self, term: Term) {
        let b = &mut self.f.blocks[self.cur as usize];
        assert!(b.term.is_none(), "double termination of b{}", self.cur);
        b.term = Some(term);
    }

    /// Terminates with `Jump(to)` and switches to `to`.
    pub fn jump_and_switch(&mut self, to: BlockId) {
        self.terminate(Term::Jump(to));
        self.switch_to(to);
    }

    /// Terminates with a conditional branch: the flags must have been set
    /// by the last flag-setting op of the current block.
    pub fn branch(&mut self, cond: CondKind, then_block: BlockId, else_block: BlockId) {
        self.terminate(Term::Branch {
            cond,
            then_block,
            else_block,
        });
    }

    /// The ALU operation of a binary operator the token frontends write as
    /// a symbol: `+ - & | ^`.
    pub fn alu_op(sym: &str) -> Option<AluOp> {
        Some(match sym {
            "+" => AluOp::Add,
            "-" => AluOp::Sub,
            "&" => AluOp::And,
            "|" => AluOp::Or,
            "^" => AluOp::Xor,
            _ => return None,
        })
    }

    /// The condition under which `a rel b` holds once `a - b` has set the
    /// flags, for the relations a subtraction tests: `=`, `<>` (also
    /// spelled `!=`), `<` and `>=`. The frontends rewrite `a > b` as
    /// `b < a` and `a <= b` as `b >= a`.
    pub fn relation(rel: &str) -> Option<CondKind> {
        Some(match rel {
            "=" => CondKind::Zero,
            "<>" | "!=" => CondKind::NotZero,
            "<" => CondKind::Neg,
            ">=" => CondKind::NotNeg,
            _ => return None,
        })
    }

    /// Emits the flag-setting op of `a rel b` and returns the
    /// [`relation`](Self::relation)'s condition, or `None` (emitting
    /// nothing) for a relation it lacks. `a = 0` and `a <> 0` pass `a`
    /// through the ALU; every other comparison subtracts into a fresh
    /// temporary.
    pub fn compare(&mut self, a: Operand, rel: &str, b: RegOrImm) -> Option<CondKind> {
        let cond = Self::relation(rel)?;
        if b == RegOrImm::Imm(0) && matches!(rel, "=" | "<>") {
            self.alu_un(AluOp::Pass, a, a);
        } else {
            let t = self.vreg();
            match b {
                RegOrImm::Reg(r) => self.alu(AluOp::Sub, t, a, r),
                RegOrImm::Imm(c) => self.alu_imm(AluOp::Sub, t, a, c),
            }
        }
        Some(cond)
    }

    /// Declares an operand live at program exit (an observable result).
    pub fn mark_live_out(&mut self, op: impl Into<Operand>) {
        self.f.live_out.push(op.into());
    }

    /// Finishes the function.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds via validation in callers) if blocks are
    /// left unterminated; call [`MirFunction::validate`] on the result.
    pub fn finish(self) -> MirFunction {
        self.f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::CondKind;

    #[test]
    fn build_loop() {
        // while (x != 0) { x = x - 1 }
        let mut b = FuncBuilder::new("loop");
        let x = b.vreg();
        b.ldi(x, 10);
        let head = b.new_labeled_block("head");
        let body = b.new_block();
        let done = b.new_block();
        b.jump_and_switch(head);
        // head: test x (pass sets flags), branch
        b.alu_un(AluOp::Pass, x, x);
        b.branch(CondKind::Zero, done, body);
        b.switch_to(body);
        b.alu_imm(AluOp::Sub, x, x, 1);
        b.terminate(Term::Jump(head));
        b.switch_to(done);
        b.terminate(Term::Halt);
        let f = b.finish();
        f.validate().unwrap();
        assert_eq!(f.blocks.len(), 4);
        assert_eq!(f.blocks[1].label.as_deref(), Some("head"));
        assert_eq!(f.op_count(), 3);
    }

    #[test]
    fn compare_passes_zero_tests_and_subtracts_the_rest() {
        let mut b = FuncBuilder::new("cmp");
        let x = Operand::Vreg(b.vreg());
        assert_eq!(b.compare(x, "=", RegOrImm::Imm(0)), Some(CondKind::Zero));
        assert_eq!(b.compare(x, "!=", RegOrImm::Imm(0)), Some(CondKind::NotZero));
        assert_eq!(b.compare(x, ">=", RegOrImm::Reg(x)), Some(CondKind::NotNeg));
        assert_eq!(b.compare(x, ">", RegOrImm::Imm(1)), None);
        let f = b.finish();
        let ops = &f.blocks[0].ops;
        assert_eq!(ops.len(), 3, "an untestable relation emits nothing");
        assert_eq!(ops[0], MirOp::alu_un(AluOp::Pass, x, x));
        assert_eq!(ops[1], MirOp::alu_imm(AluOp::Sub, VReg(1), x, 0), "`!=` always subtracts");
        assert_eq!(ops[2], MirOp::alu(AluOp::Sub, VReg(2), x, x));
        assert_eq!(FuncBuilder::alu_op("^"), Some(AluOp::Xor));
        assert_eq!(FuncBuilder::alu_op("~"), None);
    }

    #[test]
    #[should_panic(expected = "double termination")]
    fn double_terminate_panics() {
        let mut b = FuncBuilder::new("x");
        b.terminate(Term::Halt);
        b.terminate(Term::Halt);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn push_after_terminate_panics() {
        let mut b = FuncBuilder::new("x");
        let v = b.vreg();
        b.terminate(Term::Halt);
        b.ldi(v, 1);
    }
}
