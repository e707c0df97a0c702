//! Functions, blocks and terminators.

use crate::op::MirOp;
use crate::operand::Operand;

/// Index of a basic block within a [`MirFunction`].
pub type BlockId = u32;

/// How control leaves a basic block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// Fall to the given block.
    Jump(BlockId),
    /// Two-way conditional branch on a machine condition. The condition is
    /// evaluated against the flags as left by the last flag-setting
    /// operation of the block.
    Branch {
        /// The condition to test.
        cond: mcc_machine::CondKind,
        /// Taken target.
        then_block: BlockId,
        /// Fallthrough target.
        else_block: BlockId,
    },
    /// Multiway branch (SIMPL/EMPL `case`, YALLL's branch facility):
    /// `goto table[src & mask]`. Table entries must be blocks that are laid
    /// out consecutively and compile to exactly one microinstruction each
    /// (the frontends guarantee this by making them single-`Jump` blocks).
    Dispatch {
        /// Index operand.
        src: Operand,
        /// Mask applied to the index.
        mask: u64,
        /// The jump-table blocks, in index order.
        table: Vec<BlockId>,
    },
    /// Return from a micro-subroutine.
    Ret,
    /// Stop the microengine.
    Halt,
}

impl Term {
    /// All successor blocks.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Term::Jump(b) => vec![*b],
            Term::Branch {
                then_block,
                else_block,
                ..
            } => vec![*then_block, *else_block],
            Term::Dispatch { table, .. } => table.clone(),
            Term::Ret | Term::Halt => Vec::new(),
        }
    }

    /// Register operands the terminator reads.
    pub fn uses(&self) -> Vec<Operand> {
        match self {
            Term::Dispatch { src, .. } => vec![*src],
            _ => Vec::new(),
        }
    }
}

/// A basic block: straight-line operations plus one terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirBlock {
    /// Optional label (for diagnostics and tests).
    pub label: Option<String>,
    /// The operations, in source order. §2.1.4: the *compiler* decides
    /// which of these execute in parallel.
    pub ops: Vec<MirOp>,
    /// The terminator. `None` only transiently during construction.
    pub term: Option<Term>,
}

impl MirBlock {
    /// An empty, unterminated block.
    pub fn new() -> Self {
        MirBlock {
            label: None,
            ops: Vec::new(),
            term: None,
        }
    }
}

impl Default for MirBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Errors found by [`MirFunction::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MirError {
    /// A block has no terminator.
    MissingTerm(BlockId),
    /// A terminator or call targets a block that does not exist.
    BadTarget(BlockId, BlockId),
    /// A dispatch-table entry is not a single-`Jump` block.
    BadTableBlock(BlockId),
    /// Dispatch-table entries are not consecutive block ids.
    NonConsecutiveTable(BlockId),
}

impl std::fmt::Display for MirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MirError::MissingTerm(b) => write!(f, "block b{b} has no terminator"),
            MirError::BadTarget(b, t) => write!(f, "block b{b} targets nonexistent block b{t}"),
            MirError::BadTableBlock(b) => {
                write!(f, "dispatch-table block b{b} is not a single jump")
            }
            MirError::NonConsecutiveTable(b) => {
                write!(f, "dispatch table starting at b{b} is not consecutive")
            }
        }
    }
}

impl std::error::Error for MirError {}

/// A complete function (microprogram) in MIR form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MirFunction {
    /// Function name, for diagnostics.
    pub name: String,
    /// Basic blocks; block 0 is the entry.
    pub blocks: Vec<MirBlock>,
    /// Number of virtual registers allocated so far.
    pub vreg_count: u32,
    /// Operands that must be considered live at `Ret`/`Halt` — the
    /// program's observable results (e.g. EMPL's global variables).
    pub live_out: Vec<Operand>,
}

impl MirFunction {
    /// An empty function with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        MirFunction {
            name: name.into(),
            blocks: Vec::new(),
            vreg_count: 0,
            live_out: Vec::new(),
        }
    }

    /// Total number of operations (excluding terminators).
    pub fn op_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ops.len()).sum()
    }

    /// Allocates a fresh virtual register.
    pub fn new_vreg(&mut self) -> crate::operand::VReg {
        let v = crate::operand::VReg(self.vreg_count);
        self.vreg_count += 1;
        v
    }

    /// Whether any operand anywhere is still virtual.
    pub fn has_virtual_regs(&self) -> bool {
        self.blocks.iter().any(|b| {
            b.ops.iter().any(|op| {
                op.dst.is_some_and(|d| d.is_virtual())
                    || op.srcs.iter().any(|s| s.is_virtual())
            }) || b
                .term
                .as_ref()
                .is_some_and(|t| t.uses().iter().any(|u| u.is_virtual()))
        }) || self.live_out.iter().any(|o| o.is_virtual())
    }

    /// Structural validation: every block terminated, every target in
    /// range, dispatch tables consecutive and single-jump.
    pub fn validate(&self) -> Result<(), MirError> {
        let n = self.blocks.len() as BlockId;
        for (i, b) in self.blocks.iter().enumerate() {
            let i = i as BlockId;
            let term = b.term.as_ref().ok_or(MirError::MissingTerm(i))?;
            for s in term.successors() {
                if s >= n {
                    return Err(MirError::BadTarget(i, s));
                }
            }
            for op in &b.ops {
                if let Some(t) = op.target {
                    if t >= n {
                        return Err(MirError::BadTarget(i, t));
                    }
                }
            }
            if let Term::Dispatch { table, .. } = term {
                for (k, &t) in table.iter().enumerate() {
                    if k > 0 && t != table[k - 1] + 1 {
                        return Err(MirError::NonConsecutiveTable(table[0]));
                    }
                    let tb = &self.blocks[t as usize];
                    let single_jump =
                        tb.ops.is_empty() && matches!(tb.term, Some(Term::Jump(_)));
                    if !single_jump {
                        return Err(MirError::BadTableBlock(t));
                    }
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for MirFunction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fn {} {{", self.name)?;
        for (i, b) in self.blocks.iter().enumerate() {
            match &b.label {
                Some(l) => writeln!(f, "b{i} ({l}):")?,
                None => writeln!(f, "b{i}:")?,
            }
            for op in &b.ops {
                writeln!(f, "    {op}")?;
            }
            match &b.term {
                Some(t) => writeln!(f, "    {t:?}")?,
                None => writeln!(f, "    <unterminated>")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MirOp;
    use crate::operand::VReg;
    use mcc_machine::{AluOp, CondKind};

    fn two_block_fn() -> MirFunction {
        let mut f = MirFunction::new("t");
        let mut b0 = MirBlock::new();
        b0.ops.push(MirOp::alu(AluOp::Add, VReg(0), VReg(1), VReg(2)));
        b0.term = Some(Term::Branch {
            cond: CondKind::Zero,
            then_block: 1,
            else_block: 1,
        });
        let mut b1 = MirBlock::new();
        b1.term = Some(Term::Halt);
        f.blocks.push(b0);
        f.blocks.push(b1);
        f.vreg_count = 3;
        f
    }

    #[test]
    fn validate_accepts_wellformed() {
        two_block_fn().validate().unwrap();
    }

    #[test]
    fn validate_rejects_missing_term() {
        let mut f = two_block_fn();
        f.blocks[1].term = None;
        assert_eq!(f.validate(), Err(MirError::MissingTerm(1)));
    }

    #[test]
    fn validate_rejects_bad_target() {
        let mut f = two_block_fn();
        f.blocks[1].term = Some(Term::Jump(9));
        assert!(matches!(f.validate(), Err(MirError::BadTarget(1, 9))));
    }

    #[test]
    fn dispatch_table_must_be_consecutive_single_jumps() {
        let mut f = MirFunction::new("d");
        let mut b0 = MirBlock::new();
        b0.term = Some(Term::Dispatch {
            src: VReg(0).into(),
            mask: 1,
            table: vec![1, 2],
        });
        f.blocks.push(b0);
        for _ in 0..2 {
            let mut b = MirBlock::new();
            b.term = Some(Term::Jump(3));
            f.blocks.push(b);
        }
        let mut b3 = MirBlock::new();
        b3.term = Some(Term::Halt);
        f.blocks.push(b3);
        f.validate().unwrap();

        // A non-jump table block is rejected.
        f.blocks[2].ops.push(MirOp::ldi(VReg(0), 1));
        assert!(matches!(f.validate(), Err(MirError::BadTableBlock(2))));
    }

    #[test]
    fn virtual_reg_detection() {
        let mut f = two_block_fn();
        assert!(f.has_virtual_regs());
        f.blocks[0].ops.clear();
        assert!(!f.has_virtual_regs());
    }

    #[test]
    fn display_contains_blocks() {
        let s = two_block_fn().to_string();
        assert!(s.contains("b0:"));
        assert!(s.contains("b1:"));
    }
}
