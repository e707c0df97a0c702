//! Bound micro-operations, microinstructions, and microprograms.
//!
//! A [`BoundOp`] is a micro-operation template instantiated with concrete
//! operands; a [`MicroInstr`] is a set of bound operations packed into one
//! control word; a [`MicroProgram`] is a control store image plus block
//! structure (symbolic branch targets are block ids until emission).

use crate::ids::TemplateId;
use crate::regs::RegRef;
use crate::semantic::CondKind;
use crate::srclist::SrcList;

/// A micro-operation bound to concrete operands. Its sources are held
/// inline, so it is `Copy`: placing, caching or loading an op copies it
/// and allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundOp {
    /// Which template.
    pub template: TemplateId,
    /// Destination register, when the template writes one.
    pub dst: Option<RegRef>,
    /// Source registers, in template order (immediates excluded); at most
    /// [`MAX_SRCS`](crate::MAX_SRCS).
    pub srcs: SrcList<RegRef>,
    /// Immediate value, when the template takes one.
    pub imm: Option<u64>,
    /// Symbolic branch target: a block id (resolved to a control store
    /// address at emission).
    pub target: Option<u32>,
    /// Condition, for branch templates.
    pub cond: Option<CondKind>,
}

impl BoundOp {
    /// Creates a bound op with no operands; fill with the `with_*` methods.
    pub fn new(template: TemplateId) -> Self {
        BoundOp {
            template,
            dst: None,
            srcs: SrcList::new(),
            imm: None,
            target: None,
            cond: None,
        }
    }

    /// Sets the destination register.
    pub fn with_dst(mut self, dst: RegRef) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Appends a source register.
    ///
    /// # Panics
    ///
    /// When the op already has [`MAX_SRCS`](crate::MAX_SRCS) sources.
    pub fn with_src(mut self, src: RegRef) -> Self {
        self.srcs.push(src);
        self
    }

    /// Sets the immediate.
    pub fn with_imm(mut self, imm: u64) -> Self {
        self.imm = Some(imm);
        self
    }

    /// Sets the symbolic branch target (a block id).
    pub fn with_target(mut self, block: u32) -> Self {
        self.target = Some(block);
        self
    }

    /// Sets the branch condition.
    pub fn with_cond(mut self, cond: CondKind) -> Self {
        self.cond = Some(cond);
        self
    }
}

/// One microinstruction: a set of micro-operations executed in the same
/// microcycle. Construction does not check conflicts; use
/// [`MachineDesc::validate_instr`](crate::MachineDesc::validate_instr).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroInstr {
    /// The packed operations.
    pub ops: Vec<BoundOp>,
}

impl MicroInstr {
    /// An empty microinstruction (a no-op cycle).
    pub fn new() -> Self {
        Self::default()
    }

    /// A microinstruction holding exactly one operation.
    pub fn single(op: BoundOp) -> Self {
        MicroInstr { ops: vec![op] }
    }

    /// A microinstruction holding the given operations.
    pub fn of(ops: Vec<BoundOp>) -> Self {
        MicroInstr { ops }
    }

    /// Number of packed operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the instruction packs no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A basic block of microinstructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroBlock {
    /// The instructions, in execution order.
    pub instrs: Vec<MicroInstr>,
}

/// A complete microprogram: blocks of microinstructions with symbolic
/// branch targets referring to block indices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MicroProgram {
    /// The blocks; block 0 is the entry.
    pub blocks: Vec<MicroBlock>,
}

impl MicroProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of microinstructions over all blocks — the *code size*
    /// measure used by experiment E1.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Total number of micro-operations over all instructions.
    pub fn op_count(&self) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .map(|mi| mi.len())
            .sum()
    }

    /// Mean operations packed per microinstruction (parallelism achieved).
    pub fn packing_ratio(&self) -> f64 {
        let mis = self.instr_count();
        if mis == 0 {
            0.0
        } else {
            self.op_count() as f64 / mis as f64
        }
    }

    /// Computes each block's start address when blocks are laid out
    /// consecutively from address 0.
    pub fn block_addresses(&self) -> Vec<u32> {
        let mut addrs = Vec::with_capacity(self.blocks.len());
        let mut a = 0u32;
        for b in &self.blocks {
            addrs.push(a);
            a += b.instrs.len() as u32;
        }
        addrs
    }

    /// Flattens the program into a linear control store, resolving
    /// symbolic block targets into absolute addresses.
    pub fn flatten(&self) -> Vec<MicroInstr> {
        let addrs = self.block_addresses();
        let mut out = Vec::with_capacity(self.instr_count());
        for b in &self.blocks {
            for mi in &b.instrs {
                let mut mi = mi.clone();
                for op in &mut mi.ops {
                    if let Some(t) = op.target {
                        op.target = Some(addrs[t as usize]);
                    }
                }
                out.push(mi);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FileId, TemplateId};
    use crate::regs::RegRef;

    fn op(t: u16) -> BoundOp {
        BoundOp::new(TemplateId(t))
    }

    #[test]
    fn bound_op_builder() {
        let o = op(1)
            .with_dst(RegRef::new(FileId(0), 2))
            .with_src(RegRef::new(FileId(0), 3))
            .with_imm(7)
            .with_target(4)
            .with_cond(CondKind::Zero);
        assert_eq!(o.dst, Some(RegRef::new(FileId(0), 2)));
        assert_eq!(o.srcs.len(), 1);
        assert_eq!(o.imm, Some(7));
        assert_eq!(o.target, Some(4));
        assert_eq!(o.cond, Some(CondKind::Zero));
    }

    #[test]
    fn program_counts_and_ratio() {
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![
                MicroInstr::of(vec![op(0), op(1)]),
                MicroInstr::single(op(2)),
            ],
        });
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(op(3))],
        });
        assert_eq!(p.instr_count(), 3);
        assert_eq!(p.op_count(), 4);
        assert!((p.packing_ratio() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.block_addresses(), vec![0, 2]);
    }

    #[test]
    fn flatten_resolves_targets() {
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(op(0).with_target(1))],
        });
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(op(1).with_target(0))],
        });
        let flat = p.flatten();
        assert_eq!(flat[0].ops[0].target, Some(1));
        assert_eq!(flat[1].ops[0].target, Some(0));
    }

    #[test]
    fn empty_program_ratio_is_zero() {
        assert_eq!(MicroProgram::new().packing_ratio(), 0.0);
    }
}
