//! Instruction selection: abstract operations → machine templates.
//!
//! Selection runs after register allocation (all operands physical). For
//! each [`MirOp`] it finds *every* template of the target machine that
//! realises the semantic and admits the operands; a later compaction pass
//! may pick any candidate (on WM-64 an `add` can go to either ALU — the
//! kind of choice §2.1.2 of the paper says a compiler must not fumble).
//!
//! Anything the machine cannot express directly must have been rewritten
//! by [`legalize`](crate::legalize::legalize) first; selection fails loudly rather
//! than quietly emitting wrong code.

use mcc_machine::{
    BoundOp, CondKind, MachineDesc, RegRef, Semantic, SrcSpec, TemplateId,
};

use crate::func::{BlockId, MirFunction, Term};
use crate::op::MirOp;
use crate::operand::Operand;

/// One selected operation: the abstract op plus every admissible binding.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedOp {
    /// The semantic (kept for barrier/ordering decisions).
    pub sem: Semantic,
    /// Admissible bindings, in machine declaration order. Never empty.
    pub candidates: Vec<BoundOp>,
    /// Union of registers read over all candidates (plus implicit reads).
    pub reads: Vec<RegRef>,
    /// Union of registers written over all candidates.
    pub writes: Vec<RegRef>,
}

/// A selected terminator (conditions already supported by the machine).
#[derive(Debug, Clone, PartialEq)]
pub enum SelectedTerm {
    /// Unconditional jump.
    Jump(BlockId),
    /// Conditional branch; `cond` is guaranteed machine-testable.
    Branch {
        /// Condition to test.
        cond: CondKind,
        /// Taken target.
        then_block: BlockId,
        /// Fallthrough target.
        else_block: BlockId,
    },
    /// Multiway dispatch (machine guaranteed to have a dispatch template).
    Dispatch {
        /// Index register.
        src: RegRef,
        /// Index mask.
        mask: u64,
        /// Table blocks.
        table: Vec<BlockId>,
    },
    /// Micro-subroutine return.
    Ret,
    /// Stop.
    Halt,
}

/// A selected basic block.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedBlock {
    /// Label carried over from MIR.
    pub label: Option<String>,
    /// The selected straight-line operations.
    pub ops: Vec<SelectedOp>,
    /// The terminator.
    pub term: SelectedTerm,
}

/// A fully selected function, ready for compaction.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectedFunction {
    /// Name carried over from MIR.
    pub name: String,
    /// The blocks.
    pub blocks: Vec<SelectedBlock>,
}

/// Selection failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectError {
    /// An operand was still virtual — register allocation did not run.
    VirtualOperand(String),
    /// No template matches the semantic and operand classes.
    NoTemplate(String),
    /// The machine cannot test the branch condition (legalize first).
    UnsupportedCond(CondKind),
    /// The machine has no dispatch facility (legalize first).
    NoDispatch,
    /// An immediate does not fit any matching template.
    ImmTooWide(String),
}

impl std::fmt::Display for SelectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SelectError::VirtualOperand(s) => write!(f, "virtual operand in `{s}`"),
            SelectError::NoTemplate(s) => write!(f, "no template for `{s}`"),
            SelectError::UnsupportedCond(c) => write!(f, "machine cannot test {c:?}"),
            SelectError::NoDispatch => write!(f, "machine has no multiway dispatch"),
            SelectError::ImmTooWide(s) => write!(f, "immediate too wide in `{s}`"),
        }
    }
}

impl std::error::Error for SelectError {}

fn phys(op: Operand, ctx: &MirOp) -> Result<RegRef, SelectError> {
    op.as_reg()
        .ok_or_else(|| SelectError::VirtualOperand(ctx.to_string()))
}

/// Tries to bind `op` to template `tid`; `Ok(None)` when the template's
/// operand classes or immediate width reject the operands.
fn try_bind(
    m: &MachineDesc,
    tid: TemplateId,
    op: &MirOp,
) -> Result<Option<BoundOp>, SelectError> {
    let t = m.template(tid);
    let mut b = BoundOp::new(tid);

    // Destination.
    match (t.dst, op.dst) {
        (Some(class), Some(d)) => {
            let d = phys(d, op)?;
            if !m.class(class).contains(d) {
                return Ok(None);
            }
            b.dst = Some(d);
        }
        (None, None) => {}
        _ => return Ok(None),
    }

    // Sources: walk the template's specs, consuming MIR sources for
    // register slots and the MIR immediate for imm slots.
    let mut mir_srcs = op.srcs.iter();
    let mut used_imm = false;
    for spec in &t.srcs {
        match spec {
            SrcSpec::Class(c) => {
                let Some(&s) = mir_srcs.next() else {
                    return Ok(None);
                };
                let s = phys(s, op)?;
                if !m.class(*c).contains(s) {
                    return Ok(None);
                }
                b.srcs.push(s);
            }
            SrcSpec::Imm { bits } => {
                let Some(v) = op.imm else { return Ok(None) };
                if *bits < 64 && v >= (1u64 << bits) {
                    return Ok(None);
                }
                b.imm = Some(v);
                used_imm = true;
            }
        }
    }
    if mir_srcs.next().is_some() {
        return Ok(None); // template takes fewer register sources
    }
    if op.imm.is_some() && !used_imm {
        // MIR op carries an immediate the template cannot take, except
        // dispatch masks / call targets handled elsewhere.
        return Ok(None);
    }

    if t.takes_target {
        match op.target {
            Some(tgt) => b.target = Some(tgt),
            None => return Ok(None),
        }
    } else if op.target.is_some() {
        return Ok(None);
    }
    if t.takes_cond {
        match op.cond {
            Some(c) if m.supports_cond(c) => b.cond = Some(c),
            _ => return Ok(None),
        }
    } else if op.cond.is_some() {
        return Ok(None);
    }

    Ok(Some(b))
}

/// Selects one MIR op, returning all admissible candidates.
///
/// Binding copies each source into the candidate's inline list, the flag
/// discipline below filters the candidates in place, and the read and
/// write unions are built from [`MachineDesc::reads`] and
/// [`MachineDesc::writes`], so a selection allocates only the three
/// `Vec`s it returns.
///
/// Flag discipline: for flag-setting semantics (ALU, shift) a machine may
/// offer both flag-writing and flag-free template variants (WM-64's second
/// ALU, HM-1's `.nf` forms). The two are **not** interchangeable — a
/// comparison feeding a branch must write the flags — so unless the
/// dead-flag analysis marked the op (`flags_dead`), only flag-writing
/// variants are offered. When the flags are provably dead, only flag-free
/// variants are offered (removing the false output dependence through the
/// single flags register and unlocking packing).
pub fn select_op(m: &MachineDesc, op: &MirOp) -> Result<SelectedOp, SelectError> {
    let mut candidates = Vec::new();
    for tid in m.templates_for(op.sem) {
        if let Some(b) = try_bind(m, tid, op)? {
            candidates.push(b);
        }
    }
    if matches!(op.sem, Semantic::Alu(_) | Semantic::Shift(_)) {
        let writes_flags = |b: &BoundOp| m.template(b.template).writes_flags;
        let flagful = candidates.iter().any(writes_flags);
        let flagfree = !candidates.iter().all(writes_flags);
        let keep_flagful = flagful && !(op.flags_dead && flagfree);
        candidates.retain(|b| writes_flags(b) == keep_flagful);
    }
    if candidates.is_empty() {
        // Distinguish "imm too wide" from "no such operation" for better
        // diagnostics.
        let sem_exists = m.templates_for(op.sem).next().is_some();
        if sem_exists && op.imm.is_some() {
            return Err(SelectError::ImmTooWide(op.to_string()));
        }
        return Err(SelectError::NoTemplate(op.to_string()));
    }
    let mut reads = Vec::new();
    let mut writes = Vec::new();
    for c in &candidates {
        for r in m.reads(c) {
            if !reads.contains(&r) {
                reads.push(r);
            }
        }
        for w in m.writes(c) {
            if !writes.contains(&w) {
                writes.push(w);
            }
        }
    }
    Ok(SelectedOp {
        sem: op.sem,
        candidates,
        reads,
        writes,
    })
}

fn select_term(m: &MachineDesc, term: &Term) -> Result<SelectedTerm, SelectError> {
    Ok(match term {
        Term::Jump(b) => SelectedTerm::Jump(*b),
        Term::Branch {
            cond,
            then_block,
            else_block,
        } => {
            if !m.supports_cond(*cond) {
                return Err(SelectError::UnsupportedCond(*cond));
            }
            SelectedTerm::Branch {
                cond: *cond,
                then_block: *then_block,
                else_block: *else_block,
            }
        }
        Term::Dispatch { src, mask, table } => {
            if m.templates_for(Semantic::Dispatch).next().is_none() {
                return Err(SelectError::NoDispatch);
            }
            let src = src
                .as_reg()
                .ok_or_else(|| SelectError::VirtualOperand("dispatch".into()))?;
            SelectedTerm::Dispatch {
                src,
                mask: *mask,
                table: table.clone(),
            }
        }
        Term::Ret => SelectedTerm::Ret,
        Term::Halt => SelectedTerm::Halt,
    })
}

/// Selects a whole function.
///
/// # Errors
///
/// Fails if any operand is virtual, any operation or condition has no
/// machine realisation (run [`legalize`](crate::legalize::legalize) first), or an
/// immediate does not fit.
pub fn select_function(m: &MachineDesc, f: &MirFunction) -> Result<SelectedFunction, SelectError> {
    let mut blocks = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        let mut ops = Vec::with_capacity(b.ops.len());
        for op in &b.ops {
            ops.push(select_op(m, op)?);
        }
        let term = select_term(m, b.term.as_ref().expect("validated MIR"))?;
        blocks.push(SelectedBlock {
            label: b.label.clone(),
            ops,
            term,
        });
    }
    Ok(SelectedFunction {
        name: f.name.clone(),
        blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{bx2, hm1, wm64};
    use mcc_machine::{AluOp, RegRef};

    fn r(m: &MachineDesc, i: u16) -> Operand {
        let f = m.find_file("R").or_else(|| m.find_file("G")).unwrap();
        Operand::Reg(RegRef::new(f, i))
    }

    #[test]
    fn add_selects_single_candidate_on_hm1() {
        let m = hm1();
        let op = MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2));
        let s = select_op(&m, &op).unwrap();
        assert_eq!(s.candidates.len(), 1);
        assert_eq!(m.template(s.candidates[0].template).name, "add");
        // Flags are in the write union.
        assert!(s.writes.contains(&m.special.flags.unwrap()));
    }

    #[test]
    fn flag_discipline_governs_alu_choice_on_wm64() {
        let m = wm64();
        // Flags live (default): only the flag-writing ALU-0 form.
        let op = MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2));
        let s = select_op(&m, &op).unwrap();
        assert_eq!(s.candidates.len(), 1);
        assert!(m.template(s.candidates[0].template).writes_flags);
        // Flags dead: only the flag-free ALU-1 twin — and the write set
        // no longer mentions the flags register.
        let mut op = op;
        op.flags_dead = true;
        let s = select_op(&m, &op).unwrap();
        assert_eq!(s.candidates.len(), 1);
        assert!(!m.template(s.candidates[0].template).writes_flags);
        assert!(!s.writes.contains(&m.special.flags.unwrap()));
    }

    #[test]
    fn alu1_rejects_high_registers_on_wm64() {
        let m = wm64();
        // R200 is out of ALU-1's reach; only the ALU-0 template matches.
        let op = MirOp::alu(AluOp::Add, r(&m, 200), r(&m, 1), r(&m, 2));
        let s = select_op(&m, &op).unwrap();
        assert_eq!(s.candidates.len(), 1);
        assert_eq!(m.template(s.candidates[0].template).name, "add");
    }

    #[test]
    fn wide_immediate_rejected_on_bx2() {
        let m = bx2();
        let op = MirOp::ldi(r(&m, 0), 0x1234);
        assert!(matches!(
            select_op(&m, &op),
            Err(SelectError::ImmTooWide(_))
        ));
        // An 8-bit value is fine.
        let op = MirOp::ldi(r(&m, 0), 0x34);
        assert!(select_op(&m, &op).is_ok());
    }

    #[test]
    fn virtual_operand_is_an_error() {
        let m = hm1();
        let op = MirOp::ldi(crate::operand::VReg(0), 1);
        assert!(matches!(
            select_op(&m, &op),
            Err(SelectError::VirtualOperand(_))
        ));
    }

    #[test]
    fn raw_memread_matches_read_template() {
        let m = hm1();
        let op = MirOp::new(Semantic::MemRead);
        let s = select_op(&m, &op).unwrap();
        assert_eq!(m.template(s.candidates[0].template).name, "read");
        assert_eq!(s.reads, vec![m.special.mar.unwrap()]);
        assert_eq!(s.writes, vec![m.special.mbr.unwrap()]);
    }

    #[test]
    fn unsupported_condition_reported() {
        let m = bx2();
        let term = Term::Branch {
            cond: CondKind::Uf,
            then_block: 0,
            else_block: 0,
        };
        assert_eq!(
            select_term(&m, &term),
            Err(SelectError::UnsupportedCond(CondKind::Uf))
        );
    }
}
