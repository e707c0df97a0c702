//! Emission: compacted blocks + terminators → a [`MicroProgram`].
//!
//! Terminator micro-operations are packed into the last microinstruction
//! of their block when dependence- and conflict-safe
//! ([`mcc_compact::pack_control`]); fallthrough jumps to the next block
//! are elided — except for dispatch-table blocks, which must stay exactly
//! one microinstruction long so that `µPC = base + index` lands correctly.

use std::collections::HashSet;

use mcc_compact::{compact_degrading, pack_control, Algorithm};
use mcc_machine::op::MicroBlock;
use mcc_machine::{BoundOp, CondKind, ConflictModel, MachineDesc, MicroProgram, Semantic};
use mcc_mir::select::{SelectedFunction, SelectedTerm};

/// What emission actually did: the algorithm the schedule came from (the
/// most degraded one across all blocks) and every degradation event.
#[derive(Debug, Clone, Default)]
pub struct EmitReport {
    /// Name of the weakest algorithm any block fell back to.
    pub algorithm_used: String,
    /// One entry per degradation step, prefixed with the block index.
    pub degradations: Vec<String>,
}

fn control_op(m: &MachineDesc, sem: Semantic) -> mcc_machine::TemplateId {
    m.templates_for(sem)
        .next()
        .unwrap_or_else(|| panic!("machine {} lacks {:?}", m.name, sem))
}

/// Whether `cond` has a genuine machine-testable negation.
fn negatable(m: &MachineDesc, cond: CondKind) -> bool {
    let n = cond.negate();
    n != cond && m.supports_cond(n)
}

/// Whether control falls from block `i` to block `t` with no intervening
/// instructions: `t` is ahead of `i` and every block between them emits
/// nothing.
fn falls_through(i: usize, t: u32, empty: &[bool]) -> bool {
    let t = t as usize;
    t > i && (i + 1..t).all(|j| empty[j])
}

/// Assembles the selected function into a block-structured microprogram.
///
/// Compaction never fails: each block runs through the degradation chain
/// (requested algorithm → list scheduling → FCFS → sequential), and the
/// returned [`EmitReport`] records which algorithm the weakest block ended
/// up with plus every fallback event.
pub fn emit(
    m: &MachineDesc,
    f: &SelectedFunction,
    algo: Algorithm,
    model: ConflictModel,
    bb_budget: u64,
) -> (MicroProgram, EmitReport) {
    let model = algo.model(model);
    // Dispatch-table blocks may not collapse to zero instructions.
    let mut table_blocks: HashSet<u32> = HashSet::new();
    for b in &f.blocks {
        if let SelectedTerm::Dispatch { table, .. } = &b.term {
            table_blocks.extend(table.iter().copied());
        }
    }

    // Which blocks emit zero instructions: op-less, jump-terminated, and
    // the jump itself elidable. Jump threading retargets jumps *past*
    // empty trampolines, so elision must look through them rather than
    // test `target == i + 1` — otherwise a threaded jump costs a word on
    // vertical machines (and breaks S*'s cobegin one-instruction check).
    // `empty[j]` only depends on blocks after `j`, so a backward sweep
    // computes the fixpoint in one pass.
    let n = f.blocks.len();
    let mut empty = vec![false; n];
    for j in (0..n).rev() {
        if table_blocks.contains(&(j as u32)) {
            continue;
        }
        if let SelectedTerm::Jump(t) = f.blocks[j].term {
            empty[j] =
                f.blocks[j].ops.is_empty() && falls_through(j, t, &empty);
        }
    }

    let mut report = EmitReport {
        algorithm_used: algo.name().to_string(),
        degradations: Vec::new(),
    };
    let mut worst = 0;
    let mut out = MicroProgram::new();
    for (i, b) in f.blocks.iter().enumerate() {
        let fall = |t: u32| falls_through(i, t, &empty);
        let i = i as u32;
        let d = compact_degrading(m, &b.ops, algo, model, bb_budget);
        for ev in &d.events {
            report.degradations.push(format!("b{i}: {ev}"));
        }
        if d.rank > worst {
            worst = d.rank;
            report.algorithm_used = d.algorithm_used.to_string();
        }
        let mut instrs = d.compaction.instrs;
        match &b.term {
            SelectedTerm::Jump(t) => {
                if !fall(*t) || table_blocks.contains(&i) {
                    let op = BoundOp::new(control_op(m, Semantic::Jump)).with_target(*t);
                    pack_control(m, &mut instrs, op, model);
                }
            }
            SelectedTerm::Branch {
                cond,
                then_block,
                else_block,
            } => {
                let br = control_op(m, Semantic::Branch);
                if fall(*else_block) {
                    let op = BoundOp::new(br).with_cond(*cond).with_target(*then_block);
                    pack_control(m, &mut instrs, op, model);
                } else if fall(*then_block) && negatable(m, *cond) {
                    let op = BoundOp::new(br)
                        .with_cond(cond.negate())
                        .with_target(*else_block);
                    pack_control(m, &mut instrs, op, model);
                } else {
                    let op = BoundOp::new(br).with_cond(*cond).with_target(*then_block);
                    pack_control(m, &mut instrs, op, model);
                    let jmp =
                        BoundOp::new(control_op(m, Semantic::Jump)).with_target(*else_block);
                    instrs.push(mcc_machine::MicroInstr::single(jmp));
                }
            }
            SelectedTerm::Dispatch { src, mask, table } => {
                let op = BoundOp::new(control_op(m, Semantic::Dispatch))
                    .with_src(*src)
                    .with_imm(*mask)
                    .with_target(table[0]);
                pack_control(m, &mut instrs, op, model);
            }
            SelectedTerm::Ret => {
                let op = BoundOp::new(control_op(m, Semantic::Return));
                pack_control(m, &mut instrs, op, model);
            }
            SelectedTerm::Halt => {
                let op = BoundOp::new(control_op(m, Semantic::Halt));
                pack_control(m, &mut instrs, op, model);
            }
        }
        out.blocks.push(MicroBlock { instrs });
    }

    debug_assert!(
        out.blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .all(|mi| m.validate_instr(mi, model).is_ok()),
        "emitted invalid microinstruction"
    );
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;
    use mcc_machine::{AluOp, RegRef};
    use mcc_mir::select::select_function;
    use mcc_mir::{FuncBuilder, Operand, Term};

    fn emit_simple(term_to_next: bool) -> MicroProgram {
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mut b = FuncBuilder::new("t");
        b.alu_imm(AluOp::Add, r0, r0, 1);
        let nxt = b.new_block();
        if term_to_next {
            b.terminate(Term::Jump(nxt));
        } else {
            // jump back to self — can't be elided
            b.terminate(Term::Jump(0));
        }
        b.switch_to(nxt);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        mcc_mir::legalize(&m, &mut f).unwrap();
        let sf = select_function(&m, &f).unwrap();
        emit(&m, &sf, Algorithm::CriticalPath, ConflictModel::Fine, 0).0
    }

    #[test]
    fn fallthrough_jump_elided() {
        let p = emit_simple(true);
        // Block 0: just the add (jump elided). Block 1: halt.
        assert_eq!(p.blocks[0].instrs.len(), 1);
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn backward_jump_kept_and_packed() {
        let p = emit_simple(false);
        // The jmp packs into the add's microinstruction (no conflicts).
        assert_eq!(p.blocks[0].instrs.len(), 1);
        assert_eq!(p.blocks[0].instrs[0].len(), 2);
    }

    #[test]
    fn branch_with_far_else_gets_trailing_jump() {
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mut b = FuncBuilder::new("t");
        b.alu_imm(AluOp::Add, r0, r0, 1);
        let t1 = b.new_block();
        let t2 = b.new_block();
        // then = next block, else = far: emit negated branch to else.
        b.branch(mcc_machine::CondKind::Zero, t1, t2);
        b.switch_to(t1);
        b.terminate(Term::Halt);
        b.switch_to(t2);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        mcc_mir::legalize(&m, &mut f).unwrap();
        let sf = select_function(&m, &f).unwrap();
        let (p, rep) = emit(&m, &sf, Algorithm::CriticalPath, ConflictModel::Fine, 0);
        assert_eq!(rep.algorithm_used, "critpath");
        assert!(rep.degradations.is_empty());
        // Block 0: add-MI, then branch-MI (flag RAW forbids packing).
        assert_eq!(p.blocks[0].instrs.len(), 2);
        let br = &p.blocks[0].instrs[1].ops[0];
        assert_eq!(br.cond, Some(mcc_machine::CondKind::NotZero), "negated");
        assert_eq!(br.target, Some(t2));
    }

    #[test]
    fn jump_threaded_past_empty_blocks_is_elided() {
        // b0: op, jump b2 (as if jump-threaded past empty b1); b1: empty,
        // jump b2; b2: halt. Both jumps are pure fallthrough once b1
        // vanishes, so b0 must emit exactly one instruction with no jump.
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mut b = FuncBuilder::new("t");
        b.alu_imm(AluOp::Add, r0, r0, 1);
        let mid = b.new_block();
        let end = b.new_block();
        b.terminate(Term::Jump(end));
        b.switch_to(mid);
        b.terminate(Term::Jump(end));
        b.switch_to(end);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        mcc_mir::legalize(&m, &mut f).unwrap();
        let sf = select_function(&m, &f).unwrap();
        let p = emit(&m, &sf, Algorithm::CriticalPath, ConflictModel::Fine, 0).0;
        assert_eq!(p.blocks[0].instrs.len(), 1);
        assert_eq!(p.blocks[0].instrs[0].len(), 1, "jump over empty block elided");
        assert_eq!(p.blocks[mid as usize].instrs.len(), 0);
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn dispatch_table_blocks_never_collapse() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 0);
        let t0 = b.new_block();
        let t1 = b.new_block();
        let end = b.new_block();
        b.terminate(Term::Dispatch {
            src: x.into(),
            mask: 1,
            table: vec![t0, t1],
        });
        b.switch_to(t0);
        b.terminate(Term::Jump(end)); // would normally be elidable if end == t0+1? no: t1 intervenes
        b.switch_to(t1);
        b.terminate(Term::Jump(end)); // end == t1+1 → normally elided!
        b.switch_to(end);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        f.validate().unwrap();
        mcc_mir::legalize(&m, &mut f).unwrap();
        mcc_regalloc::allocate(&m, &mut f, &Default::default()).unwrap();
        let sf = select_function(&m, &f).unwrap();
        let p = emit(&m, &sf, Algorithm::CriticalPath, ConflictModel::Fine, 0).0;
        assert_eq!(p.blocks[t0 as usize].instrs.len(), 1, "table entry is 1 MI");
        assert_eq!(p.blocks[t1 as usize].instrs.len(), 1, "table entry kept");
    }
}
