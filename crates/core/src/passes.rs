//! MIR passes for the §2.1.5 problems: interrupt poll insertion and
//! microtrap restart-safety analysis.
//!
//! The survey notes these were "completely neglected" by every language it
//! reviews; this module is the toolkit's answer. Poll insertion makes long
//! microprograms service interrupts; the trap-safety analysis detects the
//! `incread` pattern — a non-idempotent write to a macro-visible register
//! that precedes a faultable memory operation, so that the
//! restart-from-the-beginning semantics of a page-fault microtrap would
//! replay it.

use std::collections::{BTreeMap, BTreeSet};

use mcc_machine::{MachineDesc, RegRef};
use mcc_mir::operand::Operand;
use mcc_mir::{MirFunction, MirOp};

/// A compiler warning (the pipeline still produces code).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Warning {
    /// Human-readable description.
    pub message: String,
}

/// Inserts interrupt poll points: one at every loop header (a block with a
/// back edge into it) and one every `n` operations inside each block.
/// Returns the number of polls inserted.
///
/// Runs before register allocation; `Poll` is a scheduling barrier, so the
/// cost is measured by experiment E7's latency/overhead sweep.
pub fn insert_polls(f: &mut MirFunction, n: usize) -> usize {
    let n = n.max(1);
    let mut count = 0;

    // Loop headers: any block targeted by a block with an id ≥ its own
    // (conservative back-edge test on the reducible CFGs frontends build).
    let mut headers: BTreeSet<u32> = BTreeSet::new();
    for (i, b) in f.blocks.iter().enumerate() {
        if let Some(t) = &b.term {
            for s in t.successors() {
                if s <= i as u32 {
                    headers.insert(s);
                }
            }
        }
    }

    for (bi, b) in f.blocks.iter_mut().enumerate() {
        let mut ops = std::mem::take(&mut b.ops);
        let mut out = Vec::with_capacity(ops.len() + 1);
        if headers.contains(&(bi as u32)) {
            out.push(MirOp::poll());
            count += 1;
        }
        let mut since = 0usize;
        for op in ops.drain(..) {
            out.push(op);
            since += 1;
            if since >= n {
                out.push(MirOp::poll());
                count += 1;
                since = 0;
            }
        }
        // Avoid a trailing poll immediately before a terminator-only exit.
        if matches!(out.last(), Some(op) if op.sem == mcc_machine::Semantic::Poll)
            && matches!(b.term, Some(mcc_mir::Term::Halt) | Some(mcc_mir::Term::Ret))
        {
            out.pop();
            count -= 1;
        }
        b.ops = out;
    }
    count
}

/// Jump threading: retargets branches and jumps that land on *empty*
/// blocks whose only effect is to jump elsewhere, letting the emitter's
/// fallthrough elision remove them entirely. Dispatch-table blocks are
/// exempt (they must stay one instruction long at a fixed address).
///
/// Frontends produce many such trampolines (`if`/`while` join blocks, case
/// arms); threading them shrinks code measurably on machines where a jump
/// costs a full word. Returns the number of edges retargeted.
pub fn thread_jumps(f: &mut MirFunction) -> usize {
    use mcc_mir::Term;
    // Blocks that must keep their identity: dispatch-table entries.
    let mut pinned: BTreeSet<u32> = BTreeSet::new();
    for b in &f.blocks {
        if let Some(Term::Dispatch { table, .. }) = &b.term {
            pinned.extend(table.iter().copied());
        }
    }
    // Resolve the final destination of a trampoline chain.
    let resolve = |start: u32, f: &MirFunction, pinned: &BTreeSet<u32>| -> u32 {
        let mut seen = BTreeSet::new();
        let mut t = start;
        loop {
            if pinned.contains(&t) || !seen.insert(t) {
                return t;
            }
            let b = &f.blocks[t as usize];
            match (&b.ops.is_empty(), &b.term) {
                (true, Some(Term::Jump(u))) => t = *u,
                _ => return t,
            }
        }
    };
    let mut changed = 0usize;
    for bi in 0..f.blocks.len() {
        let term = f.blocks[bi].term.clone();
        let retarget = |t: u32, f: &MirFunction| resolve(t, f, &pinned);
        let new = match term {
            Some(Term::Jump(t)) => {
                let r = retarget(t, f);
                (r != t).then_some(Term::Jump(r))
            }
            Some(Term::Branch {
                cond,
                then_block,
                else_block,
            }) => {
                let rt = retarget(then_block, f);
                let re = retarget(else_block, f);
                (rt != then_block || re != else_block).then_some(Term::Branch {
                    cond,
                    then_block: rt,
                    else_block: re,
                })
            }
            _ => None,
        };
        if let Some(n) = new {
            changed += 1;
            f.blocks[bi].term = Some(n);
        }
        // Call ops and dispatch-table trampolines keep their targets: a
        // call returns, and table entries are pinned above.
    }
    // Trampoline targets *inside* dispatch tables: the table block itself
    // is pinned, but its own jump can thread.
    for bi in 0..f.blocks.len() {
        if let Some(Term::Jump(t)) = f.blocks[bi].term {
            if pinned.contains(&(bi as u32)) {
                let r = resolve(t, f, &pinned);
                if r != t {
                    changed += 1;
                    f.blocks[bi].term = Some(Term::Jump(r));
                }
            }
        }
    }
    changed
}

/// Dead-flag analysis: marks every flag-setting operation whose flags no
/// one observes before they are overwritten, so selection may use
/// flag-free template variants (see [`mcc_mir::select::select_op`]).
///
/// Backward per block. Flags are observed by the block terminator when it
/// is a conditional branch, by `Adc`/`Sbb` (they read carry), and —
/// conservatively — by `Call` and `Poll` (a callee or an interrupt
/// handler may look at them). Flags are conservatively assumed live at
/// the exit of every block except those ending in `Halt`/`Ret`, which
/// keeps the analysis sound without a cross-block fixpoint: the *last*
/// flag writer of a fall-through block stays flagful.
///
/// Returns the number of operations marked.
pub fn mark_dead_flags(f: &mut MirFunction) -> usize {
    use mcc_machine::{AluOp, Semantic};
    let mut marked = 0;
    for b in &mut f.blocks {
        let mut live = !matches!(
            b.term,
            Some(mcc_mir::Term::Halt) | Some(mcc_mir::Term::Ret)
        );
        if matches!(b.term, Some(mcc_mir::Term::Branch { .. })) {
            live = true;
        }
        for op in b.ops.iter_mut().rev() {
            let reads = matches!(
                op.sem,
                Semantic::Alu(AluOp::Adc | AluOp::Sbb) | Semantic::Call | Semantic::Poll
            );
            if op.sets_flags() {
                op.flags_dead = !live;
                if op.flags_dead {
                    marked += 1;
                }
                live = false;
            }
            if reads {
                live = true;
            }
        }
    }
    marked
}

fn is_macro_visible(m: &MachineDesc, r: RegRef) -> bool {
    m.file(r.file).macro_visible
}

/// Taint: which entry values of macro-visible registers a value depends on.
type Taint = BTreeSet<RegRef>;

/// Detects restart-unsafe writes: an operation that writes a macro-visible
/// register with a value depending on that same register's value at entry
/// (non-idempotent), followed on the linearised program by a faultable
/// memory operation. A page-fault restart then replays the write on the
/// already-updated register — the paper's `incread` double increment.
///
/// The analysis is linear and conservative about loops (every block is
/// visited in layout order with taints joined), which is sound for the
/// structured CFGs the frontends emit.
pub fn trap_safety(m: &MachineDesc, f: &MirFunction) -> Vec<Warning> {
    // Taints of the registers written so far. A register not written yet
    // holds its entry value: a macro-visible one depends on itself.
    let mut taint: BTreeMap<RegRef, Taint> = BTreeMap::new();
    let mut warnings = Vec::new();
    let mut pending: Vec<(RegRef, String)> = Vec::new();

    for (bi, b) in f.blocks.iter().enumerate() {
        for op in &b.ops {
            if op.sem.may_trap() {
                // Raw memory op: any pending non-idempotent write becomes
                // observable through a restart.
                for (r, what) in &pending {
                    warnings.push(Warning {
                        message: format!(
                            "macro-visible register {r} is updated non-idempotently by \
                             `{what}` before a faultable memory operation in b{bi}; a \
                             page-fault restart would replay the update (the paper's \
                             `incread` bug)"
                        ),
                    });
                }
                pending.clear();
                continue;
            }
            // Propagate taint.
            let mut src_taint: Taint = BTreeSet::new();
            for s in &op.srcs {
                if let Operand::Reg(r) = s {
                    match taint.get(r) {
                        Some(t) => src_taint.extend(t.iter().copied()),
                        None if is_macro_visible(m, *r) => {
                            src_taint.insert(*r);
                        }
                        None => {}
                    }
                }
            }
            if let Some(Operand::Reg(d)) = op.dst {
                if is_macro_visible(m, d) && src_taint.contains(&d) {
                    pending.push((d, op.to_string()));
                }
                taint.insert(d, src_taint);
            }
        }
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;
    use mcc_machine::{AluOp, CondKind, Semantic};
    use mcc_mir::{FuncBuilder, Term};

    #[test]
    fn incread_pattern_flagged() {
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mar = Operand::Reg(m.special.mar.unwrap());
        let mut b = FuncBuilder::new("incread");
        b.alu_un(AluOp::Inc, r0, r0);
        b.mov(mar, r0);
        b.push(MirOp::new(Semantic::MemRead));
        b.terminate(Term::Halt);
        let f = b.finish();
        let w = trap_safety(&m, &f);
        assert_eq!(w.len(), 1);
        assert!(w[0].message.contains("non-idempotently"));
    }

    #[test]
    fn incread_through_a_copy_flagged_on_wm64() {
        // R9 := R255; R255 := R9 + 1; MAR := R255; read. R255's entry
        // value reaches its new value through R9, and R200 := 5 is
        // idempotent: only R255 is flagged.
        let m = mcc_machine::machines::wm64();
        let reg = |i| RegRef::new(m.find_file("R").unwrap(), i);
        let (r9, r200, r255) = (
            Operand::Reg(reg(9)),
            Operand::Reg(reg(200)),
            Operand::Reg(reg(255)),
        );
        let mar = Operand::Reg(m.special.mar.unwrap());
        let mut b = FuncBuilder::new("incread_wide");
        b.mov(r9, r255);
        b.alu_un(AluOp::Inc, r255, r9);
        b.ldi(r200, 5);
        b.mov(mar, r255);
        b.push(MirOp::new(Semantic::MemRead));
        b.terminate(Term::Halt);
        let w = trap_safety(&m, &b.finish());
        assert_eq!(w.len(), 1, "{w:?}");
        assert!(w[0].message.contains(&reg(255).to_string()), "{w:?}");
    }

    #[test]
    fn idempotent_write_not_flagged() {
        // r0 := 5 (constant) before a read: restart-safe.
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mar = Operand::Reg(m.special.mar.unwrap());
        let mut b = FuncBuilder::new("safe");
        b.ldi(r0, 5);
        b.mov(mar, r0);
        b.push(MirOp::new(Semantic::MemRead));
        b.terminate(Term::Halt);
        let w = trap_safety(&m, &b.finish());
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn scratch_register_updates_are_safe() {
        // ACC (not macro-visible) may be updated non-idempotently.
        let m = hm1();
        let acc = Operand::Reg(m.special.acc.unwrap());
        let mar = Operand::Reg(m.special.mar.unwrap());
        let mut b = FuncBuilder::new("s");
        b.alu_un(AluOp::Inc, acc, acc);
        b.mov(mar, acc);
        b.push(MirOp::new(Semantic::MemRead));
        b.terminate(Term::Halt);
        let w = trap_safety(&m, &b.finish());
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn write_after_last_fault_is_safe() {
        let m = hm1();
        let r0 = Operand::Reg(RegRef::new(m.find_file("R").unwrap(), 0));
        let mut b = FuncBuilder::new("s");
        b.push(MirOp::new(Semantic::MemRead));
        b.alu_un(AluOp::Inc, r0, r0);
        b.terminate(Term::Halt);
        let w = trap_safety(&m, &b.finish());
        assert!(w.is_empty());
    }

    #[test]
    fn polls_inserted_at_loop_header_and_interval() {
        let mut b = FuncBuilder::new("p");
        let x = b.vreg();
        b.ldi(x, 9);
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.jump_and_switch(head);
        b.alu_un(AluOp::Pass, x, x);
        b.branch(CondKind::Zero, done, body);
        b.switch_to(body);
        for _ in 0..5 {
            b.alu_imm(AluOp::Sub, x, x, 1);
        }
        b.terminate(Term::Jump(head));
        b.switch_to(done);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let n = insert_polls(&mut f, 3);
        assert!(n >= 2, "header poll + interval poll, got {n}");
        let polls: usize = f
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| o.sem == mcc_machine::Semantic::Poll)
            .count();
        assert_eq!(polls, n);
        // Loop header got one at the front.
        assert_eq!(f.blocks[head as usize].ops[0].sem, mcc_machine::Semantic::Poll);
    }

    #[test]
    fn jump_threading_skips_trampolines() {
        use mcc_mir::Term;
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 1);
        let tramp = b.new_block();
        let tramp2 = b.new_block();
        let end = b.new_block();
        b.terminate(Term::Jump(tramp));
        b.switch_to(tramp);
        b.terminate(Term::Jump(tramp2));
        b.switch_to(tramp2);
        b.terminate(Term::Jump(end));
        b.switch_to(end);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let n = thread_jumps(&mut f);
        assert!(n >= 1);
        assert_eq!(f.blocks[0].term, Some(Term::Jump(end)));
        f.validate().unwrap();
    }

    #[test]
    fn jump_threading_keeps_dispatch_tables() {
        use mcc_mir::Term;
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
        for t in [t0, t1] {
            b.switch_to(t);
            b.terminate(Term::Jump(end));
        }
        b.switch_to(end);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        thread_jumps(&mut f);
        // Table entries survive as blocks (pinned), still valid.
        f.validate().unwrap();
        match f.blocks[0].term.as_ref().unwrap() {
            Term::Dispatch { table, .. } => assert_eq!(table, &vec![t0, t1]),
            t => panic!("{t:?}"),
        }
    }

    #[test]
    fn self_loop_trampoline_terminates() {
        use mcc_mir::Term;
        let mut b = FuncBuilder::new("t");
        let lp = b.new_block();
        b.terminate(Term::Jump(lp));
        b.switch_to(lp);
        b.terminate(Term::Jump(lp)); // empty self-loop (an infinite spin)
        let mut f = b.finish();
        thread_jumps(&mut f); // must not hang
        f.validate().unwrap();
    }

    #[test]
    fn no_trailing_poll_before_halt() {
        let mut b = FuncBuilder::new("p");
        let x = b.vreg();
        b.ldi(x, 1);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let n = insert_polls(&mut f, 1);
        assert_eq!(n, 0, "a poll right before halt is useless");
    }
}
