//! Liveness checked against the set-based rule.
//!
//! `Liveness::compute` keeps its sets as sparse bitsets over a numbering
//! of the function's operands and walks one live-after set through each
//! block in place. This file keeps the rule it replaced as a reference: a `HashSet`
//! of operands per block, iterated to fixpoint, and a set cloned per op
//! walking back from each block's live-out. The inputs are those of
//! `tests/regalloc_pinned.rs`, from the `tests/alloc_inputs` module both
//! files share: every suite kernel on the four reference machines, the
//! generated programs and the wide EMPL programs whose operands span
//! several words, each as allocation receives it, and again after one
//! spill rewrite: the lowest-numbered vreg that allocation under a budget
//! of 4 spills, rewritten through the slot it was given. On each function:
//!
//! * every block's live-in and live-out sets equal the reference's;
//! * the set live after every op equals the reference's.

mod alloc_inputs;

use std::collections::HashSet;

use alloc_inputs::{generated_functions, suite_functions, wide_functions};
use mcc_machine::MachineDesc;
use mcc_mir::{BlockId, Liveness, MirFunction, Operand, Term};
use mcc_regalloc::spill::{Slot, Spiller};
use mcc_regalloc::{allocate, AllocOptions, Location};

/// The reference: per-block live-in and live-out sets.
fn reference(f: &MirFunction) -> (Vec<HashSet<Operand>>, Vec<HashSet<Operand>>) {
    let n = f.blocks.len();
    let mut live_in = vec![HashSet::new(); n];
    let mut live_out = vec![HashSet::new(); n];

    // use/def per block.
    let mut uses = vec![HashSet::new(); n];
    let mut defs = vec![HashSet::new(); n];
    for (i, b) in f.blocks.iter().enumerate() {
        for op in &b.ops {
            for &s in op.uses() {
                if !defs[i].contains(&s) {
                    uses[i].insert(s);
                }
            }
            if let Some(d) = op.def() {
                defs[i].insert(d);
            }
        }
        if let Some(t) = &b.term {
            for u in t.uses() {
                if !defs[i].contains(&u) {
                    uses[i].insert(u);
                }
            }
        }
    }

    // Exit blocks see the function's observable results.
    let exit_live: HashSet<Operand> = f.live_out.iter().copied().collect();

    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let mut out: HashSet<Operand> = HashSet::new();
            match &f.blocks[i].term {
                Some(Term::Ret) | Some(Term::Halt) => out.extend(exit_live.iter().copied()),
                Some(t) => {
                    for s in t.successors() {
                        out.extend(live_in[s as usize].iter().copied());
                    }
                }
                None => {}
            }
            let mut inn: HashSet<Operand> = uses[i].clone();
            for &o in &out {
                if !defs[i].contains(&o) {
                    inn.insert(o);
                }
            }
            if out != live_out[i] {
                live_out[i] = out;
                changed = true;
            }
            if inn != live_in[i] {
                live_in[i] = inn;
                changed = true;
            }
        }
    }
    (live_in, live_out)
}

/// The reference's operands live after each op of `block`.
fn reference_after(
    f: &MirFunction,
    live_out: &[HashSet<Operand>],
    block: usize,
) -> Vec<HashSet<Operand>> {
    let b = &f.blocks[block];
    let mut live = live_out[block].clone();
    if let Some(t) = &b.term {
        live.extend(t.uses());
    }
    let mut after = vec![HashSet::new(); b.ops.len()];
    for (i, op) in b.ops.iter().enumerate().rev() {
        after[i] = live.clone();
        if let Some(d) = op.def() {
            live.remove(&d);
        }
        for &s in op.uses() {
            live.insert(s);
        }
    }
    after
}

/// Checks `f` against the reference.
fn check(f: &MirFunction, what: &str) {
    let l = Liveness::compute(f);
    let (live_in, live_out) = reference(f);
    for b in 0..f.blocks.len() {
        let id = b as BlockId;
        let got_in: HashSet<Operand> = l.live_in(id).iter().collect();
        let got_out: HashSet<Operand> = l.live_out(id).iter().collect();
        assert_eq!(got_in, live_in[b], "{what}: live-in of b{b}");
        assert_eq!(got_out, live_out[b], "{what}: live-out of b{b}");
        let want = reference_after(f, &live_out, b);
        let mut got = vec![HashSet::new(); want.len()];
        l.walk(f, id, |i, live| got[i] = live.iter().collect());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g, w, "{what}: live after op {i} of b{b}");
        }
    }
}

/// Checks `f` as allocation receives it, and again after one spill
/// rewrite; returns whether there was a spill to rewrite.
fn check_with_spill(m: &MachineDesc, f: &MirFunction, what: &str) -> bool {
    check(f, what);
    let opts = AllocOptions {
        budget: Some(4),
        ..Default::default()
    };
    let Ok(report) = allocate(m, &mut f.clone(), &opts) else {
        return false;
    };
    let spilled = report
        .locations
        .iter()
        .filter_map(|(&v, l)| match *l {
            Location::Scratch(r) => Some((v, Slot::Scratch(r))),
            Location::Mem(a) => Some((v, Slot::Mem(a))),
            Location::Reg(_) => None,
        })
        .min_by_key(|&(v, _)| v);
    let Some((v, slot)) = spilled else {
        return false;
    };
    let mut g = f.clone();
    Spiller::new(m).rewrite(&mut g, v, &slot);
    check(&g, &format!("{what}, {v} spilled"));
    true
}

#[test]
fn suite_liveness_matches_the_set_based_rule() {
    let mut spilled = 0;
    for (kernel, m, f) in suite_functions() {
        let what = format!("{kernel} on {}", m.name);
        spilled += usize::from(check_with_spill(&m, &f, &what));
    }
    assert!(spilled >= 8, "only {spilled} suite functions spill");
}

#[test]
fn generated_liveness_matches_the_set_based_rule() {
    let mut spilled = 0;
    for (lang, m, fs) in generated_functions() {
        for (p, f) in fs.iter().enumerate() {
            let what = format!("{} program {p} on {}", lang.name(), m.name);
            spilled += usize::from(check_with_spill(&m, f, &what));
        }
    }
    assert!(spilled >= 150, "only {spilled} generated programs spill");
}

#[test]
fn wide_liveness_matches_the_set_based_rule() {
    let mut spilled = 0;
    for (name, m, f) in wide_functions() {
        let what = format!("{name} on {}", m.name);
        spilled += usize::from(check_with_spill(&m, &f, &what));
    }
    assert!(spilled >= 4, "only {spilled} wide functions spill");
}
