//! Liveness analysis over MIR.
//!
//! Classic backward dataflow on the block CFG, tracking *both* virtual and
//! physical register operands (a function may mix them: YALLL binds some
//! variables to machine registers while the compiler allocates the rest —
//! §2.2.4 of the paper leaves it open whether binding is required for all).
//!
//! Every set is a [`Bits`] over one [`Numbering`] of the function's
//! operands: the nonzero words of a bitset, so a set takes space for its
//! members rather than for the whole numbering, and a function of many
//! short-lived values keeps small sets. [`Liveness::walk`] moves one such
//! set backward through a block in place, so asking what is live after
//! each op copies nothing per op.

use mcc_machine::RegRef;

use crate::func::{BlockId, MirFunction, Term};
use crate::operand::{Operand, VReg};

/// The bits set in `words`, ascending.
pub fn ones(words: impl IntoIterator<Item = u64>) -> impl Iterator<Item = usize> {
    words.into_iter().enumerate().flat_map(|(i, mut w)| {
        std::iter::from_fn(move || {
            (w != 0).then(|| {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                i * 64 + b
            })
        })
    })
}

/// A set of operand numbers: the nonzero `u64` words of a bitset, each
/// with its index, ascending.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Bits(Vec<(u32, u64)>);

impl Clone for Bits {
    fn clone(&self) -> Self {
        Bits(self.0.clone())
    }

    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl Bits {
    /// Where word `i` is, or where it would go.
    fn find(&self, i: u32) -> Result<usize, usize> {
        self.0.binary_search_by_key(&i, |&(j, _)| j)
    }

    /// Adds `k`.
    pub fn insert(&mut self, k: usize) {
        let (i, bit) = ((k / 64) as u32, 1 << (k % 64));
        match self.find(i) {
            Ok(at) => self.0[at].1 |= bit,
            Err(at) => self.0.insert(at, (i, bit)),
        }
    }

    /// Removes `k`.
    pub fn remove(&mut self, k: usize) {
        if let Ok(at) = self.find((k / 64) as u32) {
            self.0[at].1 &= !(1 << (k % 64));
            if self.0[at].1 == 0 {
                self.0.remove(at);
            }
        }
    }

    /// Whether `k` is a member.
    pub fn contains(&self, k: usize) -> bool {
        self.find((k / 64) as u32)
            .is_ok_and(|at| self.0[at].1 & (1 << (k % 64)) != 0)
    }

    /// How many members there are.
    pub fn count(&self) -> usize {
        self.0.iter().map(|&(_, w)| w.count_ones() as usize).sum()
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0
            .iter()
            .flat_map(|&(i, w)| ones([w]).map(move |b| i as usize * 64 + b))
    }

    /// The nonzero words, each with its index, ascending.
    pub fn words(&self) -> &[(u32, u64)] {
        &self.0
    }

    /// Adds every member of `other`.
    pub fn union_with(&mut self, other: &Bits) {
        let mut at = 0;
        for &(i, w) in &other.0 {
            at += self.0[at..].partition_point(|&(j, _)| j < i);
            match self.0.get_mut(at) {
                Some((j, x)) if *j == i => *x |= w,
                _ => self.0.insert(at, (i, w)),
            }
        }
    }

    /// Removes every member of `other`.
    fn subtract(&mut self, other: &Bits) {
        for &(i, w) in &other.0 {
            if let Ok(at) = self.find(i) {
                self.0[at].1 &= !w;
            }
        }
        self.0.retain(|&(_, w)| w != 0);
    }
}

/// A function's register operands numbered densely: vreg `v` is `v.0`,
/// then the function's distinct physical registers follow in (file,
/// index) order.
#[derive(Debug, Clone)]
pub struct Numbering {
    /// The function's `vreg_count`: the first physical register's number.
    vregs: usize,
    /// The physical registers, ascending.
    regs: Vec<RegRef>,
    /// The vregs the function names, one bit each.
    named: Vec<u64>,
}

impl Numbering {
    /// Numbers the operands of `f`: those of its ops, of its dispatch
    /// terminators and of its `live_out`. Vreg numbers are below
    /// `f.vreg_count`, as [`MirFunction::new_vreg`] hands them out.
    fn new(f: &MirFunction) -> Self {
        let vregs = f.vreg_count as usize;
        let mut n = Numbering {
            vregs,
            regs: Vec::new(),
            named: vec![0; vregs.div_ceil(64)],
        };
        for b in &f.blocks {
            for op in &b.ops {
                op.dst.iter().chain(&op.srcs).for_each(|&o| n.name(o));
            }
            b.term.iter().flat_map(Term::uses).for_each(|o| n.name(o));
        }
        f.live_out.iter().for_each(|&o| n.name(o));
        n.regs.sort_unstable();
        n
    }

    fn name(&mut self, o: Operand) {
        match o {
            Operand::Vreg(v) => self.named[v.0 as usize / 64] |= 1 << (v.0 % 64),
            Operand::Reg(r) if !self.regs.contains(&r) => self.regs.push(r),
            Operand::Reg(_) => {}
        }
    }

    /// How many `u64` words a bitset over every number takes.
    pub fn words(&self) -> usize {
        (self.vregs + self.regs.len()).div_ceil(64)
    }

    /// How many numbers go to vregs (the function's `vreg_count`); the
    /// physical registers take the numbers from here on.
    pub fn vreg_count(&self) -> usize {
        self.vregs
    }

    /// The vregs the function names, ascending.
    pub fn vregs(&self) -> impl Iterator<Item = VReg> + '_ {
        ones(self.named.iter().copied()).map(|k| VReg(k as u32))
    }

    /// The number of `o`, when `o` is one of the function's operands.
    fn get(&self, o: Operand) -> Option<usize> {
        match o {
            Operand::Vreg(v) => Some(v.0 as usize).filter(|&k| k < self.vregs),
            Operand::Reg(r) => self.regs.binary_search(&r).ok().map(|i| self.vregs + i),
        }
    }

    /// The number of `o`, which must be one of the function's operands.
    pub fn index(&self, o: Operand) -> usize {
        self.get(o).expect("an operand of the function")
    }

    /// The operand numbered `k`.
    pub fn operand(&self, k: usize) -> Operand {
        match k.checked_sub(self.vregs) {
            None => Operand::Vreg(VReg(k as u32)),
            Some(i) => Operand::Reg(self.regs[i]),
        }
    }

    /// `bits` as a set of operands.
    fn view<'a>(&'a self, bits: &'a Bits) -> OperandSet<'a> {
        OperandSet { num: self, bits }
    }
}

/// A set of one function's operands: a [`Bits`] over its [`Numbering`].
#[derive(Debug, Clone, Copy)]
pub struct OperandSet<'a> {
    num: &'a Numbering,
    bits: &'a Bits,
}

impl<'a> OperandSet<'a> {
    /// Whether `o` is in the set.
    pub fn contains(&self, o: Operand) -> bool {
        self.num.get(o).is_some_and(|k| self.bits.contains(k))
    }

    /// The members, in numbering order.
    pub fn iter(&self) -> impl Iterator<Item = Operand> + 'a {
        let num = self.num;
        self.bits.iter().map(move |k| num.operand(k))
    }

    /// The members' numbers.
    pub fn bits(&self) -> &'a Bits {
        self.bits
    }
}

/// Liveness analysis results: each block's live-in and live-out sets.
#[derive(Debug, Clone)]
pub struct Liveness {
    num: Numbering,
    /// The sets, indexed by block.
    live_in: Vec<Bits>,
    live_out: Vec<Bits>,
}

impl Liveness {
    /// Numbers the operands of `f` and runs the analysis to fixpoint.
    pub fn compute(f: &MirFunction) -> Self {
        let num = Numbering::new(f);
        let n = f.blocks.len();
        // Per block: the operands read before any write in it (a
        // dispatch index last), and those it writes.
        let mut uses = vec![Bits::default(); n];
        let mut defs = vec![Bits::default(); n];
        for (b, (u, d)) in f.blocks.iter().zip(uses.iter_mut().zip(&mut defs)) {
            let mut read = |d: &Bits, s: Operand| {
                let k = num.index(s);
                if !d.contains(k) {
                    u.insert(k);
                }
            };
            for op in &b.ops {
                op.srcs.iter().for_each(|&s| read(d, s));
                if let Some(x) = op.dst {
                    d.insert(num.index(x));
                }
            }
            b.term.iter().flat_map(Term::uses).for_each(|s| read(d, s));
        }

        // Exit blocks see the function's observable results.
        let mut exit = Bits::default();
        for &o in &f.live_out {
            exit.insert(num.index(o));
        }
        let succ: Vec<Vec<BlockId>> = f
            .blocks
            .iter()
            .map(|b| b.term.as_ref().map_or_else(Vec::new, Term::successors))
            .collect();

        let mut live_in = vec![Bits::default(); n];
        let mut live_out = vec![Bits::default(); n];
        let (mut out, mut inn) = (Bits::default(), Bits::default());
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                match &f.blocks[i].term {
                    Some(Term::Ret | Term::Halt) => out.clone_from(&exit),
                    _ => out.0.clear(),
                }
                for &s in &succ[i] {
                    out.union_with(&live_in[s as usize]);
                }
                inn.clone_from(&out);
                inn.subtract(&defs[i]);
                inn.union_with(&uses[i]);
                for (new, old) in [(&mut out, &mut live_out[i]), (&mut inn, &mut live_in[i])] {
                    if new != old {
                        std::mem::swap(new, old);
                        changed = true;
                    }
                }
            }
        }
        Liveness {
            num,
            live_in,
            live_out,
        }
    }

    /// The operand numbering every set is over.
    pub fn numbering(&self) -> &Numbering {
        &self.num
    }

    /// Operands live on entry to `block`.
    pub fn live_in(&self, block: BlockId) -> OperandSet<'_> {
        self.num.view(&self.live_in[block as usize])
    }

    /// Operands live on exit from `block`.
    pub fn live_out(&self, block: BlockId) -> OperandSet<'_> {
        self.num.view(&self.live_out[block as usize])
    }

    /// Walks `block` of `f` backward, last op first, calling `visit(i,
    /// live)` with the operands live *after* `ops[i]`: the block's live-out
    /// set and its dispatch index, then each later op's def removed and
    /// its sources added. The one set is updated in place.
    pub fn walk(&self, f: &MirFunction, block: BlockId, mut visit: impl FnMut(usize, OperandSet)) {
        let b = &f.blocks[block as usize];
        let mut live = self.live_out[block as usize].clone();
        for s in b.term.iter().flat_map(Term::uses) {
            live.insert(self.num.index(s));
        }
        for (i, op) in b.ops.iter().enumerate().rev() {
            visit(i, self.num.view(&live));
            if let Some(d) = op.dst {
                live.remove(self.num.index(d));
            }
            for &s in &op.srcs {
                live.insert(self.num.index(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FuncBuilder;
    use mcc_machine::{AluOp, CondKind};

    /// The sets live after each op of `block`, in op order.
    fn after(l: &Liveness, f: &MirFunction, block: BlockId) -> Vec<Vec<Operand>> {
        let mut after = vec![Vec::new(); f.blocks[block as usize].ops.len()];
        l.walk(f, block, |i, live| after[i] = live.iter().collect());
        after
    }

    #[test]
    fn straight_line_liveness() {
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, y, x, 2);
        b.mark_live_out(y);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // y is live out of the (only) block; x is not.
        assert!(l.live_out(0).contains(Operand::Vreg(y)));
        assert!(
            !l.live_in(0).contains(Operand::Vreg(x)),
            "x is defined locally"
        );
    }

    #[test]
    fn loop_carried_liveness() {
        // b0: ldi x; jump b1
        // b1: pass x (flags); br zero -> b3 else b2
        // b2: sub x, x, 1; jump b1
        // b3: halt (x live out)
        let mut b = FuncBuilder::new("l");
        let x = b.vreg();
        b.ldi(x, 3);
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.jump_and_switch(head);
        b.alu_un(AluOp::Pass, x, x);
        b.branch(CondKind::Zero, done, body);
        b.switch_to(body);
        b.alu_imm(AluOp::Sub, x, x, 1);
        b.terminate(crate::Term::Jump(head));
        b.switch_to(done);
        b.mark_live_out(x);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // x live around the back edge.
        for blk in 0..4 {
            assert!(
                l.live_in(blk).contains(Operand::Vreg(x)) || blk == 0,
                "x should be live into b{blk}"
            );
        }
    }

    #[test]
    fn block_points_track_per_op() {
        let mut b = FuncBuilder::new("p");
        let x = b.vreg();
        let y = b.vreg();
        b.ldi(x, 1);
        b.mov(y, x);
        b.mark_live_out(y);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // Live before the first op is live into the block.
        let before = l.live_in(0);
        let after = after(&l, &f, 0);
        assert!(
            !before.contains(Operand::Vreg(x)),
            "x not live before its def"
        );
        assert!(
            after[0].contains(&Operand::Vreg(x)),
            "x live between def and use"
        );
        assert!(
            !after[1].contains(&Operand::Vreg(x)),
            "x dead after last use"
        );
        assert!(after[1].contains(&Operand::Vreg(y)));
    }

    #[test]
    fn bits_match_a_set_model_across_words() {
        use std::collections::BTreeSet;
        // A fixed LCG drives inserts, removals, unions and subtractions
        // over numbers spanning eight words, against a `BTreeSet` model.
        let mut x = 0x5EED_u64;
        let mut next = |n: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((x >> 33) % n) as usize
        };
        let (mut a, mut b) = (Bits::default(), Bits::default());
        let (mut ma, mut mb) = (BTreeSet::new(), BTreeSet::new());
        for _ in 0..4000 {
            let k = next(512);
            match next(6) {
                0 | 1 => {
                    a.insert(k);
                    ma.insert(k);
                }
                2 => {
                    a.remove(k);
                    ma.remove(&k);
                }
                3 => {
                    b.insert(k);
                    mb.insert(k);
                }
                4 => {
                    a.union_with(&b);
                    ma.extend(mb.iter().copied());
                }
                _ => {
                    b.subtract(&a);
                    mb.retain(|k| !ma.contains(k));
                }
            }
            for (s, m) in [(&a, &ma), (&b, &mb)] {
                assert!(s.iter().eq(m.iter().copied()));
                assert_eq!(s.count(), m.len());
                assert!(s.words().windows(2).all(|w| w[0].0 < w[1].0));
                assert!(s.words().iter().all(|&(_, w)| w != 0));
            }
            assert_eq!(a.contains(k), ma.contains(&k));
        }
    }

    #[test]
    fn dispatch_source_is_live() {
        let mut b = FuncBuilder::new("d");
        let x = b.vreg();
        b.ldi(x, 0);
        let t0 = b.new_block();
        let t1 = b.new_block();
        let end = b.new_block();
        b.terminate(crate::Term::Dispatch {
            src: x.into(),
            mask: 1,
            table: vec![t0, t1],
        });
        for t in [t0, t1] {
            b.switch_to(t);
            b.terminate(crate::Term::Jump(end));
        }
        b.switch_to(end);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // x used by the terminator: live after the ldi.
        let after = after(&l, &f, 0);
        assert!(after[0].contains(&Operand::Vreg(x)));
    }
}
