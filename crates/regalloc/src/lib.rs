//! # `mcc-regalloc` — register allocation for microprograms
//!
//! §2.1.3 of Sint's survey names the two complications of microlevel
//! register allocation: the register budget is small (16 on the VAX-11,
//! 256 on the CD 480), and the register set is *non-homogeneous* — where a
//! value lives determines which micro-operations can touch it. This crate
//! implements:
//!
//! * **class-constrained graph coloring** (the default): interference from
//!   liveness as one sparse bit row per vreg, holding its interfering vregs
//!   and its conflicting physical registers, per-node candidate bitsets
//!   from the union of admissible template classes, Chaitin-style
//!   simplify/spill,
//! * **linear scan** for comparison,
//! * **spilling** to the machine's local store (scratch file), overflowing
//!   into a reserved area of main memory — "temporarily storing variables
//!   in a reserved area of main memory will sometimes be unavoidable",
//! * a **spread** placement policy that avoids immediate register reuse.
//!   Reuse creates anti/output dependences between independent statements,
//!   which blocks compaction (the allocation/composition interdependence
//!   of §2.1.4); experiment E6's ablation measures the effect.
//!
//! The allocator rewrites the [`MirFunction`] in place: afterwards no
//! virtual registers remain and every operand satisfies some template's
//! class constraints.

use std::collections::HashMap;

use mcc_machine::{MachineDesc, RegRef, Semantic};
use mcc_mir::liveness::{Bits, Liveness, Numbering};
use mcc_mir::operand::{Operand, VReg};
use mcc_mir::{BlockId, MirFunction};

mod constraints;
pub mod spill;

use constraints::Candidates;

/// Allocation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Chaitin-style graph coloring over class-constrained nodes.
    Coloring,
    /// Linear scan over live intervals.
    LinearScan,
}

/// Options controlling allocation.
#[derive(Debug, Clone)]
pub struct AllocOptions {
    /// The algorithm.
    pub strategy: Strategy,
    /// Restrict every register file to its first `budget` registers
    /// (experiment E6 sweeps this from 4 to 256).
    pub budget: Option<u16>,
    /// Prefer least-recently-used registers over dense reuse, reducing the
    /// false dependences that block compaction.
    pub spread: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            strategy: Strategy::Coloring,
            budget: None,
            spread: true,
        }
    }
}

/// Where a variable ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// A machine register.
    Reg(RegRef),
    /// A local-store (scratch file) slot.
    Scratch(RegRef),
    /// A word of main memory at this address (spill overflow area).
    Mem(u64),
}

/// Result of allocation.
#[derive(Debug, Clone)]
pub struct AllocReport {
    /// Final location of every *original* virtual register.
    pub locations: HashMap<VReg, Location>,
    /// How many virtual registers were spilled.
    pub spilled: usize,
    /// How many fill/spill moves were inserted.
    pub spill_moves: usize,
    /// Allocation rounds used (1 = no spilling needed).
    pub rounds: usize,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A virtual register admits no machine register at all (class
    /// constraints are contradictory).
    NoCandidates(VReg),
    /// Spilling did not converge.
    SpillLoop,
    /// The machine has no spill capacity left (no scratch file, no memory
    /// spill area) and the program does not fit the registers.
    OutOfRegisters(VReg),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NoCandidates(v) => write!(f, "{v} admits no register"),
            AllocError::SpillLoop => write!(f, "spilling failed to converge"),
            AllocError::OutOfRegisters(v) => write!(f, "no room to spill {v}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Base address of the in-memory spill overflow area.
pub const MEM_SPILL_BASE: u64 = 0xFF00;

/// Interference over the liveness numbering: one row per vreg, whose vreg
/// bits are its edges and whose register bits are its conflicts with
/// physical registers. A row takes space for its bits only.
struct Interference<'a> {
    num: &'a Numbering,
    /// The rows, indexed by vreg number.
    rows: Vec<Bits>,
    /// Static use counts (spill priority: spill the least used).
    uses: Vec<usize>,
}

impl Interference<'_> {
    fn row(&self, v: VReg) -> &Bits {
        &self.rows[v.0 as usize]
    }

    /// Edges plus physical conflicts.
    fn degree(&self, v: VReg) -> usize {
        self.row(v).count()
    }

    /// `v`'s interfering vregs, then its conflicting registers.
    fn neighbours(&self, v: VReg) -> impl Iterator<Item = Operand> + '_ {
        self.row(v).iter().map(|k| self.num.operand(k))
    }
}

fn build_interference<'a>(f: &MirFunction, live: &'a Liveness) -> Interference<'a> {
    let num = live.numbering();
    let vregs = num.vreg_count();
    let mut rows = vec![Bits::default(); vregs];
    let mut uses = vec![0usize; vregs];
    let mut others = Bits::default();
    for (bi, b) in f.blocks.iter().enumerate() {
        live.walk(f, bi as BlockId, |oi, after| {
            let op = &b.ops[oi];
            for o in op.dst.iter().chain(&op.srcs) {
                if let Operand::Vreg(v) = o {
                    uses[v.0 as usize] += 1;
                }
            }
            let Some(d) = op.def() else { return };
            // The def interferes with what is live after it, save itself
            // and, the move-coalescing exception, the source of `mov d, s`.
            let dk = num.index(d);
            others.clone_from(after.bits());
            let move_src = op.srcs.first().filter(|_| op.sem == Semantic::Move);
            for k in std::iter::once(dk).chain(move_src.map(|&s| num.index(s))) {
                others.remove(k);
            }
            for n in others.iter().take_while(|&n| n < vregs) {
                rows[n].insert(dk);
            }
            if let Operand::Vreg(v) = d {
                rows[v.0 as usize].union_with(&others);
            }
        });
    }
    Interference { num, rows, uses }
}

/// Runs register allocation on `f` for machine `m`, rewriting it in place.
///
/// # Errors
///
/// See [`AllocError`]. On success the function contains no virtual
/// registers.
pub fn allocate(
    m: &MachineDesc,
    f: &mut MirFunction,
    opts: &AllocOptions,
) -> Result<AllocReport, AllocError> {
    let mut report = AllocReport {
        locations: HashMap::new(),
        spilled: 0,
        spill_moves: 0,
        rounds: 0,
    };
    let mut spiller = spill::Spiller::new(m);
    // Vregs from here on are temporaries created by spill rewriting:
    // spilling them again cannot reduce register pressure (their live
    // ranges are already minimal), and choosing them makes the loop
    // churn forever. The function's own variables are numbered below.
    let first_temp = f.vreg_count;

    for _round in 0..64 {
        report.rounds += 1;
        if !f.has_virtual_regs() {
            finalize(f, &report.locations);
            return Ok(report);
        }
        let live = Liveness::compute(f);
        let vregs: Vec<VReg> = live.numbering().vregs().collect();
        let cand = constraints::candidates(m, f, opts.budget);
        if let Some(&v) = vregs.iter().find(|&&v| cand.count(v) == 0) {
            return Err(AllocError::NoCandidates(v));
        }
        let graph = build_interference(f, &live);

        let assign = match opts.strategy {
            Strategy::Coloring => color(&graph, &vregs, &cand, opts.spread),
            Strategy::LinearScan => linear_scan(f, &live, &graph, &cand, opts.spread),
        };

        match assign {
            Ok(map) => {
                for (v, r) in map.iter().enumerate().take(first_temp as usize) {
                    if let Some(r) = r {
                        report.locations.insert(VReg(v as u32), Location::Reg(*r));
                    }
                }
                rewrite(f, &map);
                finalize(f, &report.locations);
                return Ok(report);
            }
            Err(failed) => {
                // Pick the victim: the failed node itself when it is a
                // real variable; otherwise (a spill temporary) the
                // highest-degree spillable variable still in play.
                let victim = if failed.0 >= first_temp {
                    vregs
                        .iter()
                        .copied()
                        .filter(|v| v.0 < first_temp)
                        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v.0)))
                        .ok_or(AllocError::OutOfRegisters(failed))?
                } else {
                    failed
                };
                let loc = spiller
                    .next_slot()
                    .ok_or(AllocError::OutOfRegisters(victim))?;
                report.locations.insert(victim, loc_of(&loc));
                report.spilled += 1;
                report.spill_moves += spiller.rewrite(f, victim, &loc);
            }
        }
    }
    Err(AllocError::SpillLoop)
}

fn loc_of(s: &spill::Slot) -> Location {
    match s {
        spill::Slot::Scratch(r) => Location::Scratch(*r),
        spill::Slot::Mem(a) => Location::Mem(*a),
    }
}

/// The register bit to give a node among its `free` candidates: the
/// first in (file, index) order, or under `spread` the least recently
/// assigned (`last_used` ticks, 0 for never), ties to the first.
fn pick(mut free: impl Iterator<Item = usize>, last_used: &[usize], spread: bool) -> Option<usize> {
    if spread {
        // Least-recently-assigned candidate: avoids serial reuse.
        free.min_by_key(|&b| last_used[b])
    } else {
        free.next()
    }
}

/// Each vreg's register, indexed by vreg number.
type Assignment = Vec<Option<RegRef>>;

/// Chaitin-style coloring of `nodes`, ascending. Returns `Err(vreg)`
/// naming a spill candidate when coloring fails.
fn color(
    g: &Interference,
    nodes: &[VReg],
    cand: &Candidates,
    spread: bool,
) -> Result<Assignment, VReg> {
    let mut stack = Vec::with_capacity(nodes.len());
    // The nodes still in the graph (and every register bit): a node's
    // remaining degree is its row AND this.
    let mut left = vec![!0u64; g.num.words()];
    let in_graph = |left: &[u64], v: VReg| left[v.0 as usize / 64] & (1 << (v.0 % 64)) != 0;
    let remove = |left: &mut [u64], v: VReg| left[v.0 as usize / 64] &= !(1 << (v.0 % 64));

    // Simplify: repeatedly remove a node whose candidate count exceeds its
    // remaining degree (guaranteed colorable).
    while stack.len() < nodes.len() {
        let pushed = stack.len();
        for &v in nodes {
            if !in_graph(&left, v) {
                continue;
            }
            let deg: usize = g
                .row(v)
                .words()
                .iter()
                .map(|&(i, w)| (w & left[i as usize]).count_ones() as usize)
                .sum();
            if cand.count(v) > deg {
                stack.push(v);
                remove(&mut left, v);
            }
        }
        if stack.len() == pushed {
            // Optimistically push the cheapest node; if it fails to color
            // below, it becomes the spill.
            let v = nodes
                .iter()
                .copied()
                .filter(|&v| in_graph(&left, v))
                .min_by_key(|&v| {
                    let uses = g.uses[v.0 as usize];
                    let deg = g.degree(v).max(1);
                    // Low use / high degree → spill first. Scale to avoid
                    // float ordering.
                    (uses * 1000 / deg, v.0)
                })
                .expect("nonempty");
            stack.push(v);
            remove(&mut left, v);
        }
    }

    // Select: pop and color.
    let mut colors: Assignment = vec![None; g.num.vreg_count()];
    let mut last_used = vec![0usize; cand.registers()];
    let mut tick = 0usize;
    let mut taken = cand.empty();
    while let Some(v) = stack.pop() {
        taken.fill(0);
        for n in g.neighbours(v) {
            match n {
                Operand::Reg(r) => cand.insert(&mut taken, r),
                Operand::Vreg(n) => {
                    if let Some(c) = colors[n.0 as usize] {
                        cand.insert(&mut taken, c);
                    }
                }
            }
        }
        match pick(cand.free(v, &taken), &last_used, spread) {
            Some(b) => {
                tick += 1;
                last_used[b] = tick;
                colors[v.0 as usize] = Some(cand.reg(b));
            }
            None => return Err(v),
        }
    }
    Ok(colors)
}

/// Linear-scan allocation over linearised live intervals.
fn linear_scan(
    f: &MirFunction,
    live: &Liveness,
    g: &Interference,
    cand: &Candidates,
    spread: bool,
) -> Result<Assignment, VReg> {
    // Linear positions: block order, op order; block boundaries count.
    let mut pos = 0usize;
    let mut intervals: Vec<Option<(usize, usize)>> = vec![None; g.num.vreg_count()];
    let mut touch = |o: Operand, p: usize| {
        if let Operand::Vreg(v) = o {
            let e = intervals[v.0 as usize].get_or_insert((p, p));
            e.0 = e.0.min(p);
            e.1 = e.1.max(p);
        }
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        for op in &b.ops {
            pos += 1;
            for &o in op.dst.iter().chain(&op.srcs) {
                touch(o, pos);
            }
        }
        pos += 1; // terminator position
        if let Some(t) = &b.term {
            for u in t.uses() {
                touch(u, pos);
            }
        }
        // Live-through extension.
        for o in live.live_in(bi as BlockId).iter() {
            touch(o, start);
        }
        for o in live.live_out(bi as BlockId).iter() {
            touch(o, pos);
        }
    }

    let mut order: Vec<VReg> = (0..intervals.len())
        .filter(|&v| intervals[v].is_some())
        .map(|v| VReg(v as u32))
        .collect();
    let span = |v: VReg| intervals[v.0 as usize].expect("an interval");
    order.sort_by_key(|&v| span(v).0);

    let mut active: Vec<(usize, VReg, RegRef)> = Vec::new(); // (end, vreg, reg)
    let mut colors: Assignment = vec![None; g.num.vreg_count()];
    let mut last_used = vec![0usize; cand.registers()];
    let mut tick = 0usize;
    let mut taken = cand.empty();
    for v in order {
        let (start, end) = span(v);
        active.retain(|&(e, _, _)| e >= start);
        taken.fill(0);
        for &(_, _, r) in &active {
            cand.insert(&mut taken, r);
        }
        for n in g.neighbours(v) {
            if let Operand::Reg(r) = n {
                cand.insert(&mut taken, r);
            }
        }
        match pick(cand.free(v, &taken), &last_used, spread) {
            Some(b) => {
                tick += 1;
                last_used[b] = tick;
                let r = cand.reg(b);
                colors[v.0 as usize] = Some(r);
                active.push((end, v, r));
            }
            None => {
                // Spill the active interval ending last (Poletto-style),
                // or this one if it ends last.
                let victim = active
                    .iter()
                    .filter(|&&(_, _, r)| cand.contains(v, r))
                    .max_by_key(|&&(e, _, _)| e)
                    .map(|&(_, av, _)| av);
                return Err(match victim {
                    Some(av) if span(av).1 > end => av,
                    _ => v,
                });
            }
        }
    }
    Ok(colors)
}

/// Substitutes assigned registers for vregs everywhere.
fn rewrite(f: &mut MirFunction, map: &[Option<RegRef>]) {
    let fix = |o: &mut Operand| {
        if let Operand::Vreg(v) = o {
            if let Some(&Some(r)) = map.get(v.0 as usize) {
                *o = Operand::Reg(r);
            }
        }
    };
    for b in &mut f.blocks {
        for op in &mut b.ops {
            if let Some(d) = &mut op.dst {
                fix(d);
            }
            for s in &mut op.srcs {
                fix(s);
            }
        }
        if let Some(mcc_mir::Term::Dispatch { src, .. }) = &mut b.term {
            fix(src);
        }
    }
    for o in &mut f.live_out {
        fix(o);
    }
}

/// Replaces any remaining vreg entries in `live_out` (spilled variables —
/// their value is observable in the spill slot instead).
fn finalize(f: &mut MirFunction, locations: &HashMap<VReg, Location>) {
    f.live_out.retain(|o| match o {
        Operand::Vreg(v) => !matches!(
            locations.get(v),
            Some(Location::Scratch(_)) | Some(Location::Mem(_))
        ),
        Operand::Reg(_) => true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;
    use mcc_machine::AluOp;
    use mcc_mir::{FuncBuilder, Term};

    #[test]
    fn simple_allocation_assigns_distinct_regs() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let z = b.vreg();
        b.ldi(x, 1);
        b.ldi(y, 2);
        b.alu(AluOp::Add, z, x, y);
        b.mark_live_out(z);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert!(!f.has_virtual_regs());
        assert_eq!(rep.spilled, 0);
        let rx = rep.locations[&x];
        let ry = rep.locations[&y];
        assert_ne!(rx, ry, "x and y are simultaneously live");
    }

    #[test]
    fn dead_values_share_registers() {
        // x dead after its use; y may reuse x's register (greedy mode).
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let o1 = b.vreg();
        let o2 = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, o1, x, 1);
        b.ldi(y, 2);
        b.alu_imm(AluOp::Add, o2, y, 1);
        b.mark_live_out(o1);
        b.mark_live_out(o2);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            spread: false,
            ..Default::default()
        };
        let rep = allocate(&m, &mut f, &opts).unwrap();
        assert_eq!(rep.locations[&x], rep.locations[&y], "greedy reuses");
    }

    #[test]
    fn spread_avoids_immediate_reuse() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let o1 = b.vreg();
        let o2 = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, o1, x, 1);
        b.ldi(y, 2);
        b.alu_imm(AluOp::Add, o2, y, 1);
        b.mark_live_out(o1);
        b.mark_live_out(o2);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_ne!(
            rep.locations[&x], rep.locations[&y],
            "spread picks a fresh register"
        );
    }

    #[test]
    fn budget_forces_spills() {
        // Nine simultaneously-live values under a budget of 4.
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..9).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
        }
        // Sum them all so they are live together.
        let acc = b.vreg();
        b.ldi(acc, 0);
        for &v in &vs {
            b.alu(AluOp::Add, acc, acc, v);
        }
        b.mark_live_out(acc);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            budget: Some(4),
            ..Default::default()
        };
        let rep = allocate(&m, &mut f, &opts).unwrap();
        assert!(rep.spilled > 0, "must spill under a 4-register budget");
        assert!(!f.has_virtual_regs());
        assert!(rep.spill_moves > 0);
        // Spilled variables report scratch/memory locations.
        assert!(rep
            .locations
            .values()
            .any(|l| matches!(l, Location::Scratch(_) | Location::Mem(_))));
    }

    #[test]
    fn no_spills_with_ample_registers() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..9).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
        }
        let acc = b.vreg();
        b.ldi(acc, 0);
        for &v in &vs {
            b.alu(AluOp::Add, acc, acc, v);
        }
        b.mark_live_out(acc);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_eq!(rep.spilled, 0);
    }

    #[test]
    fn linear_scan_also_works() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.ldi(x, 1);
        b.ldi(y, 2);
        b.alu(AluOp::Add, x, x, y);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            strategy: Strategy::LinearScan,
            ..Default::default()
        };
        allocate(&m, &mut f, &opts).unwrap();
        assert!(!f.has_virtual_regs());
    }

    #[test]
    fn precolored_registers_are_respected() {
        // A vreg live across a write to R3 must not get R3.
        let m = hm1();
        let rfile = m.find_file("R").unwrap();
        let r3 = mcc_machine::RegRef::new(rfile, 3);
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 1);
        b.ldi(Operand::Reg(r3), 99);
        b.alu(AluOp::Add, x, x, Operand::Reg(r3));
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_ne!(rep.locations[&x], Location::Reg(r3));
    }

    #[test]
    fn special_registers_never_allocated() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..14).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
            b.mark_live_out(v);
        }
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        for loc in rep.locations.values() {
            if let Location::Reg(r) = loc {
                assert_ne!(Some(*r), m.special.mar);
                assert_ne!(Some(*r), m.special.mbr);
                assert_ne!(Some(*r), m.special.flags);
            }
        }
    }
}
