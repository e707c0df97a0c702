//! # `mcc-regalloc` — register allocation for microprograms
//!
//! §2.1.3 of Sint's survey names the two complications of microlevel
//! register allocation: the register budget is small (16 on the VAX-11,
//! 256 on the CD 480), and the register set is *non-homogeneous* — where a
//! value lives determines which micro-operations can touch it. This crate
//! implements:
//!
//! * **class-constrained graph coloring** (the default): interference from
//!   liveness, per-node candidate sets from the union of admissible
//!   template classes, Chaitin-style simplify/spill,
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

use std::collections::{BTreeMap, BTreeSet, HashMap};

use mcc_machine::{MachineDesc, RegRef, Semantic};
use mcc_mir::liveness::Liveness;
use mcc_mir::operand::{Operand, VReg};
use mcc_mir::MirFunction;

mod constraints;
mod spill;

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

fn all_vregs(f: &MirFunction) -> BTreeSet<VReg> {
    let mut vs = BTreeSet::new();
    for b in &f.blocks {
        for op in &b.ops {
            if let Some(Operand::Vreg(v)) = op.dst {
                vs.insert(v);
            }
            for s in &op.srcs {
                if let Operand::Vreg(v) = s {
                    vs.insert(*v);
                }
            }
        }
        if let Some(t) = &b.term {
            for u in t.uses() {
                if let Operand::Vreg(v) = u {
                    vs.insert(v);
                }
            }
        }
    }
    for o in &f.live_out {
        if let Operand::Vreg(v) = o {
            vs.insert(*v);
        }
    }
    vs
}

/// Interference data: vreg↔vreg edges plus vreg↔physical conflicts.
#[derive(Debug, Default)]
struct Interference {
    edges: BTreeMap<VReg, BTreeSet<VReg>>,
    phys: BTreeMap<VReg, BTreeSet<RegRef>>,
    /// Static use counts (spill priority: spill the least used).
    uses: BTreeMap<VReg, usize>,
}

impl Interference {
    fn add_edge(&mut self, a: VReg, b: VReg) {
        if a != b {
            self.edges.entry(a).or_default().insert(b);
            self.edges.entry(b).or_default().insert(a);
        }
    }

    fn add_phys(&mut self, v: VReg, r: RegRef) {
        self.phys.entry(v).or_default().insert(r);
    }

    fn degree(&self, v: VReg) -> usize {
        self.edges.get(&v).map_or(0, |s| s.len())
            + self.phys.get(&v).map_or(0, |s| s.len())
    }
}

fn build_interference(f: &MirFunction, live: &Liveness) -> Interference {
    let mut g = Interference::default();
    for v in all_vregs(f) {
        g.edges.entry(v).or_default();
        g.uses.entry(v).or_default();
    }
    for (bi, b) in f.blocks.iter().enumerate() {
        let (_, after) = live.block_points(f, bi as u32);
        for (oi, op) in b.ops.iter().enumerate() {
            for s in &op.srcs {
                if let Operand::Vreg(v) = s {
                    *g.uses.entry(*v).or_default() += 1;
                }
            }
            if let Some(d) = op.def() {
                if let Operand::Vreg(v) = d {
                    *g.uses.entry(v).or_default() += 1;
                }
                // The move-coalescing exception: `mov d, s` does not make
                // d interfere with s.
                let move_src = if op.sem == Semantic::Move {
                    op.srcs.first().copied()
                } else {
                    None
                };
                for l in &after[oi] {
                    if Some(*l) == move_src {
                        continue;
                    }
                    match (d, *l) {
                        (Operand::Vreg(a), Operand::Vreg(b)) => g.add_edge(a, b),
                        (Operand::Vreg(a), Operand::Reg(r)) => g.add_phys(a, r),
                        (Operand::Reg(r), Operand::Vreg(b)) => g.add_phys(b, r),
                        (Operand::Reg(_), Operand::Reg(_)) => {}
                    }
                }
            }
        }
    }
    g
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
    let originals: BTreeSet<VReg> = all_vregs(f);
    let mut spiller = spill::Spiller::new(m);
    // Temporaries created by spill rewriting: spilling them again cannot
    // reduce register pressure (their live ranges are already minimal),
    // and choosing them makes the loop churn forever.
    let mut no_spill: BTreeSet<VReg> = BTreeSet::new();

    for _round in 0..64 {
        report.rounds += 1;
        let vregs = all_vregs(f);
        if vregs.is_empty() {
            finalize(f, &report.locations);
            return Ok(report);
        }
        let cand = constraints::candidates(m, f, opts.budget);
        if let Some(&v) = vregs.iter().find(|&&v| cand.count(v) == 0) {
            return Err(AllocError::NoCandidates(v));
        }

        let live = Liveness::compute(f);
        let graph = build_interference(f, &live);

        let assign = match opts.strategy {
            Strategy::Coloring => color(&graph, &vregs, &cand, opts.spread),
            Strategy::LinearScan => linear_scan(f, &live, &graph, &cand, opts.spread),
        };

        match assign {
            Ok(map) => {
                for (v, r) in &map {
                    if originals.contains(v) {
                        report.locations.insert(*v, Location::Reg(*r));
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
                let victim = if no_spill.contains(&failed) {
                    vregs
                        .iter()
                        .copied()
                        .filter(|v| !no_spill.contains(v))
                        .max_by_key(|&v| (graph.degree(v), std::cmp::Reverse(v.0)))
                        .ok_or(AllocError::OutOfRegisters(failed))?
                } else {
                    failed
                };
                let loc = spiller
                    .next_slot()
                    .ok_or(AllocError::OutOfRegisters(victim))?;
                if originals.contains(&victim) {
                    report.locations.insert(victim, loc_of(&loc));
                }
                report.spilled += 1;
                let before = f.vreg_count;
                report.spill_moves += spiller.rewrite(f, victim, &loc);
                for v in before..f.vreg_count {
                    no_spill.insert(VReg(v));
                }
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

/// Chaitin-style coloring of `nodes`. Returns `Err(vreg)` naming a spill
/// candidate when coloring fails.
fn color(
    g: &Interference,
    nodes: &BTreeSet<VReg>,
    cand: &Candidates,
    spread: bool,
) -> Result<BTreeMap<VReg, RegRef>, VReg> {
    let mut stack = Vec::new();
    let mut removed: BTreeSet<VReg> = BTreeSet::new();
    let nodes: Vec<VReg> = nodes.iter().copied().collect();

    // Simplify: repeatedly remove a node whose candidate count exceeds its
    // remaining degree (guaranteed colorable).
    loop {
        let mut progressed = false;
        for &v in &nodes {
            if removed.contains(&v) {
                continue;
            }
            let deg = g
                .edges
                .get(&v)
                .map_or(0, |s| s.iter().filter(|n| !removed.contains(n)).count())
                + g.phys.get(&v).map_or(0, |s| s.len());
            if cand.count(v) > deg {
                stack.push(v);
                removed.insert(v);
                progressed = true;
            }
        }
        if nodes.iter().all(|v| removed.contains(v)) {
            break;
        }
        if !progressed {
            // Optimistically push the cheapest node; if it fails to color
            // below, it becomes the spill.
            let v = nodes
                .iter()
                .filter(|v| !removed.contains(v))
                .min_by_key(|&&v| {
                    let uses = g.uses.get(&v).copied().unwrap_or(0);
                    let deg = g.degree(v).max(1);
                    // Low use / high degree → spill first. Scale to avoid
                    // float ordering.
                    (uses * 1000 / deg, v.0)
                })
                .copied()
                .expect("nonempty");
            stack.push(v);
            removed.insert(v);
        }
    }

    // Select: pop and color.
    let mut colors: BTreeMap<VReg, RegRef> = BTreeMap::new();
    let mut last_used = vec![0usize; cand.registers()];
    let mut tick = 0usize;
    let mut taken = cand.empty();
    while let Some(v) = stack.pop() {
        taken.fill(0);
        for &r in g.phys.get(&v).into_iter().flatten() {
            cand.insert(&mut taken, r);
        }
        for n in g.edges.get(&v).into_iter().flatten() {
            if let Some(&c) = colors.get(n) {
                cand.insert(&mut taken, c);
            }
        }
        match pick(cand.free(v, &taken), &last_used, spread) {
            Some(b) => {
                tick += 1;
                last_used[b] = tick;
                colors.insert(v, cand.reg(b));
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
) -> Result<BTreeMap<VReg, RegRef>, VReg> {
    // Linear positions: block order, op order; block boundaries count.
    let mut pos = 0usize;
    let mut intervals: BTreeMap<VReg, (usize, usize)> = BTreeMap::new();
    let touch = |v: VReg, p: usize, iv: &mut BTreeMap<VReg, (usize, usize)>| {
        let e = iv.entry(v).or_insert((p, p));
        e.0 = e.0.min(p);
        e.1 = e.1.max(p);
    };
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        for op in &b.ops {
            pos += 1;
            if let Some(Operand::Vreg(v)) = op.dst {
                touch(v, pos, &mut intervals);
            }
            for s in &op.srcs {
                if let Operand::Vreg(v) = s {
                    touch(*v, pos, &mut intervals);
                }
            }
        }
        pos += 1; // terminator position
        if let Some(t) = &b.term {
            for u in t.uses() {
                if let Operand::Vreg(v) = u {
                    touch(v, pos, &mut intervals);
                }
            }
        }
        // Live-through extension.
        for o in &live.sets().live_in[bi] {
            if let Operand::Vreg(v) = o {
                touch(*v, start, &mut intervals);
            }
        }
        for o in &live.sets().live_out[bi] {
            if let Operand::Vreg(v) = o {
                touch(*v, pos, &mut intervals);
            }
        }
    }

    let mut order: Vec<VReg> = intervals.keys().copied().collect();
    order.sort_by_key(|v| intervals[v].0);

    let mut active: Vec<(usize, VReg, RegRef)> = Vec::new(); // (end, vreg, reg)
    let mut colors: BTreeMap<VReg, RegRef> = BTreeMap::new();
    let mut last_used = vec![0usize; cand.registers()];
    let mut tick = 0usize;
    let mut taken = cand.empty();
    for v in order {
        let (start, end) = intervals[&v];
        active.retain(|&(e, _, _)| e >= start);
        taken.fill(0);
        for &(_, _, r) in &active {
            cand.insert(&mut taken, r);
        }
        for &r in g.phys.get(&v).into_iter().flatten() {
            cand.insert(&mut taken, r);
        }
        match pick(cand.free(v, &taken), &last_used, spread) {
            Some(b) => {
                tick += 1;
                last_used[b] = tick;
                let r = cand.reg(b);
                colors.insert(v, r);
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
                    Some(av) if intervals[&av].1 > end => av,
                    _ => v,
                });
            }
        }
    }
    Ok(colors)
}

/// Substitutes assigned registers for vregs everywhere.
fn rewrite(f: &mut MirFunction, map: &BTreeMap<VReg, RegRef>) {
    let fix = |o: &mut Operand| {
        if let Operand::Vreg(v) = o {
            if let Some(&r) = map.get(v) {
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
