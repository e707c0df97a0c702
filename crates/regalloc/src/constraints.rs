//! Per-vreg candidate sets from template class constraints.
//!
//! "Allocating a variable to a certain register at a certain program point
//! also determines which subset of microoperations can be applied to that
//! variable at that point" (§2.1.3). The allocator therefore intersects,
//! over every occurrence of a virtual register, the union of register
//! classes any realising template admits at that operand position.
//!
//! [`candidates`] computes every vreg's set in one pass over the ops, as a
//! bitset over the machine's registers in (file, index) order. Each
//! operand-position union is built once per pass, however often its
//! position recurs, and an occurrence then costs one AND per word.

use std::collections::HashMap;

use mcc_machine::{FileId, MachineDesc, RegClass, RegRef, Semantic, SrcSpec};
use mcc_mir::liveness::ones;
use mcc_mir::operand::{Operand, VReg};
use mcc_mir::{MirFunction, MirOp, Term};

/// Registers never handed out by the allocator: the special registers
/// (MAR/MBR/ACC/flags — they carry implicit template semantics) and the
/// scratch file (reserved for spill slots).
fn reserved(m: &MachineDesc, r: RegRef) -> bool {
    Some(r) == m.special.mar
        || Some(r) == m.special.mbr
        || Some(r) == m.special.acc
        || Some(r) == m.special.flags
        || Some(r.file) == m.scratch_file
        || m.special.flags.map(|f| f.file) == Some(r.file)
}

/// Every vreg's admissible registers: one bitset per vreg over the
/// machine's registers, bit `base[file] + index`, so ascending bits are
/// (file, index) order.
pub(crate) struct Candidates {
    /// First bit of each register file, then the register count.
    base: Vec<usize>,
    /// The register behind each bit.
    regs: Vec<RegRef>,
    /// `u64` words per set.
    words: usize,
    /// The sets, `words` apiece, indexed by vreg number.
    sets: Vec<u64>,
}

impl Candidates {
    fn new(m: &MachineDesc) -> Self {
        let mut base = Vec::with_capacity(m.files.len() + 1);
        let mut regs = Vec::new();
        for (i, file) in m.files.iter().enumerate() {
            base.push(regs.len());
            regs.extend((0..file.count).map(|r| RegRef::new(FileId(i as u16), r)));
        }
        base.push(regs.len());
        let words = regs.len().div_ceil(64).max(1);
        Candidates {
            base,
            regs,
            words,
            sets: Vec::new(),
        }
    }

    /// Number of registers, one bit each.
    pub(crate) fn registers(&self) -> usize {
        self.regs.len()
    }

    /// The register behind `bit`.
    pub(crate) fn reg(&self, bit: usize) -> RegRef {
        self.regs[bit]
    }

    /// The bit of `r`, when `r` is one of the machine's registers.
    fn bit(&self, r: RegRef) -> Option<usize> {
        let f = r.file.index();
        let b = self.base.get(f)? + usize::from(r.index);
        (b < *self.base.get(f + 1)?).then_some(b)
    }

    /// An empty set.
    pub(crate) fn empty(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    /// Adds `r` to `set`; registers the machine lacks are never candidates
    /// and are left out.
    pub(crate) fn insert(&self, set: &mut [u64], r: RegRef) {
        if let Some(b) = self.bit(r) {
            set[b / 64] |= 1 << (b % 64);
        }
    }

    /// Adds every member of `class` to `set`, range by range. A range past
    /// the end of its file, which `MachineDesc::validate` rejects, is cut
    /// at the file's end.
    fn add_class(&self, set: &mut [u64], class: &RegClass) {
        for &(f, lo, n) in &class.ranges {
            let (Some(&first), Some(&end)) =
                (self.base.get(f.index()), self.base.get(f.index() + 1))
            else {
                continue;
            };
            let lo = first + usize::from(lo);
            for b in lo..(lo + usize::from(n)).min(end) {
                set[b / 64] |= 1 << (b % 64);
            }
        }
    }

    /// `v`'s set.
    fn of(&self, v: VReg) -> &[u64] {
        let i = v.0 as usize * self.words;
        &self.sets[i..i + self.words]
    }

    /// How many registers `v` admits.
    pub(crate) fn count(&self, v: VReg) -> usize {
        self.of(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `v` admits `r`.
    pub(crate) fn contains(&self, v: VReg, r: RegRef) -> bool {
        self.bit(r)
            .is_some_and(|b| self.of(v)[b / 64] & (1 << (b % 64)) != 0)
    }

    /// The bits of `v`'s candidates not in `taken`, in (file, index) order.
    pub(crate) fn free<'a>(
        &'a self,
        v: VReg,
        taken: &'a [u64],
    ) -> impl Iterator<Item = usize> + 'a {
        ones(self.of(v).iter().zip(taken).map(|(c, t)| c & !t))
    }
}

/// What an operand-position union depends on: the op's semantic and shape
/// (has a destination, register sources, has an immediate), then the
/// position (`None` for the destination, else the source index).
type PositionKey = ((Semantic, bool, usize, bool), Option<usize>);

/// Union of class members admissible at `pos` of `op` (`None` for the
/// destination) across all shape-compatible templates.
fn position_union(m: &MachineDesc, c: &Candidates, op: &MirOp, pos: Option<usize>) -> Vec<u64> {
    let mut set = c.empty();
    for tid in m.templates_for(op.sem) {
        let t = m.template(tid);
        // Shape compatibility mirrors `select::try_bind`.
        if t.dst.is_some() != op.dst.is_some()
            || t.reg_src_count() != op.srcs.len()
            || t.has_imm() != op.imm.is_some()
        {
            continue;
        }
        let class = match pos {
            None => t.dst,
            Some(i) => t
                .srcs
                .iter()
                .filter_map(|s| match s {
                    SrcSpec::Class(c) => Some(*c),
                    SrcSpec::Imm { .. } => None,
                })
                .nth(i),
        };
        if let Some(class) = class {
            c.add_class(&mut set, m.class(class));
        }
    }
    set
}

/// Union of the class sources of the machine's `Dispatch` templates: the
/// registers a dispatch index may live in.
fn dispatch_union(m: &MachineDesc, c: &Candidates) -> Vec<u64> {
    let mut set = c.empty();
    for tid in m.templates_for(Semantic::Dispatch) {
        for s in &m.template(tid).srcs {
            if let SrcSpec::Class(class) = s {
                c.add_class(&mut set, m.class(*class));
            }
        }
    }
    set
}

/// The default candidate pool for unconstrained vregs (e.g. appearing only
/// in `live_out`): every register of every file that some template can
/// read *and* write. The caller clears reserved registers and applies the
/// budget, as for every other set.
fn default_pool(m: &MachineDesc, c: &Candidates) -> Vec<u64> {
    let mut readable = c.empty();
    let mut writable = c.empty();
    for t in &m.templates {
        if let Some(class) = t.dst {
            c.add_class(&mut writable, m.class(class));
        }
        for s in &t.srcs {
            if let SrcSpec::Class(class) = s {
                c.add_class(&mut readable, m.class(*class));
            }
        }
    }
    readable.iter().zip(&writable).map(|(r, w)| r & w).collect()
}

/// Computes the admissible registers of every vreg of `f` on machine `m`
/// in one pass over the ops, optionally limited to the first `budget`
/// registers of each file. A vreg that no op or dispatch names gets the
/// default pool; reserved registers are never candidates. Vreg numbers
/// are below `f.vreg_count`, as [`MirFunction::new_vreg`] hands them out.
pub(crate) fn candidates(m: &MachineDesc, f: &MirFunction, budget: Option<u16>) -> Candidates {
    let c = Candidates::new(m);
    let words = c.words;
    let mut sets = vec![0u64; f.vreg_count as usize * words];
    // Whether a vreg has met a constraint yet; until it has, its set is
    // not an intersection of anything.
    let mut constrained = vec![false; f.vreg_count as usize];
    let mut constrain = |v: VReg, set: &[u64]| {
        let i = v.0 as usize;
        let acc = &mut sets[i * words..(i + 1) * words];
        if constrained[i] {
            for (a, s) in acc.iter_mut().zip(set) {
                *a &= s;
            }
        } else {
            acc.copy_from_slice(set);
            constrained[i] = true;
        }
    };

    let mut unions: HashMap<PositionKey, Vec<u64>> = HashMap::new();
    let mut dispatch = None;
    for b in &f.blocks {
        for op in &b.ops {
            let shape = (op.sem, op.dst.is_some(), op.srcs.len(), op.imm.is_some());
            let dst = op.dst.iter().map(|o| (None, o));
            let srcs = op.srcs.iter().enumerate().map(|(i, o)| (Some(i), o));
            for (pos, o) in dst.chain(srcs) {
                if let Operand::Vreg(v) = *o {
                    let set = unions
                        .entry((shape, pos))
                        .or_insert_with(|| position_union(m, &c, op, pos));
                    constrain(v, set);
                }
            }
        }
        if let Some(Term::Dispatch {
            src: Operand::Vreg(v),
            ..
        }) = b.term
        {
            constrain(v, dispatch.get_or_insert_with(|| dispatch_union(m, &c)));
        }
    }

    let mut allowed = c.empty();
    for (b, &r) in c.regs.iter().enumerate() {
        if !reserved(m, r) && budget.is_none_or(|n| r.index < n) {
            allowed[b / 64] |= 1 << (b % 64);
        }
    }
    let mut pool = None;
    for (i, set) in sets.chunks_mut(words).enumerate() {
        if !constrained[i] {
            set.copy_from_slice(pool.get_or_insert_with(|| default_pool(m, &c)));
        }
        for (s, a) in set.iter_mut().zip(&allowed) {
            *s &= a;
        }
    }
    Candidates { sets, ..c }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{self, hm1, wm64};
    use mcc_machine::AluOp;
    use mcc_mir::FuncBuilder;

    /// `v`'s candidates from the one-pass computation, in (file, index)
    /// order.
    fn candidates_of(
        m: &MachineDesc,
        f: &MirFunction,
        v: VReg,
        budget: Option<u16>,
    ) -> Vec<RegRef> {
        let c = candidates(m, f, budget);
        c.free(v, &c.empty()).map(|b| c.reg(b)).collect()
    }

    /// Register ranges by file name: `(file, first, end)`.
    type Ranges = &'static [(&'static str, u16, u16)];

    /// The registers `ranges` names on `m`, in (file, index) order.
    fn expand(m: &MachineDesc, ranges: Ranges) -> Vec<RegRef> {
        ranges
            .iter()
            .flat_map(|&(file, lo, hi)| {
                let f = m.find_file(file).unwrap();
                (lo..hi).map(move |i| RegRef::new(f, i))
            })
            .collect()
    }

    #[test]
    fn alu_operand_constrains_to_alu_classes() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.alu(AluOp::Add, y, x, x);
        b.mark_live_out(y);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        // alu_left ∩ alu_right = R0..R15 + ACC, minus reserved ACC → 16.
        assert_eq!(cand.len(), 16);
        let rfile = m.find_file("R").unwrap();
        assert!(cand.iter().all(|r| r.file == rfile));
    }

    #[test]
    fn budget_truncates_pool() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 3);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let f = b.finish();
        let all = candidates_of(&m, &f, x, None);
        let four = candidates_of(&m, &f, x, Some(4));
        assert!(four.len() < all.len());
        assert!(four.iter().all(|r| r.index < 4));
    }

    #[test]
    fn reserved_registers_excluded() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 3);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        assert!(!cand.contains(&m.special.mar.unwrap()));
        assert!(!cand.contains(&m.special.mbr.unwrap()));
        // The LS scratch file is reserved for spills even though `mov`
        // could address it.
        let ls = m.find_file("LS").unwrap();
        assert!(cand.iter().all(|r| r.file != ls));
    }

    #[test]
    fn alu1_narrow_class_on_wm64_does_not_block() {
        // On WM-64, `add` is realised by both ALUs; the union is all 256.
        let m = wm64();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.alu(AluOp::Add, y, x, x);
        b.mark_live_out(y);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        assert_eq!(cand.len(), 256);
    }

    #[test]
    fn dispatch_index_takes_the_dispatch_source_classes() {
        // A vreg read only as a dispatch index: the union of the
        // `Dispatch` templates' class sources, minus reserved registers.
        // BX-2 has no dispatch template, so nothing admits the index.
        let want: [(&str, Ranges); 4] = [
            ("HM-1", &[("R", 0, 16)]),
            ("VM-1", &[("R", 0, 16)]),
            ("BX-2", &[]),
            ("WM-64", &[("R", 0, 256)]),
        ];
        for (m, (name, ranges)) in machines::all().iter().zip(want) {
            assert_eq!(m.name, name);
            let mut b = FuncBuilder::new("t");
            let x = b.vreg();
            let t0 = b.new_block();
            let t1 = b.new_block();
            b.terminate(Term::Dispatch {
                src: x.into(),
                mask: 1,
                table: vec![t0, t1],
            });
            for t in [t0, t1] {
                b.switch_to(t);
                b.terminate(Term::Halt);
            }
            let f = b.finish();
            assert_eq!(candidates_of(m, &f, x, None), expand(m, ranges), "{name}");
        }
    }

    #[test]
    fn live_out_only_vreg_takes_the_default_pool() {
        // A vreg named only in `live_out`: every register some template
        // reads and some template writes, minus reserved, under the budget.
        let want: [(&str, Ranges, Ranges); 4] = [
            ("HM-1", &[("R", 0, 16)], &[("R", 0, 4)]),
            ("VM-1", &[("R", 0, 16)], &[("R", 0, 4)]),
            ("BX-2", &[("G", 0, 8)], &[("G", 0, 4)]),
            ("WM-64", &[("R", 0, 256)], &[("R", 0, 4)]),
        ];
        for (m, (name, all, four)) in machines::all().iter().zip(want) {
            assert_eq!(m.name, name);
            let mut b = FuncBuilder::new("t");
            let x = b.vreg();
            b.mark_live_out(x);
            b.terminate(Term::Halt);
            let f = b.finish();
            assert_eq!(candidates_of(m, &f, x, None), expand(m, all), "{name}");
            assert_eq!(candidates_of(m, &f, x, Some(4)), expand(m, four), "{name}");
        }
    }
}
