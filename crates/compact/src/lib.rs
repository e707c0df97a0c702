//! # `mcc-compact` — microinstruction composition
//!
//! The survey's §2.1.4 calls microinstruction composition — packing a
//! sequential stream of micro-operations into as few horizontal
//! microinstructions as dependences and resources allow — the most
//! studied problem of microcode compilation, and its §3 argues it was
//! *over*-studied relative to register allocation. This crate implements
//! the algorithm family the survey cites:
//!
//! | Algorithm | Survey reference | Idea |
//! |---|---|---|
//! | [`Algorithm::Linear`] | Ramamoorthy & Tsuchiya \[18\] | first-fit in program order |
//! | [`Algorithm::CriticalPath`] | Tsuchiya & Gonzalez \[22\] | list scheduling, longest-path priority |
//! | [`Algorithm::LevelPack`] | Dasgupta & Tartar \[3\] | maximal-parallelism level partitioning |
//! | [`Algorithm::Tokoro`] | Tokoro et al. \[21\] | list scheduling under the *fine* phase-occupancy conflict model |
//! | [`Algorithm::BranchBound`] | the "minimal sequence" baseline | exact search with pruning |
//!
//! All algorithms share one conflict oracle
//! ([`MachineDesc::conflicts`](mcc_machine::MachineDesc::conflicts), which
//! allocates nothing) and one dependence DAG ([`mcc_mir::DepGraph`], whose
//! edges are each op's nearest constraints, not every constrained pair);
//! they differ only in *order* and *placement policy*, which is exactly
//! what experiment E2 measures.

use mcc_machine::{BoundOp, ConflictModel, MachineDesc, MicroInstr};
use mcc_mir::dep::DepGraph;
use mcc_mir::select::SelectedOp;

mod bb;

/// The compaction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// First-come-first-served first-fit (SIMPL's approach).
    Linear,
    /// List scheduling with critical-path priority.
    CriticalPath,
    /// Dasgupta–Tartar level partitioning: ops of ASAP level *k* may not
    /// share an instruction with ops of level *k+1*.
    LevelPack,
    /// Tokoro-style: critical-path list scheduling, but conflicts are
    /// judged per phase ([`ConflictModel::Fine`]) regardless of the model
    /// passed in.
    Tokoro,
    /// Exact branch-and-bound (falls back to critical-path above
    /// [`BB_MAX_OPS`] operations).
    BranchBound,
    /// One operation per microinstruction in program order — no packing at
    /// all. This is the reference semantics the differential fuzzer
    /// compares every other algorithm against (and the floor of the
    /// degradation chain); it is structurally incapable of packing
    /// conflicts or reordering hazards.
    Sequential,
}

impl Algorithm {
    /// All *compacting* algorithms, for sweeps. [`Algorithm::Sequential`]
    /// is deliberately excluded: it is the uncompacted baseline, not a
    /// competitor, and including it would skew the E2 comparisons.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Linear,
        Algorithm::CriticalPath,
        Algorithm::LevelPack,
        Algorithm::Tokoro,
        Algorithm::BranchBound,
    ];

    /// Short display name (used in experiment tables, on the command line
    /// and on the wire).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Linear => "linear",
            Algorithm::CriticalPath => "critpath",
            Algorithm::LevelPack => "levelpack",
            Algorithm::Tokoro => "tokoro",
            Algorithm::BranchBound => "optimal",
            Algorithm::Sequential => "sequential",
        }
    }

    /// The algorithm whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<Algorithm> {
        Self::ALL
            .into_iter()
            .chain([Algorithm::Sequential])
            .find(|a| a.name() == name)
    }

    /// The conflict model this algorithm schedules under: `requested`,
    /// except that [`Algorithm::Tokoro`] always judges conflicts per phase
    /// (that *is* the algorithm's contribution). Code scheduled under a
    /// model must be validated, and its terminators packed, under it too.
    pub fn model(self, requested: ConflictModel) -> ConflictModel {
        if self == Algorithm::Tokoro {
            ConflictModel::Fine
        } else {
            requested
        }
    }
}

/// Block size limit for the exact search.
pub const BB_MAX_OPS: usize = 14;

/// Default node budget for the exact search: deterministic (a node count,
/// not a timeout), so the same input degrades the same way everywhere.
pub const BB_DEFAULT_BUDGET: u64 = 2_000_000;

/// Floor for pressure-scaled budgets: enough nodes to solve small blocks
/// exactly, tiny enough to bound worst-case latency under load.
pub const BB_MIN_BUDGET: u64 = 1_000;

/// Scales an exact-search node budget for a load-shedding pressure tier:
/// tier 0 is the base budget, and each higher tier divides it by 8 —
/// enforcing the survey's observation that compaction effort is the
/// right first thing to trade for latency, since every stage of the
/// degradation chain still emits correct code. Never drops below
/// [`BB_MIN_BUDGET`], and saturates at tier 4.
pub fn budget_for_pressure(base: u64, tier: u8) -> u64 {
    if tier == 0 {
        return base;
    }
    (base >> (3 * u32::from(tier.min(4)))).max(BB_MIN_BUDGET)
}

/// Result of compacting one basic block.
#[derive(Debug, Clone)]
pub struct Compaction {
    /// The packed microinstructions.
    pub instrs: Vec<MicroInstr>,
    /// For each input op, the index of the instruction it landed in.
    pub mi_of: Vec<usize>,
}

impl Compaction {
    /// Number of microinstructions produced.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the block compacted to nothing.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }
}

/// Whether `op` can join microinstruction `mi` without conflicts.
pub(crate) fn fits(m: &MachineDesc, mi: &MicroInstr, op: &BoundOp, model: ConflictModel) -> bool {
    mi.ops.iter().all(|o| !m.conflicts(o, op, model))
}

/// Picks the first candidate of `op` that fits `mi`.
fn pick_candidate<'a>(
    m: &MachineDesc,
    mi: &MicroInstr,
    op: &'a SelectedOp,
    model: ConflictModel,
) -> Option<&'a BoundOp> {
    op.candidates.iter().find(|c| fits(m, mi, c, model))
}

/// Earliest legal instruction index for op `j` given already-placed preds.
fn earliest(g: &DepGraph, mi_of: &[Option<usize>], j: usize) -> Option<usize> {
    let mut e = 0usize;
    for p in g.preds(j) {
        match mi_of[p.from] {
            Some(s) => e = e.max(s + p.kind.min_distance()),
            None => return None, // predecessor unscheduled
        }
    }
    Some(e)
}

/// First-fit placement of op `j` from index `from` upward.
fn place_first_fit(
    m: &MachineDesc,
    instrs: &mut Vec<MicroInstr>,
    op: &SelectedOp,
    from: usize,
    model: ConflictModel,
) -> usize {
    let mut t = from;
    loop {
        if t >= instrs.len() {
            instrs.resize_with(t + 1, MicroInstr::new);
        }
        if let Some(c) = pick_candidate(m, &instrs[t], op, model) {
            instrs[t].ops.push(*c);
            return t;
        }
        t += 1;
    }
}

fn linear(m: &MachineDesc, ops: &[SelectedOp], g: &DepGraph, model: ConflictModel) -> Compaction {
    let mut instrs: Vec<MicroInstr> = Vec::new();
    let mut placed: Vec<Option<usize>> = vec![None; ops.len()];
    for j in 0..ops.len() {
        let e = earliest(g, &placed, j).expect("program order schedules preds first");
        let t = place_first_fit(m, &mut instrs, &ops[j], e, model);
        placed[j] = Some(t);
    }
    finish(m, instrs, placed, g, model)
}

pub(crate) fn list_schedule(
    m: &MachineDesc,
    ops: &[SelectedOp],
    g: &DepGraph,
    model: ConflictModel,
) -> Compaction {
    let prio = g.critical_path();
    let n = ops.len();
    let mut placed: Vec<Option<usize>> = vec![None; n];
    // Per op: how many predecessors are still unplaced, and the earliest
    // slot the placed ones allow.
    let mut deps: Vec<(usize, usize)> = (0..n).map(|j| (g.preds(j).len(), 0)).collect();
    // Unplaced ops whose predecessors are all placed.
    let mut waiting: Vec<usize> = Vec::with_capacity(n);
    waiting.extend((0..n).filter(|&j| deps[j].0 == 0));
    let mut instrs: Vec<MicroInstr> = Vec::new();
    let mut done = 0usize;
    let mut t = 0usize;
    while done < n {
        if t >= instrs.len() {
            instrs.resize_with(t + 1, MicroInstr::new);
        }
        // The cycle's candidates are the ops waiting when it starts, by
        // priority then order; ops freed during the cycle queue behind
        // them for the next one.
        waiting.sort_unstable_by_key(|&j| (std::cmp::Reverse(prio[j]), j));
        let ready = waiting.len();
        for k in 0..ready {
            let j = waiting[k];
            if deps[j].1 > t {
                continue; // its earliest slot is later
            }
            // Re-check: an op placed this cycle may create a same-cycle
            // hazard only through conflicts, which `fits` sees; dependence
            // distances are fixed before the cycle starts.
            if let Some(c) = pick_candidate(m, &instrs[t], &ops[j], model) {
                instrs[t].ops.push(*c);
                placed[j] = Some(t);
                done += 1;
                for e in g.succs(j) {
                    let d = &mut deps[e.to];
                    d.0 -= 1;
                    d.1 = d.1.max(t + e.kind.min_distance());
                    if d.0 == 0 {
                        waiting.push(e.to);
                    }
                }
            }
        }
        waiting.retain(|&j| placed[j].is_none());
        t += 1;
    }
    finish(m, instrs, placed, g, model)
}

fn level_pack(
    m: &MachineDesc,
    ops: &[SelectedOp],
    g: &DepGraph,
    model: ConflictModel,
) -> Compaction {
    let levels = g.asap_levels();
    let max_level = levels.iter().copied().max().unwrap_or(0);
    let n = ops.len();
    let mut placed: Vec<Option<usize>> = vec![None; n];
    let mut instrs: Vec<MicroInstr> = Vec::new();
    let mut level_start = 0usize;
    for l in 0..=max_level {
        let mut level_end = level_start;
        for j in 0..n {
            if levels[j] != l {
                continue;
            }
            // Anti-dependences within a level still constrain placement.
            let e = earliest(g, &placed, j).unwrap_or(level_start).max(level_start);
            let t = place_first_fit(m, &mut instrs, &ops[j], e, model);
            placed[j] = Some(t);
            level_end = level_end.max(t + 1);
        }
        // The next level starts strictly after this one's instructions.
        level_start = level_end.max(level_start);
    }
    finish(m, instrs, placed, g, model)
}

pub(crate) fn finish(
    m: &MachineDesc,
    mut instrs: Vec<MicroInstr>,
    placed: Vec<Option<usize>>,
    g: &DepGraph,
    model: ConflictModel,
) -> Compaction {
    // Drop empty trailing/interior instructions, remapping indices.
    let mut remap = vec![usize::MAX; instrs.len()];
    let mut out: Vec<MicroInstr> = Vec::new();
    for (i, mi) in instrs.drain(..).enumerate() {
        if !mi.is_empty() {
            remap[i] = out.len();
            out.push(mi);
        }
    }
    let mi_of: Vec<usize> = placed
        .into_iter()
        .map(|p| remap[p.expect("all ops placed")])
        .collect();
    debug_assert!(g.schedule_respects(&mi_of), "dependence violated");
    debug_assert!(
        out.iter().all(|mi| m.validate_instr(mi, model).is_ok()),
        "conflicting pack emitted"
    );
    Compaction { instrs: out, mi_of }
}

/// The result of [`compact_degrading`]: the schedule, the algorithm that
/// finally produced it, and the fallback chain taken to get there.
#[derive(Debug, Clone)]
pub struct DegradedCompaction {
    /// The packed schedule.
    pub compaction: Compaction,
    /// Name of the algorithm that produced it (`"sequential"` at the
    /// bottom of the chain).
    pub algorithm_used: &'static str,
    /// One entry per degradation step; empty when the requested algorithm
    /// succeeded outright.
    pub events: Vec<String>,
    /// How weak the producing algorithm is in the chain: 0 for the
    /// requested one, then 1 for critical path, 2 for first-come-first-
    /// served and 3 for strictly sequential.
    pub rank: usize,
}

/// The fallbacks tried, strongest first, when the requested algorithm
/// fails; strictly sequential, which cannot fail, comes after them.
const FALLBACKS: [Algorithm; 2] = [Algorithm::CriticalPath, Algorithm::Linear];

/// Last-resort schedule: one operation per microinstruction, in program
/// order. Structurally incapable of packing conflicts or reordering
/// hazards, so it needs no validation to be safe.
fn sequential(ops: &[SelectedOp]) -> Compaction {
    Compaction {
        instrs: ops
            .iter()
            .map(|o| MicroInstr::single(o.candidates[0]))
            .collect(),
        mi_of: (0..ops.len()).collect(),
    }
}

/// Full validation of a finished schedule (release-mode checked — unlike
/// the `debug_assert`s in [`finish`], this is what the degradation chain
/// keys off).
fn check(
    m: &MachineDesc,
    g: &DepGraph,
    c: &Compaction,
    model: ConflictModel,
) -> Result<(), String> {
    if c.mi_of.len() != g.len() {
        return Err(format!(
            "{} of {} ops scheduled",
            c.mi_of.len(),
            g.len()
        ));
    }
    if !g.schedule_respects(&c.mi_of) {
        return Err("dependence order violated".into());
    }
    for (i, mi) in c.instrs.iter().enumerate() {
        if let Err(e) = m.validate_instr(mi, model) {
            return Err(format!("instruction {i}: {e}"));
        }
    }
    Ok(())
}

/// Compacts one basic block of selected operations, with graceful
/// degradation instead of failure. This is the crate's one entry point.
///
/// The chain is: the requested algorithm (the exact search is capped by
/// the deterministic `bb_budget` node budget and the [`BB_MAX_OPS`] size
/// limit) → critical-path list scheduling → first-come-first-served →
/// strictly sequential. Every attempt is validated against the dependence
/// DAG and the machine's conflict oracle; an invalid schedule drops to the
/// next stage and records why, so the pipeline always emits *correct*
/// code, merely less compact under duress. Every stage schedules under
/// [`Algorithm::model`] of `model`.
pub fn compact_degrading(
    m: &MachineDesc,
    ops: &[SelectedOp],
    algo: Algorithm,
    model: ConflictModel,
    bb_budget: u64,
) -> DegradedCompaction {
    if ops.is_empty() {
        return DegradedCompaction {
            compaction: Compaction {
                instrs: Vec::new(),
                mi_of: Vec::new(),
            },
            algorithm_used: algo.name(),
            events: Vec::new(),
            rank: 0,
        };
    }
    let g = DepGraph::build(ops);
    let model = algo.model(model);
    let mut events: Vec<String> = Vec::new();

    // Stage 1: the requested algorithm.
    let attempt = match algo {
        Algorithm::BranchBound if ops.len() > BB_MAX_OPS => {
            events.push(format!(
                "optimal: {} ops exceed the {BB_MAX_OPS}-op exact-search limit; \
                 degrading to list scheduling",
                ops.len()
            ));
            None
        }
        Algorithm::BranchBound => {
            let (c, status) = bb::branch_and_bound_budgeted(m, ops, &g, model, bb_budget);
            if status.exhausted {
                events.push(format!(
                    "optimal: node budget {bb_budget} exhausted; \
                     keeping best schedule found so far"
                ));
            }
            Some(c)
        }
        Algorithm::Linear => Some(linear(m, ops, &g, model)),
        Algorithm::CriticalPath | Algorithm::Tokoro => Some(list_schedule(m, ops, &g, model)),
        Algorithm::LevelPack => Some(level_pack(m, ops, &g, model)),
        Algorithm::Sequential => Some(sequential(ops)),
    };
    if let Some(c) = attempt {
        match check(m, &g, &c, model) {
            Ok(()) => {
                return DegradedCompaction {
                    compaction: c,
                    algorithm_used: algo.name(),
                    events,
                    rank: 0,
                }
            }
            Err(e) => events.push(format!("{}: invalid schedule ({e}); degrading", algo.name())),
        }
    }

    // Stage 2/3: list scheduling, then first-come-first-served.
    for (i, fallback) in FALLBACKS.into_iter().enumerate() {
        if fallback == algo {
            continue; // already tried as the request itself
        }
        let c = match fallback {
            Algorithm::Linear => linear(m, ops, &g, model),
            _ => list_schedule(m, ops, &g, model),
        };
        match check(m, &g, &c, model) {
            Ok(()) => {
                return DegradedCompaction {
                    compaction: c,
                    algorithm_used: fallback.name(),
                    events,
                    rank: i + 1,
                }
            }
            Err(e) => {
                events.push(format!("{}: invalid schedule ({e}); degrading", fallback.name()))
            }
        }
    }

    // Stage 4: strictly sequential — cannot fail.
    events.push("sequential: one operation per microinstruction".into());
    DegradedCompaction {
        compaction: sequential(ops),
        algorithm_used: Algorithm::Sequential.name(),
        events,
        rank: FALLBACKS.len() + 1,
    }
}

/// Packs a terminator (or other control op) after a compacted body: into
/// the body's last instruction when conflict-free and dependence-safe, or
/// into a fresh instruction otherwise. Returns the instruction index used.
///
/// Dependence safety: within one microinstruction all reads precede all
/// writes, so the control op may not read anything the last instruction
/// writes (a branch testing flags must not share a cycle with the op that
/// sets them).
pub fn pack_control(
    m: &MachineDesc,
    instrs: &mut Vec<MicroInstr>,
    op: BoundOp,
    model: ConflictModel,
) -> usize {
    if let Some(last) = instrs.last() {
        let reads = m.read_set(&op);
        let raw_hazard = last
            .ops
            .iter()
            .any(|o| m.write_set(o).iter().any(|w| reads.contains(w)));
        let has_control = last
            .ops
            .iter()
            .any(|o| m.template(o.template).semantic.is_control());
        if !raw_hazard && !has_control && fits(m, last, &op, model) {
            let idx = instrs.len() - 1;
            instrs.last_mut().expect("nonempty").ops.push(op);
            return idx;
        }
    }
    instrs.push(MicroInstr::single(op));
    instrs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{bx2, hm1, vm1, wm64};
    use mcc_machine::{AluOp, CondKind, RegRef, Semantic};
    use mcc_mir::op::MirOp;
    use mcc_mir::operand::Operand;
    use mcc_mir::select::select_op;

    fn sel(m: &MachineDesc, mir: &[MirOp]) -> Vec<SelectedOp> {
        mir.iter().map(|o| select_op(m, o).unwrap()).collect()
    }

    /// The schedule alone, under the default exact-search budget.
    fn compact(
        m: &MachineDesc,
        ops: &[SelectedOp],
        algo: Algorithm,
        model: ConflictModel,
    ) -> Compaction {
        compact_degrading(m, ops, algo, model, BB_DEFAULT_BUDGET).compaction
    }

    #[test]
    fn names_round_trip() {
        for a in Algorithm::ALL.into_iter().chain([Algorithm::Sequential]) {
            assert_eq!(Algorithm::from_name(a.name()), Some(a));
        }
        assert_eq!(Algorithm::from_name("fastest"), None);
    }

    fn r(m: &MachineDesc, i: u16) -> Operand {
        let f = m.find_file("R").or_else(|| m.find_file("G")).unwrap();
        Operand::Reg(RegRef::new(f, i))
    }

    /// An oversize block under the exact algorithm degrades to list
    /// scheduling and records why; the schedule stays valid.
    #[test]
    fn degrading_skips_oversize_exact_search() {
        let m = hm1();
        let mir: Vec<MirOp> = (0..BB_MAX_OPS as u16 + 6)
            .map(|i| MirOp::alu(AluOp::Add, r(&m, i % 8), r(&m, (i + 1) % 8), r(&m, (i + 2) % 8)))
            .collect();
        let ops = sel(&m, &mir);
        let d = compact_degrading(&m, &ops, Algorithm::BranchBound, ConflictModel::Fine, 1_000);
        assert_eq!(d.algorithm_used, "critpath");
        assert_eq!(d.events.len(), 1);
        assert!(d.events[0].contains("exceed"), "{}", d.events[0]);
        let g = DepGraph::build(&ops);
        assert!(check(&m, &g, &d.compaction, ConflictModel::Fine).is_ok());
    }

    /// Budget exhaustion keeps the incumbent (still valid, still reported
    /// as the exact algorithm's best effort) and records the event.
    #[test]
    fn degrading_reports_budget_exhaustion() {
        let m = hm1();
        let mir: Vec<MirOp> = (0..8u16)
            .map(|i| MirOp::alu(AluOp::Add, r(&m, i % 8), r(&m, (i + 1) % 8), r(&m, (i + 2) % 8)))
            .collect();
        let ops = sel(&m, &mir);
        let d = compact_degrading(&m, &ops, Algorithm::BranchBound, ConflictModel::Fine, 1);
        assert_eq!(d.algorithm_used, "optimal");
        assert!(d.events.iter().any(|e| e.contains("budget")), "{:?}", d.events);
        let g = DepGraph::build(&ops);
        assert!(check(&m, &g, &d.compaction, ConflictModel::Fine).is_ok());
    }

    /// Same seed in = same schedule out: the node budget is deterministic,
    /// not wall-clock based.
    #[test]
    fn degrading_is_deterministic() {
        let m = hm1();
        let mir: Vec<MirOp> = (0..10u16)
            .map(|i| MirOp::alu(AluOp::Add, r(&m, i % 8), r(&m, (i + 1) % 8), r(&m, (i + 2) % 8)))
            .collect();
        let ops = sel(&m, &mir);
        let a = compact_degrading(&m, &ops, Algorithm::BranchBound, ConflictModel::Fine, 5_000);
        let b = compact_degrading(&m, &ops, Algorithm::BranchBound, ConflictModel::Fine, 5_000);
        assert_eq!(a.compaction.mi_of, b.compaction.mi_of);
        assert_eq!(a.events, b.events);
    }

    /// The sequential floor of the chain is dependence- and conflict-safe
    /// by construction.
    #[test]
    fn sequential_floor_is_valid() {
        let m = hm1();
        let mir: Vec<MirOp> = (0..6u16)
            .map(|i| MirOp::alu(AluOp::Add, r(&m, i), r(&m, i), r(&m, i)))
            .collect();
        let ops = sel(&m, &mir);
        let c = sequential(&ops);
        let g = DepGraph::build(&ops);
        assert!(check(&m, &g, &c, ConflictModel::Fine).is_ok());
        assert_eq!(c.len(), ops.len());
    }

    /// `Algorithm::Sequential` through the public API: exactly one
    /// microinstruction per op, valid under the fine model, and the
    /// degradation entry point reports it as the requested algorithm.
    #[test]
    fn sequential_algorithm_is_first_class() {
        let m = hm1();
        let mir: Vec<MirOp> = (0..5u16)
            .map(|i| MirOp::alu(AluOp::Add, r(&m, i), r(&m, i + 1), r(&m, i + 2)))
            .collect();
        let ops = sel(&m, &mir);
        let c = compact(&m, &ops, Algorithm::Sequential, ConflictModel::Fine);
        assert_eq!(c.len(), ops.len());
        let g = DepGraph::build(&ops);
        assert!(check(&m, &g, &c, ConflictModel::Fine).is_ok());
        let d = compact_degrading(&m, &ops, Algorithm::Sequential, ConflictModel::Fine, 1_000);
        assert_eq!(d.algorithm_used, "sequential");
        assert!(d.events.is_empty());
        assert_eq!(d.compaction.mi_of, c.mi_of);
    }

    /// Four independent movs on HM-1: only one move bus, so four cycles —
    /// unless we also use the ALU pass-through... which writes flags, so
    /// two movs per cycle never happen on the bus. Expect 4 MIs via bus
    /// (mov candidates only).
    #[test]
    fn independent_movs_serialise_on_one_bus() {
        let m = hm1();
        let ops = sel(
            &m,
            &[
                MirOp::mov(r(&m, 0), r(&m, 1)),
                MirOp::mov(r(&m, 2), r(&m, 3)),
                MirOp::mov(r(&m, 4), r(&m, 5)),
                MirOp::mov(r(&m, 6), r(&m, 7)),
            ],
        );
        for algo in Algorithm::ALL {
            let c = compact(&m, &ops, algo, ConflictModel::Coarse);
            assert_eq!(c.len(), 4, "{}", algo.name());
        }
    }

    /// A mov and an ALU op are independent and use distinct units → 1 MI
    /// under the fine model, 2 under the coarse model (ALU write-back
    /// touches the move bus in phase 2).
    #[test]
    fn fine_model_packs_tighter_than_coarse() {
        let m = hm1();
        let ops = sel(
            &m,
            &[
                MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2)),
                MirOp::mov(r(&m, 4), r(&m, 5)),
            ],
        );
        let coarse = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        let fine = compact(&m, &ops, Algorithm::Tokoro, ConflictModel::Coarse);
        assert_eq!(coarse.len(), 2);
        assert_eq!(fine.len(), 1, "Tokoro sees the phase-disjoint bus use");
    }

    /// Two independent adds on WM-64 pack into one MI via the second ALU.
    #[test]
    fn unit_choice_on_wm64() {
        let m = wm64();
        // Use the `.1` twin by hand? No — selection returns both and the
        // compactor must discover the combination. Note both `add`
        // templates write flags except add.1; add+add.1 is the only pair.
        let ops = sel(
            &m,
            &[
                MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2)),
                MirOp::alu(AluOp::Xor, r(&m, 3), r(&m, 4), r(&m, 5)),
            ],
        );
        // xor/xor.1 candidate choice: one of them must land beside add.
        // But add writes flags and xor writes flags; xor.1 does not.
        let c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        assert_eq!(c.len(), 2, "both flag-writers: output dep forces 2 MIs");

        // With explicitly independent ops (second op on ALU-1 semantics,
        // no flags): mov + add pack fine.
        let ops = sel(
            &m,
            &[
                MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2)),
                MirOp::mov(r(&m, 3), r(&m, 4)),
            ],
        );
        let c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        assert_eq!(c.len(), 1);
    }

    /// Dependent chain cannot compact below its height anywhere.
    #[test]
    fn chains_respect_height_bound() {
        for m in [hm1(), vm1(), bx2(), wm64()] {
            let ops = sel(
                &m,
                &[
                    MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2)),
                    MirOp::alu(AluOp::Add, r(&m, 3), r(&m, 0), r(&m, 2)),
                    MirOp::alu(AluOp::Add, r(&m, 4), r(&m, 3), r(&m, 2)),
                ],
            );
            for algo in Algorithm::ALL {
                let c = compact(&m, &ops, algo, ConflictModel::Coarse);
                assert_eq!(c.len(), 3, "{} on {}", algo.name(), m.name);
            }
        }
    }

    /// On VM-1 everything serialises: op count == MI count.
    #[test]
    fn vertical_machine_never_packs() {
        let m = vm1();
        let ops = sel(
            &m,
            &[
                MirOp::mov(r(&m, 0), r(&m, 1)),
                MirOp::mov(r(&m, 2), r(&m, 3)),
                MirOp::ldi(r(&m, 4), 7),
            ],
        );
        for algo in Algorithm::ALL {
            let c = compact(&m, &ops, algo, ConflictModel::Coarse);
            assert_eq!(c.len(), 3, "{}", algo.name());
        }
    }

    /// Critical-path list scheduling fixes each cycle's ready set when the
    /// cycle starts. The last `mov`'s last predecessor is the `add`, an
    /// anti-dependence (it reads the register the `mov` writes), placed
    /// in cycle 1. The two fit one instruction under the fine model, yet
    /// the `mov` waits for cycle 2.
    #[test]
    fn an_op_freed_during_a_cycle_waits_for_the_next() {
        let m = hm1();
        let ops = sel(
            &m,
            &[
                MirOp::mov(r(&m, 1), r(&m, 5)),
                MirOp::alu(AluOp::Add, r(&m, 3), r(&m, 1), r(&m, 2)),
                MirOp::mov(r(&m, 1), r(&m, 4)),
            ],
        );
        let g = DepGraph::build(&ops);
        assert!(g
            .edges()
            .iter()
            .any(|e| (e.from, e.to, e.kind) == (1, 2, mcc_mir::DepKind::Anti)));
        let add = MicroInstr::single(ops[1].candidates[0]);
        assert!(pick_candidate(&m, &add, &ops[2], ConflictModel::Fine).is_some());
        let c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Fine);
        assert_eq!(c.mi_of, vec![0, 1, 2]);
    }

    /// Branch-and-bound is never worse than any heuristic.
    #[test]
    fn optimal_dominates_heuristics() {
        let m = hm1();
        // A mix with reordering opportunities: two chains interleaved.
        let ops = sel(
            &m,
            &[
                MirOp::mov(r(&m, 0), r(&m, 1)),
                MirOp::mov(r(&m, 2), r(&m, 0)),
                MirOp::alu(AluOp::Add, r(&m, 3), r(&m, 4), r(&m, 5)),
                MirOp::alu(AluOp::Or, r(&m, 6), r(&m, 3), r(&m, 5)),
                MirOp::mov(r(&m, 7), r(&m, 8)),
                MirOp::shift(mcc_machine::ShiftOp::Shl, r(&m, 9), r(&m, 9), 1),
            ],
        );
        let best = compact(&m, &ops, Algorithm::BranchBound, ConflictModel::Coarse).len();
        for algo in [Algorithm::Linear, Algorithm::CriticalPath, Algorithm::LevelPack] {
            let c = compact(&m, &ops, algo, ConflictModel::Coarse);
            assert!(
                best <= c.len(),
                "optimal {} vs {} {}",
                best,
                algo.name(),
                c.len()
            );
        }
    }

    #[test]
    fn pack_control_merges_when_safe() {
        let m = hm1();
        // Body: one mov. A jmp has no reads: packs into the same MI.
        let ops = sel(&m, &[MirOp::mov(r(&m, 0), r(&m, 1))]);
        let mut c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        let jmp = BoundOp::new(m.find_template("jmp").unwrap()).with_target(3);
        let idx = pack_control(&m, &mut c.instrs, jmp, ConflictModel::Coarse);
        assert_eq!(idx, 0);
        assert_eq!(c.instrs.len(), 1);
        assert_eq!(c.instrs[0].len(), 2);
    }

    #[test]
    fn pack_control_respects_flag_raw() {
        let m = hm1();
        // Body: add (writes flags). A branch reading flags must wait.
        let ops = sel(&m, &[MirOp::alu(AluOp::Add, r(&m, 0), r(&m, 1), r(&m, 2))]);
        let mut c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        let br = BoundOp::new(m.find_template("br").unwrap())
            .with_cond(CondKind::Zero)
            .with_target(3);
        let idx = pack_control(&m, &mut c.instrs, br, ConflictModel::Coarse);
        assert_eq!(idx, 1, "branch lands in a fresh MI");
        assert_eq!(c.instrs.len(), 2);
    }

    #[test]
    fn pack_control_never_doubles_control() {
        let m = hm1();
        let mut instrs = vec![MicroInstr::single(
            BoundOp::new(m.find_template("jmp").unwrap()).with_target(1),
        )];
        let halt = BoundOp::new(m.find_template("halt").unwrap());
        let idx = pack_control(&m, &mut instrs, halt, ConflictModel::Coarse);
        assert_eq!(idx, 1);
    }

    #[test]
    fn empty_block_compacts_to_nothing() {
        let m = hm1();
        let c = compact(&m, &[], Algorithm::Linear, ConflictModel::Coarse);
        assert!(c.is_empty());
    }

    /// Memory expansion compacts sensibly: mov MAR / read / mov from MBR is
    /// a 3-high chain.
    #[test]
    fn memory_chain_height() {
        let m = hm1();
        let ops = sel(
            &m,
            &[
                MirOp::mov(Operand::Reg(m.special.mar.unwrap()), r(&m, 0)),
                MirOp::new(Semantic::MemRead),
                MirOp::mov(r(&m, 1), Operand::Reg(m.special.mbr.unwrap())),
            ],
        );
        let c = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn pressure_budget_scales_monotonically_and_floors() {
        assert_eq!(budget_for_pressure(BB_DEFAULT_BUDGET, 0), BB_DEFAULT_BUDGET);
        let mut prev = BB_DEFAULT_BUDGET;
        for tier in 1..=6u8 {
            let b = budget_for_pressure(BB_DEFAULT_BUDGET, tier);
            assert!(b <= prev, "tier {tier} must not raise the budget");
            assert!(b >= BB_MIN_BUDGET);
            prev = b;
        }
        // Deep tiers saturate at the floor rather than reaching zero.
        assert_eq!(budget_for_pressure(BB_DEFAULT_BUDGET, 6), BB_MIN_BUDGET);
        assert_eq!(budget_for_pressure(0, 3), BB_MIN_BUDGET);
    }
}
