//! The data-dependence DAG over selected operations.
//!
//! §2.1.4 of the survey: "When a statement S1 creates a value used by a
//! statement S2, or, alternatively, when S2 destroys a value needed by S1,
//! S1 must be executed before S2." We distinguish the three classic kinds:
//!
//! * **flow** (read-after-write) — the consumer must sit in a *strictly
//!   later* microinstruction (within one microinstruction all reads happen
//!   in the read phase, before any write),
//! * **output** (write-after-write) — strictly later as well,
//! * **anti** (write-after-read) — may share a microinstruction (the read
//!   still sees the old value) but may not move earlier.
//!
//! Memory operations are kept in program order, and `Call`/`Poll` act as
//! full barriers (a polled interrupt must observe a consistent state).
//!
//! The graph keeps only each op's *nearest* constraining predecessors,
//! not an edge for every ordered pair the rule relates: per register, its
//! last writer and the readers since that write; the previous memory op;
//! the last barrier; and, for a barrier, every op since the previous one.
//! Each kept edge has the kind the rule gives that pair. Every other
//! constrained pair is joined by a path of kept edges whose distances sum
//! to at least the pair's own, so earliest slots, ASAP levels, critical
//! paths and hence every schedule are those of the all-pairs graph, from
//! a number of edges close to linear in the block instead of quadratic.

use mcc_machine::{RegRef, Semantic};

use crate::select::SelectedOp;

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write: strictly later microinstruction.
    Flow,
    /// Write-after-write: strictly later microinstruction.
    Output,
    /// Write-after-read: same microinstruction allowed, earlier forbidden.
    Anti,
}

impl DepKind {
    /// Minimum microinstruction distance the edge imposes.
    pub fn min_distance(self) -> usize {
        match self {
            DepKind::Flow | DepKind::Output => 1,
            DepKind::Anti => 0,
        }
    }
}

/// One dependence edge `from → to` (indices into the op slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Earlier op.
    pub from: usize,
    /// Later op.
    pub to: usize,
    /// Kind (determines whether they may share an instruction).
    pub kind: DepKind,
}

/// The dependence DAG of one basic block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    /// The kept edges by target, then source: `edges[pred_at[j]..pred_at[j + 1]]`
    /// enter op `j`.
    edges: Vec<DepEdge>,
    pred_at: Vec<usize>,
    /// The same edges by source, then target: `succ[succ_at[i]..succ_at[i + 1]]`
    /// leave op `i`.
    succ: Vec<DepEdge>,
    succ_at: Vec<usize>,
}

fn is_barrier(sem: Semantic) -> bool {
    matches!(sem, Semantic::Call | Semantic::Poll) || sem.is_control()
}

fn intersects(a: &[RegRef], b: &[RegRef]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// The constraint an op `a` puts on a later op `b`, if any.
fn kind(a: &SelectedOp, b: &SelectedOp) -> Option<DepKind> {
    let barrier = is_barrier(a.sem) || is_barrier(b.sem);
    let both_mem = a.sem.may_trap() && b.sem.may_trap();
    if barrier || both_mem || intersects(&a.writes, &b.reads) {
        Some(DepKind::Flow)
    } else if intersects(&a.writes, &b.writes) {
        Some(DepKind::Output)
    } else if intersects(&a.reads, &b.writes) {
        Some(DepKind::Anti)
    } else {
        None
    }
}

/// What the ops so far did to one register.
struct RegState {
    reg: RegRef,
    /// The last op that wrote it.
    writer: Option<usize>,
    /// Head of the chain, in the shared reader list, of the ops that read
    /// it since that write.
    readers: Option<usize>,
}

fn find(regs: &[RegState], reg: RegRef) -> Option<&RegState> {
    regs.iter().find(|s| s.reg == reg)
}

fn state(regs: &mut Vec<RegState>, reg: RegRef) -> &mut RegState {
    let at = match regs.iter().position(|s| s.reg == reg) {
        Some(at) => at,
        None => {
            regs.push(RegState {
                reg,
                writer: None,
                readers: None,
            });
            regs.len() - 1
        }
    };
    &mut regs[at]
}

impl DepGraph {
    /// Builds the DAG for a straight-line op sequence.
    pub fn build(ops: &[SelectedOp]) -> Self {
        let n = ops.len();
        let mut edges = Vec::with_capacity(2 * n.saturating_sub(1));
        let mut pred_at = Vec::with_capacity(n + 1);
        let mut regs: Vec<RegState> = Vec::new();
        // Reader chains of every register: (reading op, next entry).
        let mut readers: Vec<(usize, Option<usize>)> = Vec::new();
        let mut last_mem = None;
        let mut last_barrier = None;
        // The current op's candidate predecessors.
        let mut from: Vec<usize> = Vec::new();
        for (j, b) in ops.iter().enumerate() {
            pred_at.push(edges.len());
            from.clear();
            if is_barrier(b.sem) {
                from.extend(last_barrier.unwrap_or(0)..j);
            } else {
                from.extend(last_barrier);
            }
            if b.sem.may_trap() {
                from.extend(last_mem);
            }
            for &r in &b.reads {
                from.extend(find(&regs, r).and_then(|s| s.writer));
            }
            for &r in &b.writes {
                let Some(s) = find(&regs, r) else { continue };
                from.extend(s.writer);
                let mut next = s.readers;
                while let Some(at) = next {
                    from.push(readers[at].0);
                    next = readers[at].1;
                }
            }
            from.sort_unstable();
            from.dedup();
            edges.extend(from.iter().filter_map(|&i| {
                kind(&ops[i], b).map(|kind| DepEdge {
                    from: i,
                    to: j,
                    kind,
                })
            }));

            if j + 1 == n {
                break; // nothing left for the last op to constrain
            }
            for &r in &b.reads {
                let s = state(&mut regs, r);
                readers.push((j, s.readers));
                s.readers = Some(readers.len() - 1);
            }
            for &r in &b.writes {
                let s = state(&mut regs, r);
                s.writer = Some(j);
                s.readers = None;
            }
            if b.sem.may_trap() {
                last_mem = Some(j);
            }
            if is_barrier(b.sem) {
                last_barrier = Some(j);
            }
        }
        pred_at.push(edges.len());

        let mut succ = edges.clone();
        succ.sort_unstable_by_key(|e| (e.from, e.to));
        let mut succ_at = vec![0usize; n + 1];
        for e in &succ {
            succ_at[e.from + 1] += 1;
        }
        for i in 0..n {
            succ_at[i + 1] += succ_at[i];
        }
        DepGraph {
            edges,
            pred_at,
            succ,
            succ_at,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.pred_at.len() - 1
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The kept edges, by target: each op's nearest constraining
    /// predecessors, not every ordered pair that constrains (see the
    /// module documentation).
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// The kept edges into op `i`.
    pub fn preds(&self, i: usize) -> &[DepEdge] {
        &self.edges[self.pred_at[i]..self.pred_at[i + 1]]
    }

    /// The kept edges out of op `i`.
    pub fn succs(&self, i: usize) -> &[DepEdge] {
        &self.succ[self.succ_at[i]..self.succ_at[i + 1]]
    }

    /// Earliest possible microinstruction index for each op when resources
    /// are unlimited — the ASAP levels. Ops with equal level *could* run in
    /// parallel: this is exactly the "maximal parallelism" identified by
    /// Dasgupta & Tartar's algorithm.
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.len()];
        // Ops are in program order, so predecessors precede successors.
        for j in 0..self.len() {
            for e in self.preds(j) {
                level[j] = level[j].max(level[e.from] + e.kind.min_distance());
            }
        }
        level
    }

    /// Length of the longest dependence path from each op to any sink,
    /// counted in mandatory microinstruction steps. Used as the priority
    /// function of critical-path list scheduling.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.len()];
        for i in (0..self.len()).rev() {
            for e in self.succs(i) {
                h[i] = h[i].max(h[e.to] + e.kind.min_distance());
            }
        }
        h
    }

    /// The minimum number of microinstructions any schedule needs (the
    /// dependence-height bound; resources can only increase it).
    pub fn height_bound(&self) -> usize {
        self.asap_levels().iter().max().map_or(0, |&m| m + 1)
    }

    /// Checks that an assignment of ops to microinstruction indices
    /// respects every edge, and so every constraint of the rule. Used by
    /// tests and as a debug assertion by the compaction algorithms.
    pub fn schedule_respects(&self, mi_of: &[usize]) -> bool {
        self.edges.iter().all(|e| {
            mi_of[e.to] >= mi_of[e.from] + e.kind.min_distance()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MirOp;
    use crate::operand::Operand;
    use crate::select::select_op;
    use mcc_machine::machines::hm1;
    use mcc_machine::{AluOp, RegRef};

    fn ops(mir: &[MirOp]) -> Vec<SelectedOp> {
        let m = hm1();
        mir.iter().map(|o| select_op(&m, o).unwrap()).collect()
    }

    fn r(i: u16) -> Operand {
        let m = hm1();
        Operand::Reg(RegRef::new(m.find_file("R").unwrap(), i))
    }

    #[test]
    fn flow_edge_detected() {
        // r0 = r1+r2 ; r3 = r0|r4  → flow 0→1 (plus a flags output dep).
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Or, r(3), r(0), r(4)),
        ]);
        let g = DepGraph::build(&s);
        assert!(g
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow));
        assert_eq!(g.asap_levels(), vec![0, 1]);
        assert_eq!(g.height_bound(), 2);
    }

    #[test]
    fn independent_movs_have_no_edges() {
        let s = ops(&[MirOp::mov(r(0), r(1)), MirOp::mov(r(2), r(3))]);
        let g = DepGraph::build(&s);
        assert!(g.edges().is_empty());
        assert_eq!(g.asap_levels(), vec![0, 0], "could run in parallel");
    }

    #[test]
    fn flag_writers_get_output_edges() {
        // Two adds to disjoint registers still carry an output dep via the
        // flags register.
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Add, r(3), r(4), r(5)),
        ]);
        let g = DepGraph::build(&s);
        assert!(g
            .edges()
            .iter()
            .any(|e| e.kind == DepKind::Output), "{:?}", g.edges());
    }

    #[test]
    fn anti_edge_allows_same_instruction() {
        // mov r0 <- r1 ; mov r1 <- r2: WAR on r1.
        let s = ops(&[MirOp::mov(r(0), r(1)), MirOp::mov(r(1), r(2))]);
        let g = DepGraph::build(&s);
        let e = g.edges()[0];
        assert_eq!(e.kind, DepKind::Anti);
        assert_eq!(g.asap_levels(), vec![0, 0]);
        assert!(g.schedule_respects(&[0, 0]));
        assert!(!g.schedule_respects(&[1, 0]), "moving the writer earlier breaks WAR");
    }

    #[test]
    fn memory_ops_stay_ordered() {
        let s = ops(&[
            MirOp::new(mcc_machine::Semantic::MemRead),
            MirOp::new(mcc_machine::Semantic::MemWrite),
        ]);
        let g = DepGraph::build(&s);
        assert!(g
            .edges()
            .iter()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow));
    }

    /// Two stores with nothing written between them share no register
    /// they write; only the memory order relates them.
    #[test]
    fn back_to_back_stores_stay_ordered() {
        let s = ops(&[
            MirOp::new(mcc_machine::Semantic::MemWrite),
            MirOp::new(mcc_machine::Semantic::MemWrite),
        ]);
        let g = DepGraph::build(&s);
        assert_eq!(
            g.edges(),
            [DepEdge {
                from: 0,
                to: 1,
                kind: DepKind::Flow
            }]
        );
        assert!(!g.schedule_respects(&[0, 0]));
    }

    #[test]
    fn poll_is_a_barrier() {
        let s = ops(&[
            MirOp::mov(r(0), r(1)),
            MirOp::poll(),
            MirOp::mov(r(2), r(3)),
        ]);
        let g = DepGraph::build(&s);
        assert!(g.schedule_respects(&[0, 1, 2]));
        assert!(!g.schedule_respects(&[0, 1, 1]));
        assert!(!g.schedule_respects(&[1, 1, 2]));
    }

    #[test]
    fn critical_path_orders_priorities() {
        // Chain of three dependent adds vs one independent mov: the head of
        // the chain has the longest path.
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Add, r(3), r(0), r(2)),
            MirOp::alu(AluOp::Add, r(4), r(3), r(2)),
            MirOp::mov(r(5), r(6)),
        ]);
        let g = DepGraph::build(&s);
        let cp = g.critical_path();
        assert_eq!(cp[0], 2);
        assert_eq!(cp[3], 0);
        assert!(cp[0] > cp[1] && cp[1] > cp[2]);
    }
}
