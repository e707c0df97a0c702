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

use mcc_machine::Semantic;

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
    n: usize,
    edges: Vec<DepEdge>,
    succ: Vec<Vec<(usize, DepKind)>>,
    pred: Vec<Vec<(usize, DepKind)>>,
}

fn is_barrier(sem: Semantic) -> bool {
    matches!(sem, Semantic::Call | Semantic::Poll) || sem.is_control()
}

fn intersects(a: &[mcc_machine::RegRef], b: &[mcc_machine::RegRef]) -> bool {
    a.iter().any(|x| b.contains(x))
}

impl DepGraph {
    /// Builds the DAG for a straight-line op sequence.
    pub fn build(ops: &[SelectedOp]) -> Self {
        let n = ops.len();
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let a = &ops[i];
                let b = &ops[j];
                let barrier = is_barrier(a.sem) || is_barrier(b.sem);
                let both_mem = a.sem.may_trap() && b.sem.may_trap();
                let kind = if barrier || both_mem || intersects(&a.writes, &b.reads) {
                    Some(DepKind::Flow)
                } else if intersects(&a.writes, &b.writes) {
                    Some(DepKind::Output)
                } else if intersects(&a.reads, &b.writes) {
                    Some(DepKind::Anti)
                } else {
                    None
                };
                if let Some(kind) = kind {
                    edges.push(DepEdge { from: i, to: j, kind });
                }
            }
        }
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for e in &edges {
            succ[e.from].push((e.to, e.kind));
            pred[e.to].push((e.from, e.kind));
        }
        DepGraph {
            n,
            edges,
            succ,
            pred,
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// All edges.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Predecessors of `i` with edge kinds.
    pub fn preds(&self, i: usize) -> &[(usize, DepKind)] {
        &self.pred[i]
    }

    /// Earliest possible microinstruction index for each op when resources
    /// are unlimited — the ASAP levels. Ops with equal level *could* run in
    /// parallel: this is exactly the "maximal parallelism" identified by
    /// Dasgupta & Tartar's algorithm.
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.n];
        // Ops are in program order, so predecessors precede successors.
        for j in 0..self.n {
            for &(i, kind) in &self.pred[j] {
                level[j] = level[j].max(level[i] + kind.min_distance());
            }
        }
        level
    }

    /// Length of the longest dependence path from each op to any sink,
    /// counted in mandatory microinstruction steps. Used as the priority
    /// function of critical-path list scheduling.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut h = vec![0usize; self.n];
        for i in (0..self.n).rev() {
            for &(j, kind) in &self.succ[i] {
                h[i] = h[i].max(h[j] + kind.min_distance());
            }
        }
        h
    }

    /// The minimum number of microinstructions any schedule needs (the
    /// dependence-height bound; resources can only increase it).
    pub fn height_bound(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.asap_levels()
            .iter()
            .max()
            .map(|&m| m + 1)
            .unwrap_or(0)
    }

    /// Checks that an assignment of ops to microinstruction indices
    /// respects every edge. Used by tests and as a debug assertion by the
    /// compaction algorithms.
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
