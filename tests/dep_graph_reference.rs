//! The dependence graph checked against the all-pairs rule.
//!
//! `DepGraph::build` keeps, for each op, only the predecessors that
//! constrain it most directly. This file keeps the all-pairs build as a
//! reference: one edge for every ordered pair of ops that §2.1.4's rule
//! relates, kind by that rule. The blocks are every selected block of
//! the kernel suite on the four reference machines, and of 200 generated
//! programs per frontend per machine, each generated program compiled
//! once as is and once with a poll every three ops, so that barriers are
//! covered. On each block:
//!
//! * every kept edge is an all-pairs edge of the same kind;
//! * `critical_path` and `asap_levels` equal the reference's;
//! * every all-pairs edge is implied: the kept graph has a path from its
//!   source to its target whose summed `min_distance` is at least the
//!   edge's.
//!
//! Together these make every op's earliest slot, readiness and priority,
//! and so every schedule, the same under either graph.

use std::collections::HashMap;

use mcc_bench::kernels::{suite, Lang};
use mcc_core::SourceLang;
use mcc_fuzz::gen;
use mcc_machine::{MachineDesc, RegRef, Semantic};
use mcc_mir::select::SelectedOp;
use mcc_mir::{DepEdge, DepGraph, DepKind, MirFunction};
use mcc_regalloc::AllocOptions;
use rand::{rngs::StdRng, SeedableRng};

const SEED: u64 = 0xDE96A;
const GENERATED: usize = 200;
const LANGS: [SourceLang; 4] = [
    SourceLang::Simpl,
    SourceLang::Empl,
    SourceLang::Sstar,
    SourceLang::Yalll,
];

fn is_barrier(sem: Semantic) -> bool {
    matches!(sem, Semantic::Call | Semantic::Poll) || sem.is_control()
}

fn intersects(a: &[RegRef], b: &[RegRef]) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// The reference: an edge for every ordered pair the rule relates.
fn all_pairs(ops: &[SelectedOp]) -> Vec<DepEdge> {
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
                edges.push(DepEdge {
                    from: i,
                    to: j,
                    kind,
                });
            }
        }
    }
    edges
}

/// Each op's predecessors under `edges`.
fn preds(n: usize, edges: &[DepEdge]) -> Vec<Vec<(usize, usize)>> {
    let mut p = vec![Vec::new(); n];
    for e in edges {
        p[e.to].push((e.from, e.kind.min_distance()));
    }
    p
}

/// ASAP levels under `edges`.
fn asap(n: usize, edges: &[DepEdge]) -> Vec<usize> {
    let p = preds(n, edges);
    let mut level = vec![0usize; n];
    for j in 0..n {
        for &(i, d) in &p[j] {
            level[j] = level[j].max(level[i] + d);
        }
    }
    level
}

/// Longest path to a sink under `edges`.
fn critical_path(n: usize, edges: &[DepEdge]) -> Vec<usize> {
    let p = preds(n, edges);
    let mut h = vec![0usize; n];
    for j in (0..n).rev() {
        for &(i, d) in &p[j] {
            h[i] = h[i].max(h[j] + d);
        }
    }
    h
}

/// Checks one block; returns the number of kept edges.
fn check_block(ops: &[SelectedOp], what: &str) -> usize {
    let n = ops.len();
    let g = DepGraph::build(ops);
    let all = all_pairs(ops);
    let kinds: HashMap<(usize, usize), DepKind> =
        all.iter().map(|e| ((e.from, e.to), e.kind)).collect();
    for e in g.edges() {
        assert_eq!(
            kinds.get(&(e.from, e.to)),
            Some(&e.kind),
            "{what}: kept edge {e:?} is not an all-pairs edge of that kind"
        );
    }
    assert_eq!(g.asap_levels(), asap(n, &all), "{what}: asap levels");
    assert_eq!(
        g.critical_path(),
        critical_path(n, &all),
        "{what}: critical path"
    );

    // Longest kept path from each op to every later one.
    let kept = preds(n, g.edges());
    for i in 0..n {
        let mut dist: Vec<Option<usize>> = vec![None; n];
        dist[i] = Some(0);
        for k in i + 1..n {
            for &(p, d) in &kept[k] {
                if let Some(dp) = dist[p] {
                    dist[k] = Some(dist[k].map_or(dp + d, |dk| dk.max(dp + d)));
                }
            }
        }
        for e in all.iter().filter(|e| e.from == i) {
            let need = e.kind.min_distance();
            assert!(
                dist[e.to].is_some_and(|d| d >= need),
                "{what}: all-pairs edge {e:?} has no kept path of distance {need} (best {:?})",
                dist[e.to]
            );
        }
    }
    g.edges().len()
}

/// The frontend's MIR for `src`.
fn frontend(lang: SourceLang, m: &MachineDesc, src: &str) -> Result<MirFunction, String> {
    match lang {
        SourceLang::Simpl => mcc_simpl::parse(src, m).map(|p| p.func),
        SourceLang::Empl => mcc_empl::compile(src).map(|p| p.func),
        SourceLang::Sstar => mcc_sstar::parse(src, m).map(|p| p.func),
        SourceLang::Yalll => mcc_yalll::parse(src, m).map(|p| p.func),
    }
    .map_err(|d| d.render(src))
}

/// The selected blocks of `f` as compaction receives them: the passes of
/// `Compiler::compile_mir` up to selection under default options, plus a
/// poll every `poll` ops when asked.
fn selected_blocks(
    m: &MachineDesc,
    mut f: MirFunction,
    poll: Option<usize>,
) -> Result<Vec<Vec<SelectedOp>>, String> {
    let alloc = AllocOptions::default();
    f.validate().map_err(|e| format!("{e:?}"))?;
    mcc_mir::legalize(m, &mut f).map_err(|e| format!("{e:?}"))?;
    mcc_core::thread_jumps(&mut f);
    if let Some(n) = poll {
        mcc_core::insert_polls(&mut f, n);
    }
    mcc_regalloc::allocate(m, &mut f, &alloc).map_err(|e| format!("{e:?}"))?;
    mcc_mir::legalize(m, &mut f).map_err(|e| format!("{e:?}"))?;
    if f.has_virtual_regs() {
        mcc_regalloc::allocate(m, &mut f, &alloc).map_err(|e| format!("{e:?}"))?;
    }
    mcc_core::mark_dead_flags(&mut f);
    let sel = mcc_mir::select_function(m, &f).map_err(|e| format!("{e:?}"))?;
    Ok(sel.blocks.into_iter().map(|b| b.ops).collect())
}

fn kernel_lang(lang: Lang) -> SourceLang {
    match lang {
        Lang::Yalll => SourceLang::Yalll,
        Lang::Simpl => SourceLang::Simpl,
        Lang::Empl => SourceLang::Empl,
    }
}

#[test]
fn suite_blocks_keep_the_all_pairs_constraints() {
    let mut blocks = 0;
    for k in suite() {
        for m in mcc_machine::machines::all() {
            let src = (k.source)(&m);
            let f = frontend(kernel_lang(k.lang), &m, &src).unwrap();
            let sel = selected_blocks(&m, f, None).unwrap();
            for (b, ops) in sel.iter().enumerate() {
                check_block(ops, &format!("{} on {} block {b}", k.name, m.name));
                blocks += 1;
            }
        }
    }
    assert!(blocks > 100, "only {blocks} suite blocks");
}

#[test]
fn generated_blocks_keep_the_all_pairs_constraints() {
    let mut checked = 0usize;
    for (li, &lang) in LANGS.iter().enumerate() {
        for (mi, m) in mcc_machine::machines::all().iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(SEED ^ ((li as u64) << 8) ^ mi as u64);
            for p in 0..GENERATED {
                let src = gen::generate(lang, m, &mut rng);
                let what = format!("{} program {p} on {}", lang.name(), m.name);
                let f = frontend(lang, m, &src).unwrap_or_else(|e| panic!("{what}: {e}"));
                for poll in [None, Some(3)] {
                    let sel = selected_blocks(m, f.clone(), poll)
                        .unwrap_or_else(|e| panic!("{what}: {e}"));
                    for (b, ops) in sel.iter().enumerate() {
                        check_block(ops, &format!("{what}, polls {poll:?}, block {b}"));
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(
        checked > 4 * 4 * GENERATED,
        "only {checked} generated blocks"
    );
}

/// The edges stay close to linear in the block: at most four per op on
/// tablesum's largest block on BX-2, whose ALU ops all write its one
/// flags register. That is the suite's kernel (114 ops, which the
/// all-pairs rule relates 3,353 pairs of; 169 edges kept) and the same
/// program with three-digit table entries, the range the `compile_cold`
/// benchmark draws, which BX-2's narrow immediates expand to 186 ops
/// (11,597 pairs; 249 kept).
#[test]
fn tablesum_on_bx2_keeps_at_most_four_edges_per_op() {
    let m = mcc_machine::machines::bx2();
    let k = suite().into_iter().find(|k| k.name == "tablesum").unwrap();
    let suite_src = (k.source)(&m);
    let wide_src = suite_src.replace(
        "A(0) = 3; A(1) = 1; A(2) = 4; A(3) = 1; A(4) = 5; A(5) = 9; A(6) = 2; A(7) = 6;",
        "A(0) = 913; A(1) = 287; A(2) = 640; A(3) = 999; A(4) = 356; A(5) = 778; A(6) = 421; A(7) = 865;",
    );
    assert_ne!(wide_src, suite_src, "the suite's table line moved");
    for src in [suite_src, wide_src] {
        let f = frontend(SourceLang::Empl, &m, &src).unwrap();
        let sel = selected_blocks(&m, f, None).unwrap();
        let ops = sel.iter().max_by_key(|ops| ops.len()).unwrap();
        let kept = DepGraph::build(ops).edges().len();
        let all = all_pairs(ops).len();
        assert!(ops.len() > 100, "largest block has {} ops", ops.len());
        assert!(
            kept <= 4 * ops.len(),
            "{kept} edges kept for {} ops ({all} all-pairs edges)",
            ops.len()
        );
    }
}
