//! Micro-operations allocate nothing for their sources.
//!
//! `BoundOp` and `MirOp` keep their register sources inline, so they are
//! `Copy`, and the steps that copy ops in bulk allocate per list, never per
//! op. A counting global allocator counts the allocations this thread makes
//! while three such steps run on every suite compile (8 kernels × 4
//! reference machines × `critpath`/`optimal`, 64 compiles):
//!
//! - `select_function` on the function the compiler hands to selection:
//!   at most [`SELECT_PER_OP`] per op (the candidate list and the read and
//!   write unions), [`SELECT_PER_BLOCK`] per block (the op list, the label
//!   and a dispatch table) and [`SELECT_FIXED`] more (the block list and the
//!   name);
//! - `Artifact::clone`, the memory tier's insert and hit: nothing per op,
//!   one per microinstruction (its op list) and one per block (its word
//!   list), plus the block list and whatever the same artifact without a
//!   program takes;
//! - `Simulator::new`: nothing per op and one per microinstruction (the
//!   flattened copy of its op list), plus the store, the block addresses
//!   and the write buffer, beyond what loading an empty program takes.
//!
//! An op whose sources live in a `Vec` allocates once more in each step
//! for every op that has a source, which none of these bounds leaves room
//! for. This file holds one test, so that no other test's allocations are
//! counted.

mod alloc_inputs;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alloc_inputs::prepared;
use mcc_bench::kernels::{suite, Lang};
use mcc_compact::Algorithm;
use mcc_core::{Compiler, CompilerOptions, SourceLang};
use mcc_machine::{BoundOp, MachineDesc, MicroProgram};
use mcc_mir::{MirFunction, MirOp};
use mcc_regalloc::{allocate, AllocOptions};
use mcc_sim::Simulator;

/// Both op types are `Copy`: placing, caching and loading an op is a copy.
const _: () = {
    const fn copy<T: Copy>() {}
    copy::<BoundOp>();
    copy::<MirOp>();
};

/// Selection's allocations per op: the candidate list and the read and
/// write unions.
const SELECT_PER_OP: usize = 3;
/// Selection's allocations per block: the op list, the label and a
/// dispatch table.
const SELECT_PER_BLOCK: usize = 3;
/// Selection's allocations per function: the block list and the name.
const SELECT_FIXED: usize = 2;

thread_local! {
    /// Allocations this thread has made.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout; the
// counter only observes that a call was made. `realloc` and
// `alloc_zeroed` keep their default bodies, which call `alloc`, so they
// are counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract for `alloc` holds for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) };
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (r, ALLOCS.with(Cell::get) - before)
}

/// The function `Compiler::compile_mir` hands to selection when no polls
/// are inserted: allocated, legalised again (and allocated again if that
/// made vregs), with dead flags marked.
fn selection_input(lang: SourceLang, m: &MachineDesc, src: &str, what: &str) -> MirFunction {
    let mut f = prepared(lang, m, src, what);
    let options = AllocOptions::default();
    allocate(m, &mut f, &options).unwrap_or_else(|e| panic!("{what}: {e}"));
    mcc_mir::legalize(m, &mut f).unwrap();
    if f.has_virtual_regs() {
        allocate(m, &mut f, &options).unwrap_or_else(|e| panic!("{what}: {e}"));
    }
    mcc_core::mark_dead_flags(&mut f);
    f
}

#[test]
fn ops_allocate_nothing_per_source_register() {
    // Totals over every compile: (allocations, ops) for selection, and
    // (allocations, words, ops) for the clone and the load.
    let (mut select, mut clone, mut load) = ((0, 0), (0, 0, 0), (0, 0, 0));
    for k in suite() {
        let lang = match k.lang {
            Lang::Yalll => SourceLang::Yalll,
            Lang::Simpl => SourceLang::Simpl,
            Lang::Empl => SourceLang::Empl,
        };
        for m in mcc_machine::machines::all() {
            let what = format!("{} on {}", k.name, m.name);
            let src = (k.source)(&m);

            let f = selection_input(lang, &m, &src, &what);
            let (ops, blocks) = (f.op_count(), f.blocks.len());
            let (selected, n) = counted(|| mcc_mir::select_function(&m, &f));
            selected.unwrap_or_else(|e| panic!("{what}: {e}"));
            let bound = SELECT_PER_OP * ops + SELECT_PER_BLOCK * blocks + SELECT_FIXED;
            assert!(
                n <= bound,
                "{what}: selection made {n} allocations for {ops} ops in {blocks} blocks (bound {bound})"
            );
            select = (select.0 + n, select.1 + ops);

            for algorithm in [Algorithm::CriticalPath, Algorithm::BranchBound] {
                let what = format!("{what} under {}", algorithm.name());
                let options = CompilerOptions {
                    algorithm,
                    ..CompilerOptions::default()
                };
                let art = Compiler::with_options(m.clone(), options)
                    .compile_contained(lang, &src)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                let p = &art.program;
                let (words, ops, blocks) = (p.instr_count(), p.op_count(), p.blocks.len());

                let mut bare = art.clone();
                bare.program = MicroProgram::new();
                let (_, rest) = counted(|| bare.clone());
                let (_, n) = counted(|| art.clone());
                let bound = rest + 1 + blocks + words;
                assert!(
                    n <= bound,
                    "{what}: a clone made {n} allocations for {ops} ops in {words} words and {blocks} blocks (bound {bound})"
                );
                clone = (clone.0 + n, clone.1 + words, clone.2 + ops);

                let empty = MicroProgram::new();
                let (_, base) = counted(|| Simulator::new(art.machine.clone(), &empty));
                let (_, n) = counted(|| Simulator::new(art.machine.clone(), p));
                let bound = base + 3 + words;
                assert!(
                    n <= bound,
                    "{what}: a load made {n} allocations for {ops} ops in {words} words (bound {bound})"
                );
                load = (load.0 + n, load.1 + words, load.2 + ops);
            }
        }
    }
    eprintln!(
        "selection: {} allocations for {} ops; clones: {} for {} words, {} ops; loads: {} for {} words, {} ops",
        select.0, select.1, clone.0, clone.1, clone.2, load.0, load.1, load.2
    );
}
