//! Register allocation's heap footprint on the largest programs the
//! frontend admits.
//!
//! Liveness and interference keep sparse sets, which take space for their
//! members rather than for every operand of the function, so allocating a
//! function of short-lived temporaries takes memory in proportion to its
//! size, not to the square of its vreg count. The inputs are EMPL programs
//! of one repeated statement, about as many as the default 500,000-token
//! budget admits: a straight line of array stores (two fresh vregs each,
//! one block) and a chain of `IF`s (a block or two each). A counting
//! global allocator records the peak heap while `allocate` runs, and
//! refuses any allocation that would take the live heap past `CEILING`,
//! so a footprint that grows with the square of the function aborts this
//! test instead of exhausting the host. This file holds one test, so that
//! no other test's allocations are counted.

mod alloc_inputs;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use alloc_inputs::prepared;
use mcc_core::SourceLang;
use mcc_machine::machines::hm1;
use mcc_regalloc::{allocate, AllocOptions};

/// The most live heap the test process may hold.
const CEILING: usize = 1 << 30;

/// The most heap `allocate` may hold per vreg of its function. Both
/// inputs take under 300; bit rows over every vreg would take 14,000.
const PER_VREG: usize = 512;

/// Heap bytes live now, and the most live since the last reset.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters only observe sizes, and a refused allocation returns null,
// which `GlobalAlloc` allows.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        if live > CEILING {
            LIVE.fetch_sub(layout.size(), Relaxed);
            return std::ptr::null_mut();
        }
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: the caller's contract for `alloc` holds for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static HEAP: Counting = Counting;

/// Allocates `src` on HM-1; returns the function's vreg count, its block
/// count and the most heap `allocate` held beyond what was live before.
fn footprint(src: &str, what: &str) -> (usize, usize, usize) {
    let m = hm1();
    let mut f = prepared(SourceLang::Empl, &m, src, what);
    let shape = (f.vreg_count as usize, f.blocks.len());
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    allocate(&m, &mut f, &AllocOptions::default()).unwrap_or_else(|e| panic!("{what}: {e}"));
    let peak = PEAK.load(Relaxed) - before;
    eprintln!("{what}: {shape:?} (vregs, blocks), {peak} bytes");
    (shape.0, shape.1, peak)
}

#[test]
fn allocation_heap_grows_with_the_function_not_its_square() {
    // Nine tokens a statement: 55,500 of them take 499,500 tokens.
    let line = "DECLARE A(4) FIXED;\n".to_string() + &"A(0) = 3;\n".repeat(55_500);
    let (vregs, blocks, peak) = footprint(&line, "straight line");
    assert!(
        vregs >= 110_000 && blocks <= 2,
        "{vregs} vregs, {blocks} blocks"
    );
    assert!(
        peak < PER_VREG * vregs,
        "straight line: {peak} bytes for {vregs} vregs"
    );

    // Fourteen tokens a statement.
    let chain = "DECLARE A(4) FIXED;\nDECLARE X FIXED;\n".to_string()
        + &"IF X = 3 THEN A(1) = 2;\n".repeat(35_700);
    let (vregs, blocks, peak) = footprint(&chain, "if chain");
    assert!(
        vregs >= 35_000 && blocks >= 35_000,
        "{vregs} vregs, {blocks} blocks"
    );
    assert!(
        peak < PER_VREG * vregs,
        "if chain: {peak} bytes for {vregs} vregs in {blocks} blocks"
    );
}
