//! Register allocation pinned on the kernel suite and on generated
//! programs.
//!
//! Each suite kernel is taken on each reference machine through the passes
//! that precede allocation in `Compiler::compile_mir` (parse, validate,
//! legalize, validate, thread jumps), then allocated under every budget of
//! E6's sweep (none, 4, 6, 8), both strategies and both placement policies.
//! One FNV-1a digest per (kernel, machine) covers the rewritten MIR, the
//! sorted locations, the spill counts and rounds, or the error, of all
//! sixteen allocations. A change to the allocator's internals that alters
//! any allocation, spills included, fails here and names the pair.
//!
//! The same sixteen allocations run on `GENERATED` programs from
//! `mcc_fuzz::gen` per frontend per machine, at a fixed seed, with one
//! digest per (frontend, machine). The differential fuzzer cannot see an
//! allocation change, since its reference and its subjects share the
//! allocator; this pin can. A third digest table covers three EMPL
//! programs of more than 64 vregs, whose operand sets span several
//! 64-bit words: the suite's and the generated programs' fit in one. Every
//! input comes from `tests/alloc_inputs`, which
//! `tests/liveness_reference.rs` shares.
//!
//! The frontends list `live_out` in declaration order; allocation reads
//! it as a set, so the digest renders it sorted.

mod alloc_inputs;

use alloc_inputs::{generated_functions, suite_functions, wide_functions, GENERATED};
use mcc_harness::sealed::fnv1a;
use mcc_machine::MachineDesc;
use mcc_mir::MirFunction;
use mcc_regalloc::{allocate, AllocOptions, Strategy};

/// Digest of the sixteen allocations of each (kernel, machine).
const PINNED: [(&str, &str, u64); 32] = [
    ("popcount", "HM-1", 0x1722622458bf2a25),
    ("popcount", "VM-1", 0x7bbb06b9cd5bc165),
    ("popcount", "BX-2", 0x3974edfdc1e237a5),
    ("popcount", "WM-64", 0x1722622458bf2a25),
    ("gcd", "HM-1", 0x891ab60c09dfb245),
    ("gcd", "VM-1", 0x891ab60c09dfb245),
    ("gcd", "BX-2", 0x14dc395b2086caa5),
    ("gcd", "WM-64", 0x891ab60c09dfb245),
    ("memcpy16", "HM-1", 0x2ef77be9954b4685),
    ("memcpy16", "VM-1", 0xe9d962462b7ee595),
    ("memcpy16", "BX-2", 0xf1646f5c11698a85),
    ("memcpy16", "WM-64", 0xb46f0aaa33e05005),
    ("fib14", "HM-1", 0x9bc628fa71cf8f65),
    ("fib14", "VM-1", 0x9bc628fa71cf8f65),
    ("fib14", "BX-2", 0x95d4576ed54b2095),
    ("fib14", "WM-64", 0x9bc628fa71cf8f65),
    ("bitrev", "HM-1", 0xa726166ce31cebe5),
    ("bitrev", "VM-1", 0xc0f6d44a4149b505),
    ("bitrev", "BX-2", 0x649dcc9e676d84b5),
    ("bitrev", "WM-64", 0xa726166ce31cebe5),
    ("lcg20", "HM-1", 0xab0d37406f0cda45),
    ("lcg20", "VM-1", 0xab0d37406f0cda45),
    ("lcg20", "BX-2", 0xe3b97fa00f125f25),
    ("lcg20", "WM-64", 0xab0d37406f0cda45),
    ("tablesum", "HM-1", 0x4e4be65fc1431903),
    ("tablesum", "VM-1", 0x76730c63f1ff6c58),
    ("tablesum", "BX-2", 0x6018d2e477adcec4),
    ("tablesum", "WM-64", 0x55a37420a55db21e),
    ("mul16", "HM-1", 0x25cbb93749f5690e),
    ("mul16", "VM-1", 0x06c05f4639d839da),
    ("mul16", "BX-2", 0xb637b64a2d6f4e43),
    ("mul16", "WM-64", 0x17a6559fb5e60ec6),
];

/// Allocations, of all 512, that spill at least one variable.
const SPILLING: usize = 40;

/// Digest of the sixteen allocations of every generated program of each
/// (frontend, machine).
const GENERATED_PINNED: [(&str, &str, u64); 16] = [
    ("simpl", "HM-1", 0x23eca9d915f25135),
    ("simpl", "VM-1", 0x6373c6edbedf7ae8),
    ("simpl", "BX-2", 0x67bc68f87bcf4633),
    ("simpl", "WM-64", 0x0e771d88d764b82d),
    ("empl", "HM-1", 0x4c565a0dc7982419),
    ("empl", "VM-1", 0xe7ebe2b6785b83de),
    ("empl", "BX-2", 0x8c549cb055475699),
    ("empl", "WM-64", 0xd354325c315d9e59),
    ("sstar", "HM-1", 0xe2e8ee99df22e23a),
    ("sstar", "VM-1", 0x529dc55d5dc62399),
    ("sstar", "BX-2", 0xb69d72011fe02e0b),
    ("sstar", "WM-64", 0xfbcfa6671e34cfb0),
    ("yalll", "HM-1", 0x780cdadcbc452605),
    ("yalll", "VM-1", 0x42880db83048577c),
    ("yalll", "BX-2", 0x4aa5e2b85d3e6d02),
    ("yalll", "WM-64", 0xbd7728904ee7c421),
];

/// Generated-program allocations, of all 6,400, that spill.
const GENERATED_SPILLING: usize = 976;

/// Digest of the sixteen allocations of each wide program on each machine,
/// taken before liveness and interference kept sparse sets.
const WIDE_PINNED: [(&str, &str, u64); 12] = [
    ("straight line", "HM-1", 0xdefd3397765ed14d),
    ("straight line", "VM-1", 0x29373b1ad0b9348f),
    ("straight line", "BX-2", 0xfe9b30f6da9c90e1),
    ("straight line", "WM-64", 0x87489ec8dee56447),
    ("if chain", "HM-1", 0x205a63a266a8c011),
    ("if chain", "VM-1", 0x7baeb4ad9b5aae0d),
    ("if chain", "BX-2", 0x86f4764c2968db9d),
    ("if chain", "WM-64", 0xd091da7d215ab876),
    ("loop", "HM-1", 0xb48d138050777d0e),
    ("loop", "VM-1", 0xd59cdec78d2593e4),
    ("loop", "BX-2", 0x64034483f77100ce),
    ("loop", "WM-64", 0x47a80db3ecd0c1f3),
];

/// Wide-program allocations, of all 192, that spill.
const WIDE_SPILLING: usize = 52;

/// Every allocation option set the digest covers.
fn option_sets() -> Vec<AllocOptions> {
    let mut out = Vec::new();
    for budget in [None, Some(4), Some(6), Some(8)] {
        for strategy in [Strategy::Coloring, Strategy::LinearScan] {
            for spread in [true, false] {
                out.push(AllocOptions {
                    strategy,
                    budget,
                    spread,
                });
            }
        }
    }
    out
}

/// One allocation rendered in full, and whether it spilled.
fn outcome(m: &MachineDesc, f: &MirFunction, opts: &AllocOptions) -> (String, bool) {
    let mut f = f.clone();
    match allocate(m, &mut f, opts) {
        Ok(r) => {
            f.live_out.sort();
            let mut locations: Vec<_> = r
                .locations
                .iter()
                .map(|(v, l)| (v.0, format!("{l:?}")))
                .collect();
            locations.sort();
            let text = format!(
                "{f:?}\n{locations:?}\nspilled {} spill_moves {} rounds {}\n",
                r.spilled, r.spill_moves, r.rounds
            );
            (text, r.spilled > 0)
        }
        Err(e) => (format!("error {e:?}\n"), false),
    }
}

/// Appends the sixteen allocations of `f` to `text`; returns how many
/// spilled.
fn allocations(m: &MachineDesc, f: &MirFunction, text: &mut String) -> usize {
    let opts = option_sets();
    assert_eq!(opts.len(), 16);
    let mut spilling = 0;
    for o in &opts {
        let (t, spilled) = outcome(m, f, o);
        text.push_str(&t);
        spilling += usize::from(spilled);
    }
    spilling
}

/// Compares digests with their pins, printing the new table on a change.
fn assert_digests(got: &[(&str, String, u64)], pinned: &[(&str, &str, u64)]) {
    let want: Vec<_> = pinned
        .iter()
        .map(|&(k, m, d)| (k, m.to_string(), d))
        .collect();
    let rendered: String = got
        .iter()
        .map(|(k, m, d)| format!("    ({k:?}, {m:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "allocation changed; digests now:\n{rendered}");
}

#[test]
fn suite_allocations_match_their_pinned_digests() {
    let mut got = Vec::new();
    let mut spilling = 0;
    for (kernel, m, f) in suite_functions() {
        let mut text = String::new();
        spilling += allocations(&m, &f, &mut text);
        got.push((kernel, m.name.clone(), fnv1a(text.as_bytes())));
    }
    assert_digests(&got, &PINNED);
    assert_eq!(
        spilling,
        SPILLING,
        "allocations that spill, of {}",
        got.len() * 16
    );
}

#[test]
fn generated_allocations_match_their_pinned_digests() {
    let mut got = Vec::new();
    let mut spilling = 0;
    for (lang, m, fs) in generated_functions() {
        let mut text = String::new();
        for f in &fs {
            spilling += allocations(&m, f, &mut text);
        }
        got.push((lang.name(), m.name.clone(), fnv1a(text.as_bytes())));
    }
    assert_digests(&got, &GENERATED_PINNED);
    assert_eq!(
        spilling,
        GENERATED_SPILLING,
        "generated allocations that spill, of {}",
        got.len() * GENERATED * 16
    );
}

#[test]
fn wide_allocations_match_their_pinned_digests() {
    let mut got = Vec::new();
    let mut spilling = 0;
    for (name, m, f) in wide_functions() {
        assert!(
            f.vreg_count > 64,
            "{name} on {}: {} vregs",
            m.name,
            f.vreg_count
        );
        let mut text = String::new();
        spilling += allocations(&m, &f, &mut text);
        got.push((name, m.name.clone(), fnv1a(text.as_bytes())));
    }
    assert_digests(&got, &WIDE_PINNED);
    assert_eq!(
        spilling,
        WIDE_SPILLING,
        "wide allocations that spill, of {}",
        got.len() * 16
    );
}
