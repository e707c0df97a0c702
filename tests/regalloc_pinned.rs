//! Register allocation pinned on the kernel suite.
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
//! The frontends list `live_out` in declaration order; allocation reads
//! it as a set, so the digest renders it sorted.

use mcc_bench::kernels::{suite, Kernel, Lang};
use mcc_core::CompilerOptions;
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

/// The kernel's MIR on `m` as allocation receives it.
fn prepared(k: &Kernel, m: &MachineDesc) -> MirFunction {
    let limits = &CompilerOptions::default().limits.frontend;
    let src = (k.source)(m);
    let mut f = match k.lang {
        Lang::Yalll => mcc_yalll::parse_with_limits(&src, m, limits)
            .map(|p| p.func)
            .map_err(|d| d.to_string()),
        Lang::Simpl => mcc_simpl::parse_with_limits(&src, m, limits)
            .map(|p| p.func)
            .map_err(|d| d.to_string()),
        Lang::Empl => mcc_empl::compile_with_limits(&src, limits)
            .map(|p| p.func)
            .map_err(|d| d.to_string()),
    }
    .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, m.name));
    f.validate().unwrap();
    mcc_mir::legalize(m, &mut f).unwrap();
    f.validate().unwrap();
    mcc_core::thread_jumps(&mut f);
    f
}

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

#[test]
fn suite_allocations_match_their_pinned_digests() {
    let opts = option_sets();
    assert_eq!(opts.len(), 16);
    let mut got = Vec::new();
    let mut spilling = 0;
    for k in suite() {
        for m in mcc_machine::machines::all() {
            let f = prepared(&k, &m);
            let mut text = String::new();
            for o in &opts {
                let (t, spilled) = outcome(&m, &f, o);
                text.push_str(&t);
                spilling += usize::from(spilled);
            }
            got.push((k.name, m.name.clone(), fnv1a(text.as_bytes())));
        }
    }
    let want: Vec<_> = PINNED
        .iter()
        .map(|&(k, m, d)| (k, m.to_string(), d))
        .collect();
    let rendered: String = got
        .iter()
        .map(|(k, m, d)| format!("    ({k:?}, {m:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "allocation changed; digests now:\n{rendered}");
    assert_eq!(
        spilling,
        SPILLING,
        "allocations that spill, of {}",
        got.len() * opts.len()
    );
}
