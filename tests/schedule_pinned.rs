//! Compaction pinned on the kernel suite.
//!
//! Each suite kernel is compiled on each reference machine under every
//! compaction algorithm (the five of `Algorithm::ALL` and `Sequential`)
//! and both conflict models. One FNV-1a digest per (kernel, machine)
//! covers, for all twelve compiles, the encoded control-store words, the
//! algorithm that produced the code and every degradation event. The same
//! digest then covers what E2 measures on that kernel: each selected block
//! of at least three ops, compacted under E2's five (algorithm, model)
//! rows, contributes its length. A change to the schedulers, the
//! degradation chain or emission that alters any schedule fails here and
//! names the pair.

use mcc_bench::kernels::{suite, Kernel, Lang};
use mcc_compact::{compact_degrading, Algorithm, BB_DEFAULT_BUDGET};
use mcc_core::{Compiler, CompilerOptions, SourceLang};
use mcc_harness::sealed::fnv1a;
use mcc_machine::{ConflictModel, MachineDesc};
use mcc_mir::select::SelectedOp;

/// Digest of the twelve compiles and the E2 block lengths of each
/// (kernel, machine).
const PINNED: [(&str, &str, u64); 32] = [
    ("popcount", "HM-1", 0x1cba38822bb7dc2b),
    ("popcount", "VM-1", 0x49bc188f00a310c0),
    ("popcount", "BX-2", 0x95fc09de78b8f470),
    ("popcount", "WM-64", 0xe87aa89689c27a9d),
    ("gcd", "HM-1", 0xff90f7ec532ddb2c),
    ("gcd", "VM-1", 0x29076a60bfcc2884),
    ("gcd", "BX-2", 0xfcf7656b72ddf87c),
    ("gcd", "WM-64", 0x7459d3d9d8e31604),
    ("memcpy16", "HM-1", 0x4f33ca47d21f2d09),
    ("memcpy16", "VM-1", 0x5cd3a7fcc88246b5),
    ("memcpy16", "BX-2", 0x220751906359bb84),
    ("memcpy16", "WM-64", 0x20ab77ae51ffcebd),
    ("fib14", "HM-1", 0x4664afa5168b02c0),
    ("fib14", "VM-1", 0xa3beba60f4adbff1),
    ("fib14", "BX-2", 0x24eb43afbbd50fd9),
    ("fib14", "WM-64", 0x4f4bbe3abbfe4473),
    ("bitrev", "HM-1", 0x2530bba6bb546b7c),
    ("bitrev", "VM-1", 0xc6e40c50878c0b10),
    ("bitrev", "BX-2", 0xe2a85c61e362cabc),
    ("bitrev", "WM-64", 0x7291e65a3a62fc84),
    ("lcg20", "HM-1", 0xb58560206ad13ab9),
    ("lcg20", "VM-1", 0x5938e9e1b6c10708),
    ("lcg20", "BX-2", 0xadc89aa3c9c218bc),
    ("lcg20", "WM-64", 0xc8629223ef3bac68),
    ("tablesum", "HM-1", 0x848908f52d5e76c0),
    ("tablesum", "VM-1", 0x00f2bc1e5ac09ba1),
    ("tablesum", "BX-2", 0xabc76d820ca1b66b),
    ("tablesum", "WM-64", 0x7f32e1a32503305d),
    ("mul16", "HM-1", 0x8c25bd71e868065c),
    ("mul16", "VM-1", 0x3fbd8edfb5b6cbac),
    ("mul16", "BX-2", 0xe853860ac77ebe64),
    ("mul16", "WM-64", 0xa40b0c5d6b3fe17c),
];

/// E2's rows: each algorithm under the conflict model its table uses.
const E2_ROWS: [(Algorithm, ConflictModel); 5] = [
    (Algorithm::Linear, ConflictModel::Coarse),
    (Algorithm::CriticalPath, ConflictModel::Coarse),
    (Algorithm::LevelPack, ConflictModel::Coarse),
    (Algorithm::Tokoro, ConflictModel::Fine),
    (Algorithm::BranchBound, ConflictModel::Fine),
];

/// Every compile of `k` on `m`, rendered: words, algorithm used, events.
fn compiles(k: &Kernel, m: &MachineDesc) -> String {
    let src = (k.source)(m);
    let lang = match k.lang {
        Lang::Yalll => SourceLang::Yalll,
        Lang::Simpl => SourceLang::Simpl,
        Lang::Empl => SourceLang::Empl,
    };
    let mut text = String::new();
    let algos = Algorithm::ALL.into_iter().chain([Algorithm::Sequential]);
    for algo in algos {
        for model in [ConflictModel::Coarse, ConflictModel::Fine] {
            let c = Compiler::with_options(
                m.clone(),
                CompilerOptions {
                    algorithm: algo,
                    model,
                    ..CompilerOptions::default()
                },
            );
            text.push_str(&format!("{} {model:?}: ", algo.name()));
            match c.compile_source(lang, &src) {
                Ok(art) => text.push_str(&format!(
                    "{} {:?}\n{:x?}\n",
                    art.stats.algorithm_used,
                    art.stats.degradations,
                    art.encode()
                )),
                Err(e) => text.push_str(&format!("error {e}\n")),
            }
        }
    }
    text
}

/// The selected blocks of `k` on `m` that E2 compacts: legalized,
/// allocated, dead flags marked, at least three ops long.
fn e2_blocks(k: &Kernel, m: &MachineDesc) -> Vec<Vec<SelectedOp>> {
    let src = (k.source)(m);
    let mut f = match k.lang {
        Lang::Yalll => mcc_yalll::parse(&src, m).unwrap().func,
        Lang::Simpl => mcc_simpl::parse(&src, m).unwrap().func,
        Lang::Empl => mcc_empl::compile(&src).unwrap().func,
    };
    mcc_mir::legalize(m, &mut f).unwrap();
    mcc_regalloc::allocate(m, &mut f, &Default::default()).unwrap();
    mcc_core::mark_dead_flags(&mut f);
    let sel = mcc_mir::select_function(m, &f).unwrap();
    sel.blocks
        .into_iter()
        .map(|b| b.ops)
        .filter(|ops| ops.len() >= 3)
        .collect()
}

/// Each E2 block's length under each E2 row, one line per block.
fn e2_lengths(k: &Kernel, m: &MachineDesc) -> String {
    let mut text = String::new();
    for ops in e2_blocks(k, m) {
        let lens: Vec<usize> = E2_ROWS
            .iter()
            .map(|&(algo, model)| {
                compact_degrading(m, &ops, algo, model, BB_DEFAULT_BUDGET)
                    .compaction
                    .len()
            })
            .collect();
        text.push_str(&format!("e2 {} ops: {lens:?}\n", ops.len()));
    }
    text
}

#[test]
fn suite_schedules_match_their_pinned_digests() {
    let mut got = Vec::new();
    for k in suite() {
        for m in mcc_machine::machines::all() {
            let text = compiles(&k, &m) + &e2_lengths(&k, &m);
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
    assert_eq!(got, want, "a schedule changed; digests now:\n{rendered}");
}
