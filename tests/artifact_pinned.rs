//! Artifact serialisation pinned byte for byte.
//!
//! `serialize_artifact` writes the disk tier's records, the checksum
//! every `mcc serve` answer carries and the equality witness of the
//! cache differential tests, so its bytes are an interface: an existing
//! `.mcc-cache` stays valid only while they do not move. One FNV-1a
//! digest per (suite kernel, reference machine) covers the kernel's
//! serialisation compiled under `critpath` and under `optimal`, the
//! benchmark's two algorithms. One more covers a hand-built artifact
//! that reaches every token the writer emits: each location kind,
//! every condition code, absent and present operands, the largest
//! immediate, an op without sources, an empty block and a warning that
//! needs every escape. Every pinned artifact must also come back from
//! `deserialize_artifact` as the same bytes.

use std::collections::HashMap;

use mcc_bench::kernels::{suite, Lang};
use mcc_cache::{deserialize_artifact, serialize_artifact};
use mcc_compact::Algorithm;
use mcc_core::passes::Warning;
use mcc_core::{Artifact, CompileStats, Compiler, CompilerOptions, SourceLang};
use mcc_harness::sealed::fnv1a;
use mcc_machine::op::MicroBlock;
use mcc_machine::{BoundOp, CondKind, FileId, MicroInstr, MicroProgram, RegRef, TemplateId};
use mcc_mir::operand::VReg;
use mcc_regalloc::Location;

/// Digest of the `critpath` and `optimal` serialisations of each
/// (kernel, machine).
const PINNED: [(&str, &str, u64); 32] = [
    ("popcount", "HM-1", 0xb705f2cf1db51d4e),
    ("popcount", "VM-1", 0x8449e7a1979ee9da),
    ("popcount", "BX-2", 0xe6e9ae510762fc80),
    ("popcount", "WM-64", 0x101e371608446448),
    ("gcd", "HM-1", 0xd9c9daea41728e82),
    ("gcd", "VM-1", 0x14c55a7d6e4ba468),
    ("gcd", "BX-2", 0x4ab25b5816ecccb6),
    ("gcd", "WM-64", 0x3b3254db6ac09936),
    ("memcpy16", "HM-1", 0xcabfa32e1c82bfe4),
    ("memcpy16", "VM-1", 0xf236729461c4d528),
    ("memcpy16", "BX-2", 0x2543f13ca18b4a82),
    ("memcpy16", "WM-64", 0x4916433ed3e55a90),
    ("fib14", "HM-1", 0x43d63f8a9ed40760),
    ("fib14", "VM-1", 0x4b12575a22b76bf0),
    ("fib14", "BX-2", 0x45e33e67266d8da2),
    ("fib14", "WM-64", 0xd3fdf1ad0c74918e),
    ("bitrev", "HM-1", 0xbe39a51ba9f3b89e),
    ("bitrev", "VM-1", 0x276f5bab0635b64c),
    ("bitrev", "BX-2", 0x76e47928f5d8c33c),
    ("bitrev", "WM-64", 0xa83a5ccc23c71b3e),
    ("lcg20", "HM-1", 0xd7f9216eeda6f842),
    ("lcg20", "VM-1", 0xe8df6dfdf7e6f798),
    ("lcg20", "BX-2", 0x4864744d4052ccf2),
    ("lcg20", "WM-64", 0xfde5079123ec5774),
    ("tablesum", "HM-1", 0x6dab6a389f5d0e97),
    ("tablesum", "VM-1", 0xdd5f2fdbcd42f967),
    ("tablesum", "BX-2", 0xc0442d269e13ac70),
    ("tablesum", "WM-64", 0xcb0a312562344ccb),
    ("mul16", "HM-1", 0xd52d761b2057003a),
    ("mul16", "VM-1", 0x6426caa967b2382e),
    ("mul16", "BX-2", 0x5776bfa9f3aeeb16),
    ("mul16", "WM-64", 0x9b4f33c05a59eb26),
];

/// Digest of the hand-built artifact's serialisation.
const PINNED_HAND_BUILT: u64 = 0x793520c12e97b96a;

/// Serialises `art`, checks that the bytes survive a round trip, and
/// returns them.
fn canonical(art: &Artifact) -> String {
    let bytes = serialize_artifact(art);
    assert!(!bytes.contains('\n'), "one line: {bytes}");
    let back = deserialize_artifact(&bytes, art.machine.clone())
        .unwrap_or_else(|e| panic!("{e}: {bytes}"));
    assert_eq!(
        serialize_artifact(&back),
        bytes,
        "a round trip changed the bytes"
    );
    bytes
}

fn reg(file: u16, index: u16) -> RegRef {
    RegRef::new(FileId(file), index)
}

/// An artifact no compile produces, built to reach every token of the
/// format.
fn hand_built() -> Artifact {
    let conds = [
        CondKind::True,
        CondKind::Zero,
        CondKind::NotZero,
        CondKind::Neg,
        CondKind::NotNeg,
        CondKind::Carry,
        CondKind::NotCarry,
        CondKind::Overflow,
        CondKind::Uf,
        CondKind::NotUf,
    ];
    let bare = BoundOp {
        template: TemplateId(0),
        dst: None,
        srcs: mcc_machine::SrcList::new(),
        imm: None,
        target: None,
        cond: None,
    };
    let full = BoundOp {
        template: TemplateId(u16::MAX),
        dst: Some(reg(3, u16::MAX)),
        srcs: mcc_machine::SrcList::from([reg(0, 1), reg(2, 7), reg(0, 0)]),
        imm: Some(u64::MAX),
        target: Some(u32::MAX),
        cond: Some(CondKind::True),
    };
    let branches: Vec<BoundOp> = conds
        .into_iter()
        .enumerate()
        .map(|(i, c)| BoundOp {
            template: TemplateId(10 + i as u16),
            dst: (i % 2 == 0).then(|| reg(1, i as u16)),
            srcs: std::iter::repeat_n(reg(0, i as u16), i % 3).collect(),
            imm: (i % 3 == 1).then_some(i as u64 * 1_000_003),
            target: Some(i as u32),
            cond: Some(c),
        })
        .collect();
    let program = MicroProgram {
        blocks: vec![
            MicroBlock {
                instrs: vec![
                    MicroInstr {
                        ops: vec![bare, full],
                    },
                    MicroInstr { ops: Vec::new() },
                ],
            },
            MicroBlock { instrs: Vec::new() },
            MicroBlock {
                instrs: branches
                    .into_iter()
                    .map(|op| MicroInstr { ops: vec![op] })
                    .collect(),
            },
        ],
    };
    let locations = HashMap::from([
        (VReg(0), Location::Reg(reg(0, 3))),
        (VReg(9), Location::Scratch(reg(4, 12))),
        (VReg(17), Location::Mem(0x1f0)),
        (VReg(u32::MAX), Location::Mem(u64::MAX)),
    ]);
    let symbols = HashMap::from([
        ("acc".to_string(), Location::Reg(reg(0, 3))),
        ("spill \"x\"".to_string(), Location::Scratch(reg(4, 12))),
        ("Z".to_string(), Location::Mem(0x1f0)),
    ]);
    let memory_symbols = HashMap::from([
        ("TBL".to_string(), (0x200, 64)),
        ("BIG".to_string(), (u64::MAX, 0)),
    ]);
    Artifact {
        machine: mcc_machine::machines::hm1().into(),
        program,
        locations,
        symbols,
        memory_symbols,
        warnings: vec![
            Warning {
                message: "quote \" backslash \\ newline \n tab \t ctl \u{1} cr \r é".to_string(),
            },
            Warning {
                message: String::new(),
            },
        ],
        stats: CompileStats {
            mir_ops: 1_234_567,
            micro_instrs: 12,
            micro_ops: 0,
            spills: 9,
            spill_moves: 10,
            polls: 99,
            dead_flags: 100,
            algorithm_used: "critpath".to_string(),
            degradations: vec![
                "block 3: 43 ops over the exact-search cap; degrading to list scheduling"
                    .to_string(),
                "budget \"exhausted\"".to_string(),
            ],
            ..CompileStats::default()
        },
    }
}

#[test]
fn suite_serialisations_match_their_pinned_digests() {
    let mut got = Vec::new();
    for k in suite() {
        let lang = match k.lang {
            Lang::Yalll => SourceLang::Yalll,
            Lang::Simpl => SourceLang::Simpl,
            Lang::Empl => SourceLang::Empl,
        };
        for m in mcc_machine::machines::all() {
            let src = (k.source)(&m);
            let mut text = String::new();
            for algorithm in [Algorithm::CriticalPath, Algorithm::BranchBound] {
                let options = CompilerOptions {
                    algorithm,
                    ..CompilerOptions::default()
                };
                let art = Compiler::with_options(m.clone(), options)
                    .compile_contained(lang, &src)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, m.name));
                text.push_str(&canonical(&art));
                text.push('\n');
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
    assert_eq!(
        got, want,
        "an artifact's bytes changed; digests now:\n{rendered}"
    );
}

#[test]
fn a_hand_built_artifact_reaching_every_token_matches_its_pinned_digest() {
    let bytes = canonical(&hand_built());
    let digest = fnv1a(bytes.as_bytes());
    assert_eq!(
        digest, PINNED_HAND_BUILT,
        "the hand-built artifact's bytes changed; digest now {digest:#018x}:\n{bytes}"
    );
}
