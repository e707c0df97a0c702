//! Every frontend outcome pinned on a seeded corpus.
//!
//! For each language and reference machine, a seeded `StdRng` builds a
//! corpus: the language's canonical examples, 200 generated programs and
//! one mutated (usually malformed) variant of each generated program. A
//! few hand-written inputs per language add what the generators never
//! emit: comments, an unterminated comment, identifier case, stray
//! characters and bad numbers.
//! Every input is parsed twice, under `FrontendLimits::default()` and
//! under a tight token budget and nesting depth, so the budget and depth
//! diagnostics are pinned too. One FNV-1a digest per (language, machine)
//! covers every outcome: a rejection's message and span, or an
//! acceptance's lowered `MirFunction` plus the program's symbol maps in
//! name order. YALLL, whose line reader shares no lexer with the other
//! three, is the control. A change to any lexer or parser that alters a
//! diagnostic, a span or a lowered program fails here and names the pair.

use std::collections::BTreeMap;
use std::fmt::Debug;

use mcc::core::SourceLang;
use mcc::fuzz::{gen, mutate};
use mcc::harness::sealed::fnv1a;
use mcc::lang::{Diagnostic, FrontendLimits};
use mcc::machine::MachineDesc;
use rand::{rngs::StdRng, SeedableRng};

/// Digest of every outcome of each (language, machine).
const PINNED: [(&str, &str, u64); 16] = [
    ("simpl", "HM-1", 0xbfeb991b6a0f7a4a),
    ("simpl", "VM-1", 0x07f8b22f17ce1f75),
    ("simpl", "BX-2", 0x70bc262c0f3e9385),
    ("simpl", "WM-64", 0x7772d6b1d814fdf7),
    ("empl", "HM-1", 0xd4f3455707a8e23f),
    ("empl", "VM-1", 0x71517f81b421e017),
    ("empl", "BX-2", 0x960e49ff0ab995e8),
    ("empl", "WM-64", 0x0ea9ebb610fd9705),
    ("sstar", "HM-1", 0x969d0a8646e1a046),
    ("sstar", "VM-1", 0xd13ecc54b74bc7de),
    ("sstar", "BX-2", 0xa42031bc7976763f),
    ("sstar", "WM-64", 0x548a598d263aa701),
    ("yalll", "HM-1", 0x08ab6126f20f1095),
    ("yalll", "VM-1", 0x8d1e4030a71a85e3),
    ("yalll", "BX-2", 0x31cea3e7c156d62f),
    ("yalll", "WM-64", 0x5b871a996ec0bad1),
];

const SEED: u64 = 0xF0_2E_7D;
const GENERATED: usize = 200;

/// Limits tight enough that most generated programs exhaust the token
/// budget and nested ones the depth guard.
const TIGHT: FrontendLimits = FrontendLimits {
    max_source_bytes: 1 << 20,
    max_tokens: 48,
    max_depth: 2,
};

/// Lexer corners the generators never reach.
fn edges(lang: SourceLang) -> &'static [&'static str] {
    match lang {
        SourceLang::Simpl => &[
            "PROGRAM T; BEGIN r1 + r2 -> r3; END",
            "program t(a, b); begin R1 -> R2 end",
            "program t; begin R1 # R2 -> R3; end",
            "program t; begin R1 -> R2; end \u{20ac}",
            "program t; begin 0x1G -> R1; end",
            "program t; begin if R1 >= R2 then R1 -> R3 else R2 -> R3; end",
            "program t; begin case R1 of 0: R2 -> R3; 1: R4 -> R3; else R5 -> R3; end; end",
            "program t; begin for R1 := 1 to 3 do ~R1 -> R2; end",
            "program t; begin R1 <> 2 -> R3; end",
        ],
        SourceLang::Sstar => &[
            "# header\nprogram t; # trailing\nvar x: seq [15..0] bit with R1;\nbegin x := 5; # set\nend",
            "PROGRAM T; VAR X: SEQ [15..0] BIT; BEGIN X := 3; ASSERT(X = 3); END",
            "program t; var x: seq [15..0] bit; begin x := 3; assert((x) = 3); end",
            "program t; var x: seq [15..0] bit; begin x := 3; assert(x = 3; end",
            "program t; var x: seq [15..0] bit; begin x := x @ 3; end",
            "program t; begin \u{e9} := \u{20ac}; end",
            "program t; var x: seq [15..0] bit; begin x := 0b102; end",
        ],
        SourceLang::Empl => &[
            "/* c */ DECLARE X FIXED; /* set */ X = 5;",
            "declare x fixed; x = 5; /* open",
            "DECLARE X FIXED; X = 5 @;",
            "DECLARE X FIXED; IF X <= 3 THEN X = X + 1; ELSE X = 0;",
            "DECLARE X FIXED; X = 5; /**/ /* a */ /* b */",
            "DECLARE X FIXED; X = 0x1G;",
        ],
        SourceLang::Yalll => &[],
    }
}

/// The corpus of one (language, machine).
fn corpus(lang: SourceLang, li: usize, m: &MachineDesc, mi: usize) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(SEED ^ ((li as u64) << 8) ^ mi as u64);
    let mut out: Vec<String> = gen::examples(lang)
        .iter()
        .chain(edges(lang))
        .map(|s| s.to_string())
        .collect();
    for _ in 0..GENERATED {
        let src = gen::generate(lang, m, &mut rng);
        let bad = mutate::mutate(&src, &mut rng);
        out.push(src);
        out.push(bad);
    }
    out
}

/// A symbol map in name order.
fn sorted<V: Debug>(map: &std::collections::HashMap<String, V>) -> String {
    format!("{:?}", map.iter().collect::<BTreeMap<_, _>>())
}

/// One input's outcome under `limits`, rendered.
fn outcome(lang: SourceLang, m: &MachineDesc, src: &str, limits: &FrontendLimits) -> String {
    let r: Result<String, Diagnostic> = match lang {
        SourceLang::Simpl => mcc::simpl::parse_with_limits(src, m, limits)
            .map(|p| format!("{} {:?}", p.name, p.func)),
        SourceLang::Sstar => mcc::sstar::parse_with_limits(src, m, limits).map(|p| {
            format!(
                "{} {:?} vars {} cogroups {:?} asserts {:?} flag {:?}",
                p.name,
                p.func,
                sorted(&p.vars),
                p.cogroups,
                p.asserts,
                p.assert_flag
            )
        }),
        SourceLang::Empl => mcc::empl::compile_with_limits(src, limits).map(|p| {
            format!(
                "{:?} globals {} arrays {} error {:?} hints {:?}",
                p.func,
                sorted(&p.globals),
                sorted(&p.arrays),
                p.error_flag,
                p.hints
            )
        }),
        SourceLang::Yalll => mcc::yalll::parse_with_limits(src, m, limits)
            .map(|p| format!("{:?} bindings {}", p.func, sorted(&p.bindings))),
    };
    match r {
        Ok(text) => format!("ok {text}\n"),
        Err(d) => format!("err {:?} {}..{}\n", d.message, d.span.start, d.span.end),
    }
}

#[test]
fn frontend_outcomes_match_their_pinned_digests() {
    let mut got = Vec::new();
    for (li, lang) in SourceLang::ALL.into_iter().enumerate() {
        for (mi, m) in mcc::machine::machines::all().into_iter().enumerate() {
            let mut text = String::new();
            for src in corpus(lang, li, &m, mi) {
                for limits in [FrontendLimits::default(), TIGHT] {
                    text.push_str(&outcome(lang, &m, &src, &limits));
                }
            }
            got.push((lang.name(), m.name.clone(), fnv1a(text.as_bytes())));
        }
    }
    let want: Vec<_> = PINNED
        .iter()
        .map(|&(l, m, d)| (l, m.to_string(), d))
        .collect();
    let rendered: String = got
        .iter()
        .map(|(l, m, d)| format!("    ({l:?}, {m:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, want, "a frontend outcome changed; digests now:\n{rendered}");
}
