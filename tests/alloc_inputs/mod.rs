//! The functions the allocation tests take, as allocation receives them:
//! every suite kernel on every reference machine, and `GENERATED`
//! programs from `mcc_fuzz::gen` per frontend per machine at a fixed
//! seed.

#![allow(dead_code)]

use mcc_bench::kernels::{suite, Lang};
use mcc_core::{CompilerOptions, SourceLang};
use mcc_fuzz::gen;
use mcc_machine::MachineDesc;
use mcc_mir::MirFunction;
use rand::{rngs::StdRng, SeedableRng};

/// Seed of the generated programs.
pub const SEED: u64 = 0xA110C;
/// Generated programs per (frontend, machine).
pub const GENERATED: usize = 25;
/// The frontends, in the order the generated programs are drawn.
pub const LANGS: [SourceLang; 4] = [
    SourceLang::Simpl,
    SourceLang::Empl,
    SourceLang::Sstar,
    SourceLang::Yalll,
];

/// The MIR of `src` on `m` after the passes that precede allocation in
/// `Compiler::compile_mir`: parse, validate, legalize, validate, thread
/// jumps.
pub fn prepared(lang: SourceLang, m: &MachineDesc, src: &str, what: &str) -> MirFunction {
    let limits = &CompilerOptions::default().limits.frontend;
    let mut f = match lang {
        SourceLang::Yalll => mcc_yalll::parse_with_limits(src, m, limits).map(|p| p.func),
        SourceLang::Simpl => mcc_simpl::parse_with_limits(src, m, limits).map(|p| p.func),
        SourceLang::Empl => mcc_empl::compile_with_limits(src, limits).map(|p| p.func),
        SourceLang::Sstar => mcc_sstar::parse_with_limits(src, m, limits).map(|p| p.func),
    }
    .unwrap_or_else(|d| panic!("{what}: {d}"));
    f.validate().unwrap();
    mcc_mir::legalize(m, &mut f).unwrap();
    f.validate().unwrap();
    mcc_core::thread_jumps(&mut f);
    f
}

/// Each suite kernel on each reference machine: its name, the machine
/// and the function.
pub fn suite_functions() -> Vec<(&'static str, MachineDesc, MirFunction)> {
    let mut out = Vec::new();
    for k in suite() {
        let lang = match k.lang {
            Lang::Yalll => SourceLang::Yalll,
            Lang::Simpl => SourceLang::Simpl,
            Lang::Empl => SourceLang::Empl,
        };
        for m in mcc_machine::machines::all() {
            let what = format!("{} on {}", k.name, m.name);
            let f = prepared(lang, &m, &(k.source)(&m), &what);
            out.push((k.name, m, f));
        }
    }
    out
}

/// For each frontend and machine, in `LANGS` then machine order: the
/// frontend, the machine and its `GENERATED` programs, drawn from a
/// generator seeded by `SEED` and the pair's position.
pub fn generated_functions() -> Vec<(SourceLang, MachineDesc, Vec<MirFunction>)> {
    let mut out = Vec::new();
    for (li, &lang) in LANGS.iter().enumerate() {
        for (mi, m) in mcc_machine::machines::all().into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(SEED ^ ((li as u64) << 8) ^ mi as u64);
            let fs = (0..GENERATED)
                .map(|p| {
                    let src = gen::generate(lang, &m, &mut rng);
                    let what = format!("{} program {p} on {}", lang.name(), m.name);
                    prepared(lang, &m, &src, &what)
                })
                .collect();
            out.push((lang, m, fs));
        }
    }
    out
}

/// EMPL programs whose operands span several 64-bit words, on each
/// reference machine: a straight line of array stores, a chain of `IF`s,
/// and a loop over both with 12 variables live across it. Each program's
/// name, the machine and the function.
pub fn wide_functions() -> Vec<(&'static str, MachineDesc, MirFunction)> {
    let globals = 12;
    let declare: String = (0..globals)
        .map(|i| format!("DECLARE G{i} FIXED;\n"))
        .collect();
    let set: String = (0..globals).map(|i| format!("G{i} = {i};\n")).collect();
    let read: String = (0..globals).map(|i| format!("A(1) = G{i};\n")).collect();
    let programs = [
        (
            "straight line",
            "DECLARE A(4) FIXED;\n".to_string() + &"A(0) = 3;\n".repeat(50),
        ),
        (
            "if chain",
            "DECLARE A(4) FIXED;\nDECLARE X FIXED;\n".to_string()
                + &"IF X = 3 THEN A(1) = 2;\n".repeat(40),
        ),
        (
            "loop",
            format!(
                "DECLARE A(4) FIXED;\nDECLARE X FIXED;\n{declare}{set}X = 5;\n\
                 WHILE X <> 0 DO;\n{}{}X = X - 1;\nEND;\n{read}",
                "A(0) = 3;\n".repeat(30),
                "IF X = 3 THEN A(1) = 2;\n".repeat(5),
            ),
        ),
    ];
    let mut out = Vec::new();
    for (name, src) in programs {
        for m in mcc_machine::machines::all() {
            let what = format!("{name} on {}", m.name);
            let f = prepared(SourceLang::Empl, &m, &src, &what);
            out.push((name, m, f));
        }
    }
    out
}
