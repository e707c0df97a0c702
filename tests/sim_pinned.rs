//! The simulator pinned on the kernel suite and on E9's campaign.
//!
//! Each suite kernel is compiled on each reference machine under critical
//! path and optimal compaction, set up as its experiments set it up, and
//! run to halt. One FNV-1a digest per (kernel, machine) covers, for both
//! runs, the run's `Result<SimStats, SimError>`, every final register of
//! every file, the flags and every nonzero memory word. E9's HM-1 campaign
//! adds one digest per kernel: under E9's compiler, watchdog, memory
//! window and seed, each of 200 trials with the protected store and 200
//! with the raw store contributes its fault, its outcome and the run's
//! result. A change to the simulator that alters any architectural effect,
//! statistic, error or fault outcome fails here and names the pair.

use mcc_bench::experiments::{e9_compiler, E9_WATCHDOG};
use mcc_bench::kernels::{suite, Kernel, Lang};
use mcc_compact::Algorithm;
use mcc_core::{Artifact, Compiler, CompilerOptions, SourceLang};
use mcc_faults::{run_campaign, CampaignSpec, FaultMix, FaultSpace};
use mcc_harness::sealed::fnv1a;
use mcc_machine::{FileId, MachineDesc, RegRef};
use mcc_sim::{SimOptions, Simulator, MEM_WORDS};

/// Digest of both runs' results and final states of each (kernel, machine).
const PINNED: [(&str, &str, u64); 32] = [
    ("popcount", "HM-1", 0x8a077af37354dc56),
    ("popcount", "VM-1", 0xb2fa1ed5169f0110),
    ("popcount", "BX-2", 0x886af0f0003106e4),
    ("popcount", "WM-64", 0x124b45709dab6578),
    ("gcd", "HM-1", 0xdbbc8905b36e27b8),
    ("gcd", "VM-1", 0xdadc90116fb68c72),
    ("gcd", "BX-2", 0x6f3c0fb11fa620ec),
    ("gcd", "WM-64", 0x38ae2c177f204d9c),
    ("memcpy16", "HM-1", 0xd6909eb17b30553c),
    ("memcpy16", "VM-1", 0x79e66070f6e034da),
    ("memcpy16", "BX-2", 0x639477536ddf9824),
    ("memcpy16", "WM-64", 0x39463009867faf24),
    ("fib14", "HM-1", 0x7babe03f4d9970b0),
    ("fib14", "VM-1", 0xb5c98ed3ffa6a160),
    ("fib14", "BX-2", 0xfd713177ef3a4d8c),
    ("fib14", "WM-64", 0x23cf4b0ed67d822c),
    ("bitrev", "HM-1", 0xf515909c03c5000c),
    ("bitrev", "VM-1", 0x7e7d6b21fc1ad982),
    ("bitrev", "BX-2", 0x2000361b46ee7644),
    ("bitrev", "WM-64", 0x15889afe813799cc),
    ("lcg20", "HM-1", 0x581458f435318c1c),
    ("lcg20", "VM-1", 0xb262c771ff1831ac),
    ("lcg20", "BX-2", 0x10773f70190ace4c),
    ("lcg20", "WM-64", 0xd5bd286032e4d35c),
    ("tablesum", "HM-1", 0x3c7e5dbd05ce6ec4),
    ("tablesum", "VM-1", 0xc0c73de9bb41b4c0),
    ("tablesum", "BX-2", 0xed707030c86126dc),
    ("tablesum", "WM-64", 0x5a2ccaaa7d3e5d0a),
    ("mul16", "HM-1", 0xf31add7d75923752),
    ("mul16", "VM-1", 0x8ef3d11347db74ca),
    ("mul16", "BX-2", 0x92d455fcc7551278),
    ("mul16", "WM-64", 0x9a2326385077ef2c),
];

/// Digest of each kernel's E9 trials, protected then raw store.
const PINNED_E9: [(&str, u64); 8] = [
    ("popcount", 0x42d5747673917e0b),
    ("gcd", 0xec474ca61c26a83e),
    ("memcpy16", 0x3d3c0228c2dc1c4f),
    ("fib14", 0x615b6021bb2d7117),
    ("bitrev", 0x7e44320dd5dab3fc),
    ("lcg20", 0xe5f4e4eb3bd3f4cf),
    ("tablesum", 0xb8d24bf30080f031),
    ("mul16", 0x6e1a892aea10c8c8),
];

/// Trials per store mode in the pinned E9 campaign.
const E9_TRIALS: usize = 200;

fn compile(k: &Kernel, c: &Compiler) -> Artifact {
    let lang = match k.lang {
        Lang::Yalll => SourceLang::Yalll,
        Lang::Simpl => SourceLang::Simpl,
        Lang::Empl => SourceLang::Empl,
    };
    c.compile_source(lang, &(k.source)(c.machine()))
        .unwrap_or_else(|e| panic!("{} on {}: {e}", k.name, c.machine().name))
}

/// Every register of every file, the flags and every nonzero memory word.
fn final_state(m: &MachineDesc, s: &Simulator) -> String {
    let regs: Vec<Vec<u64>> = (0..m.files.len())
        .map(|fi| {
            (0..m.files[fi].count)
                .map(|i| s.reg(RegRef::new(FileId(fi as u16), i)))
                .collect()
        })
        .collect();
    let mem: Vec<(u64, u64)> = (0..MEM_WORDS)
        .map(|a| (a, s.mem(a)))
        .filter(|&(_, v)| v != 0)
        .collect();
    format!("regs {regs:?}\nflags {:?}\nmem {mem:x?}\n", s.flags())
}

/// Both algorithms' runs of `k` on `m`, rendered.
fn runs(k: &Kernel, m: &MachineDesc) -> String {
    let mut text = String::new();
    for algo in [Algorithm::CriticalPath, Algorithm::BranchBound] {
        let c = Compiler::with_options(
            m.clone(),
            CompilerOptions {
                algorithm: algo,
                ..CompilerOptions::default()
            },
        );
        let art = compile(k, &c);
        let mut sim = art.simulator();
        (k.setup)(&mut sim);
        let res = sim.run(&SimOptions::default());
        text.push_str(&format!("{}: {res:?}\n", algo.name()));
        text.push_str(&final_state(m, &sim));
    }
    text
}

/// E9's campaign for kernel number `i`, as `e9_campaign` runs it, with
/// every trial's fault, outcome and result rendered.
fn e9_trials(i: usize, k: &Kernel) -> String {
    let c = e9_compiler();
    let art = compile(k, &c);
    let mut sim = art.simulator();
    (k.setup)(&mut sim);
    let clean = sim
        .run(&SimOptions {
            watchdog: Some(E9_WATCHDOG),
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("{} clean run: {e}", k.name));
    let mut space = FaultSpace::new(c.machine(), art.program.instr_count() as u32, clean.cycles);
    space.mem_lo = 0;
    space.mem_hi = 0x200;
    let spec = CampaignSpec {
        seed: 1980 + i as u64,
        trials: E9_TRIALS,
        mix: FaultMix::default(),
    };
    let max_cycles = clean.cycles * 20 + 20_000;
    let mut text = format!("clean {clean:?}\n");
    for protect in [true, false] {
        let mut results = Vec::new();
        let report = run_campaign(&spec, &space, |plan| {
            let mut sim = art.simulator();
            (k.setup)(&mut sim);
            let res = sim.run(&SimOptions {
                max_cycles,
                faults: plan,
                watchdog: Some(E9_WATCHDOG),
                protect_store: protect,
                ..Default::default()
            });
            let correct = res.is_ok() && (k.result)(&art, &sim) == k.expected;
            results.push(res.clone());
            (res, correct)
        });
        for (t, res) in report.trials.iter().zip(&results) {
            text.push_str(&format!(
                "{protect} {} {:?} {:?} {res:?}\n",
                t.trial, t.fault, t.outcome
            ));
        }
    }
    text
}

#[test]
fn suite_runs_match_their_pinned_digests() {
    let mut got = Vec::new();
    for k in suite() {
        for m in mcc_machine::machines::all() {
            got.push((k.name, m.name.clone(), fnv1a(runs(&k, &m).as_bytes())));
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
        "a simulated run changed; digests now:\n{rendered}"
    );
}

#[test]
fn e9_trials_match_their_pinned_digests() {
    let got: Vec<(&str, u64)> = suite()
        .iter()
        .enumerate()
        .map(|(i, k)| (k.name, fnv1a(e9_trials(i, k).as_bytes())))
        .collect();
    let rendered: String = got
        .iter()
        .map(|(k, d)| format!("    ({k:?}, {d:#018x}),\n"))
        .collect();
    assert_eq!(
        got, PINNED_E9,
        "an E9 trial changed; digests now:\n{rendered}"
    );
}
