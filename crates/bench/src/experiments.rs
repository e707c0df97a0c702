//! The experiment harnesses E1–E9 (see EXPERIMENTS.md for the mapping to
//! the paper's claims). Each function returns `(header, rows, notes)` so
//! the `exp_*` binaries and EXPERIMENTS.md share one source of numbers.

use mcc_compact::{compact_degrading, Algorithm, BB_DEFAULT_BUDGET};
use mcc_core::{Artifact, Compiler, CompilerOptions, SourceLang};
use mcc_machine::machines::{bx2, hm1, vm1, wm64};
use mcc_machine::{ConflictModel, MachineDesc};
use mcc_mir::select::{select_op, SelectedOp};
use mcc_sim::{SimOptions, Simulator};

use crate::handwritten;
use crate::kernels::{suite, Lang};
use crate::macrointerp;

/// A rendered experiment: header, rows, free-text notes.
pub struct Table {
    /// Column names.
    pub header: Vec<&'static str>,
    /// Row cells.
    pub rows: Vec<Vec<String>>,
    /// Interpretation notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// Renders the table with notes to a string — exactly the bytes
    /// [`print`](Self::print) writes, so the golden conformance suite
    /// and the parallel `exp_all` driver share one formatter.
    pub fn render(&self, title: &str) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "\n== {title} ==\n");
        out.push_str(&crate::render_table(&self.header, &self.rows));
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        out
    }

    /// Prints the table with notes.
    pub fn print(&self, title: &str) {
        print!("{}", self.render(title));
    }
}

/// Compiles through the content-addressed cache (disk-persisted when a
/// tier is attached), panicking on pipeline errors like the experiments
/// always have.
fn cached(c: &Compiler, lang: SourceLang, src: &str) -> Artifact {
    mcc_cache::compile_cached(c, lang, src, mcc_cache::Persist::Disk).unwrap()
}

/// One catalog entry: `(id, title, builder)`.
pub type GoldenTable = (&'static str, &'static str, fn() -> Table);

/// The deterministic experiment catalog: `(id, title, builder)` for
/// every table whose cells are a pure function of the toolkit — the
/// tables `exp_all` prints first and `tests/golden.rs` pins
/// byte-for-byte. E9/E10 are excluded: their trial counts are
/// runtime-tunable campaign parameters.
pub const GOLDEN_TABLES: [GoldenTable; 9] = [
    ("E1", "E1: compiled vs hand-written microcode (HM-1)", e1),
    ("E2", "E2: microinstruction composition algorithms (HM-1)", e2),
    (
        "E3",
        "E3: YALLL portability - HM-1 (HP300 role) vs BX-2 (VAX role)",
        e3,
    ),
    (
        "E4",
        "E4: horizontal (HM-1) vs vertical (VM-1) microarchitecture",
        e4,
    ),
    (
        "E5",
        "E5: macrocode vs compiled microcode vs expert microcode",
        e5,
    ),
    ("E6", "E6: register budget sweep", e6),
    ("E6b", "E6b: allocation policy ablation (spread vs reuse)", e6b),
    ("E7", "E7: interrupt poll-point frequency (section 2.1.5)", e7),
    ("E8", "E8: the survey's own observations, regenerated", e8),
];

fn pct(over: usize, base: usize) -> String {
    if base == 0 {
        "-".into()
    } else {
        format!("{:+.1}%", (over as f64 - base as f64) / base as f64 * 100.0)
    }
}

// ----------------------------------------------------------------- E1 ----

/// Runs a hand-written program with inputs, returning (instrs, cycles).
fn run_hand(
    m: &MachineDesc,
    p: &mcc_machine::MicroProgram,
    setup: impl FnOnce(&mut Simulator),
    check: impl FnOnce(&Simulator),
) -> (usize, u64) {
    let mut sim = Simulator::new(m.clone(), p);
    setup(&mut sim);
    let stats = sim.run(&SimOptions::default()).unwrap();
    check(&sim);
    (p.instr_count(), stats.cycles)
}

/// E1: compiled code size vs hand-written microcode (the MPGL ≤15% claim,
/// adjusted by what a 1970s heuristic compiler actually achieves).
pub fn e1() -> Table {
    let m = hm1();
    let c = Compiler::new(m.clone());
    let r = |n: &str| m.resolve_reg_name(n).unwrap();

    // (kernel name, hand program+run, compiled kernel)
    let mut rows = Vec::new();
    let ks = suite();
    let get = |name: &str| ks.iter().find(|k| k.name == name).unwrap();

    // popcount
    {
        let hand = handwritten::popcount(&m);
        let (hs, hc) = run_hand(
            &m,
            &hand,
            |s| s.set_reg(r("R0"), 0xB7),
            |s| assert_eq!(s.reg(r("R1")), 0xB7u64.count_ones() as u64),
        );
        let (art, cc) = get("popcount").run(&c);
        // The compiled kernel loads its constants itself (2 ldi): charge
        // the hand version the same two cycles/instructions for fairness.
        rows.push(row_e1("popcount", hs + 2, hc + 2, art.stats.micro_instrs, cc));
    }
    // gcd
    {
        let hand = handwritten::gcd(&m);
        let (hs, hc) = run_hand(
            &m,
            &hand,
            |s| {
                s.set_reg(r("R0"), 252);
                s.set_reg(r("R1"), 105);
            },
            |s| assert_eq!(s.reg(r("R0")), 21),
        );
        let (art, cc) = get("gcd").run(&c);
        rows.push(row_e1("gcd", hs + 2, hc + 2, art.stats.micro_instrs, cc));
    }
    // memcpy16 (both versions load their own constants)
    {
        let hand = handwritten::memcpy16(&m);
        let (hs, hc) = run_hand(
            &m,
            &hand,
            |s| {
                for i in 0..16u64 {
                    s.set_mem(0x100 + i, (i * 7 + 3) & 0xFFFF);
                }
            },
            |s| {
                for i in 0..16u64 {
                    assert_eq!(s.mem(0x80 + i), (i * 7 + 3) & 0xFFFF);
                }
            },
        );
        let (art, cc) = get("memcpy16").run(&c);
        rows.push(row_e1("memcpy16", hs, hc, art.stats.micro_instrs, cc));
    }
    // sum8 (hand) vs a YALLL sum loop compiled.
    {
        let hand = handwritten::sum_words(&m, 0x100, 8);
        let (hs, hc) = run_hand(
            &m,
            &hand,
            |s| {
                for i in 0..8u64 {
                    s.set_mem(0x100 + i, i + 1);
                }
            },
            |s| assert_eq!(s.reg(r("R2")), 36),
        );
        let src = "\
reg ptr = R0
reg n = R1
reg acc = R2
reg t = R3
const ptr, 0x100
const n, 8
const acc, 0
loop: jump done if n = 0
    load t, ptr
    add acc, acc, t
    add ptr, ptr, 1
    sub n, n, 1
    jump loop
done: exit acc
";
        let art = cached(&c, SourceLang::Yalll, src);
        let mut sim = art.simulator();
        for i in 0..8u64 {
            sim.set_mem(0x100 + i, i + 1);
        }
        let stats = sim.run(&SimOptions::default()).unwrap();
        assert_eq!(art.read_symbol(&sim, "acc"), Some(36));
        rows.push(row_e1("sum8", hs, hc, art.stats.micro_instrs, stats.cycles));
    }

    let notes = vec![
        "hand = expert microcode (flag reuse, branch/flag overlap, 1-cycle swap);".into(),
        "compiled = default pipeline (critical-path list scheduling, fine conflicts).".into(),
        "Paper claim (MPGL, §2.2.5): compiled code ≤ 15% larger than hand-written.".into(),
    ];
    Table {
        header: vec![
            "kernel", "hand MIs", "compiled MIs", "size Δ", "hand cyc", "compiled cyc", "cyc Δ",
        ],
        rows,
        notes,
    }
}

fn row_e1(name: &str, hs: usize, hc: u64, cs: usize, cc: u64) -> Vec<String> {
    vec![
        name.into(),
        hs.to_string(),
        cs.to_string(),
        pct(cs, hs),
        hc.to_string(),
        cc.to_string(),
        pct(cc as usize, hc as usize),
    ]
}

// ----------------------------------------------------------------- E2 ----

/// Straight-line blocks for the compaction shoot-out: every block of every
/// kernel after selection, plus seeded random blocks.
fn e2_blocks(m: &MachineDesc) -> Vec<Vec<SelectedOp>> {
    let mut blocks = Vec::new();
    for k in suite() {
        // Lower through legalize+alloc, then collect selected blocks.
        let c = Compiler::new(m.clone());
        let art = k.compile(&c);
        let _ = art; // compiled only to assert the kernel is valid here
        let src = (k.source)(m);
        let f = match k.lang {
            Lang::Yalll => mcc_yalll::parse(&src, m).unwrap().func,
            Lang::Simpl => mcc_simpl::parse(&src, m).unwrap().func,
            Lang::Empl => mcc_empl::compile(&src).unwrap().func,
        };
        let mut f = f;
        mcc_mir::legalize(m, &mut f).unwrap();
        mcc_regalloc::allocate(m, &mut f, &Default::default()).unwrap();
        mcc_core::mark_dead_flags(&mut f);
        let sel = mcc_mir::select_function(m, &f).unwrap();
        for b in sel.blocks {
            if b.ops.len() >= 3 {
                blocks.push(b.ops);
            }
        }
    }
    // Seeded random DAG blocks.
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(1980);
    let file = m.find_file("R").unwrap();
    for _ in 0..30 {
        let len = rng.gen_range(4..12);
        let mut ops = Vec::new();
        for _ in 0..len {
            let d = rng.gen_range(0..12u16);
            let a = rng.gen_range(0..12u16);
            let b = rng.gen_range(0..12u16);
            let rr = |i| mcc_mir::Operand::Reg(mcc_machine::RegRef::new(file, i));
            let mut op = match rng.gen_range(0..5) {
                0 => mcc_mir::MirOp::mov(rr(d), rr(a)),
                1 => mcc_mir::MirOp::alu(mcc_machine::AluOp::Add, rr(d), rr(a), rr(b)),
                2 => mcc_mir::MirOp::alu(mcc_machine::AluOp::Xor, rr(d), rr(a), rr(b)),
                3 => mcc_mir::MirOp::shift(mcc_machine::ShiftOp::Shr, rr(d), rr(a), 1),
                _ => mcc_mir::MirOp::ldi(rr(d), rng.gen_range(0..0xFFFF)),
            };
            // Straight-line throwaway blocks: no one reads the flags.
            op.flags_dead = true;
            ops.push(select_op(m, &op).unwrap());
        }
        blocks.push(ops);
    }
    blocks
}

/// E2's rows: each algorithm under the conflict model its table uses,
/// the exact search last.
const E2_ROWS: [(Algorithm, ConflictModel, &str); 5] = [
    (Algorithm::Linear, ConflictModel::Coarse, "linear (SIMPL [18])"),
    (Algorithm::CriticalPath, ConflictModel::Coarse, "critical path [22]"),
    (Algorithm::LevelPack, ConflictModel::Coarse, "level partition [3]"),
    (Algorithm::Tokoro, ConflictModel::Fine, "phase-aware [21]"),
    (Algorithm::BranchBound, ConflictModel::Fine, "exact (minimal)"),
];

/// E2: microinstruction counts per compaction algorithm (the §2.1.4
/// algorithm family), against the exact minimum.
pub fn e2() -> Table {
    let m = hm1();
    let blocks = e2_blocks(&m);
    let total_ops: usize = blocks.iter().map(|b| b.len()).sum();

    // Each block's length under each row, computed once; the last row is
    // the exact one, so its column is each block's minimum.
    let lens: Vec<Vec<usize>> = blocks
        .iter()
        .map(|b| {
            E2_ROWS
                .iter()
                .map(|&(algo, model, _)| {
                    compact_degrading(&m, b, algo, model, BB_DEFAULT_BUDGET)
                        .compaction
                        .len()
                })
                .collect()
        })
        .collect();
    let exact = E2_ROWS.len() - 1;
    let optimal: usize = lens.iter().map(|l| l[exact]).sum();
    let mut rows = Vec::new();
    for (r, &(_, _, label)) in E2_ROWS.iter().enumerate() {
        let mis: usize = lens.iter().map(|l| l[r]).sum();
        let optimal_hits = lens.iter().filter(|l| l[r] == l[exact]).count();
        rows.push(vec![
            label.to_string(),
            mis.to_string(),
            format!("{:.3}", total_ops as f64 / mis as f64),
            pct(mis, optimal),
            format!("{optimal_hits}/{}", blocks.len()),
        ]);
    }
    Table {
        header: vec!["algorithm", "total MIs", "ops/MI", "vs minimal", "blocks at minimum"],
        rows,
        notes: vec![
            format!(
                "{} blocks ({} µops) from the kernel suite + seeded random DAGs, on HM-1.",
                blocks.len(),
                total_ops
            ),
            "Paper (§2.1.4): heuristics give \"a minimal or near minimal sequence\".".into(),
        ],
    }
}

// ----------------------------------------------------------------- E3 ----

/// E3: YALLL portability — identical sources, HM-1 (≈HP300) vs BX-2
/// (≈VAX-11).
pub fn e3() -> Table {
    let mut rows = Vec::new();
    let (hm, bx) = (hm1(), bx2());
    let ch = Compiler::new(hm);
    let cb = Compiler::new(bx);
    let mut tot = (0u64, 0u64);
    for k in suite().into_iter().filter(|k| k.lang == Lang::Yalll) {
        let (ah, cyh) = k.run(&ch);
        let (ab, cyb) = k.run(&cb);
        tot.0 += cyh;
        tot.1 += cyb;
        rows.push(vec![
            k.name.into(),
            ah.stats.micro_instrs.to_string(),
            ab.stats.micro_instrs.to_string(),
            cyh.to_string(),
            cyb.to_string(),
            format!("{:.2}x", cyb as f64 / cyh as f64),
        ]);
    }
    Table {
        header: vec!["kernel", "HM-1 MIs", "BX-2 MIs", "HM-1 cyc", "BX-2 cyc", "BX-2 slowdown"],
        rows,
        notes: vec![
            format!(
                "Aggregate slowdown {:.2}x. Paper (§2.2.4): \"the HP implementation performed a lot better than the VAX implementation\".",
                tot.1 as f64 / tot.0 as f64
            ),
        ],
    }
}

// ----------------------------------------------------------------- E4 ----

/// E4: horizontal vs vertical encoding (§1 / reference \[5\]).
pub fn e4() -> Table {
    let mut rows = Vec::new();
    let (h, v) = (hm1(), vm1());
    let ch = Compiler::new(h.clone());
    let cv = Compiler::new(v.clone());
    let mut tot = (0u64, 0u64);
    for k in suite().into_iter().filter(|k| k.lang != Lang::Empl) {
        let (ah, cyh) = k.run(&ch);
        let (av, cyv) = k.run(&cv);
        tot.0 += cyh;
        tot.1 += cyv;
        let bits_h = ah.stats.micro_instrs as u64 * h.control_word_bits() as u64;
        let bits_v = av.stats.micro_instrs as u64 * v.control_word_bits() as u64;
        rows.push(vec![
            k.name.into(),
            cyh.to_string(),
            cyv.to_string(),
            format!("{:.2}x", cyv as f64 / cyh as f64),
            bits_h.to_string(),
            bits_v.to_string(),
        ]);
    }
    Table {
        header: vec![
            "kernel",
            "HM-1 cyc",
            "VM-1 cyc",
            "VM-1 slowdown",
            "HM-1 store bits",
            "VM-1 store bits",
        ],
        rows,
        notes: vec![
            format!("Aggregate slowdown {:.2}x.", tot.1 as f64 / tot.0 as f64),
            "Paper (§1): vertical encoding \"usually implies a loss of flexibility and speed\",".into(),
            "bought back in control-store bits per instruction (45 vs 96).".into(),
        ],
    }
}

// ----------------------------------------------------------------- E5 ----

/// E5: macrocode vs compiled microcode vs expert microcode (§3's
/// factor-5 / factor-10 remark).
pub fn e5() -> Table {
    let m = hm1();
    let art_interp = macrointerp::compile_interpreter(&m).unwrap();
    let r = |n: &str| m.resolve_reg_name(n).unwrap();

    let mut rows = Vec::new();

    // Workload 1: sum of 8 words at 0x100.
    {
        let data: Vec<(u64, u64)> = (0..8).map(|i| (0x100 + i, i + 1)).collect();
        let macro_prog =
            mcc_sim::macroisa::sum_program(0x100, 8, 0x200, 0x201, 0x202);
        let (sim, st_macro) = macrointerp::interpret(&art_interp, &macro_prog, &data, 3_000_000);
        assert_eq!(sim.mem(0x200), 36);

        let c = Compiler::new(m.clone());
        let src = "\
reg ptr = R0
reg n = R1
reg acc = R2
reg t = R3
const ptr, 0x100
const n, 8
const acc, 0
loop: jump done if n = 0
    load t, ptr
    add acc, acc, t
    add ptr, ptr, 1
    sub n, n, 1
    jump loop
done: exit acc
";
        let art = cached(&c, SourceLang::Yalll, src);
        let mut sim = art.simulator();
        for &(a, v) in &data {
            sim.set_mem(a, v);
        }
        let st_comp = sim.run(&SimOptions::default()).unwrap();
        assert_eq!(art.read_symbol(&sim, "acc"), Some(36));

        let hand = handwritten::sum_words(&m, 0x100, 8);
        let mut sim = Simulator::new(m.clone(), &hand);
        for &(a, v) in &data {
            sim.set_mem(a, v);
        }
        let st_hand = sim.run(&SimOptions::default()).unwrap();
        assert_eq!(sim.reg(r("R2")), 36);

        rows.push(vec![
            "sum8".into(),
            st_macro.cycles.to_string(),
            st_comp.cycles.to_string(),
            st_hand.cycles.to_string(),
            format!("{:.1}x", st_macro.cycles as f64 / st_comp.cycles as f64),
            format!("{:.1}x", st_macro.cycles as f64 / st_hand.cycles as f64),
        ]);
    }

    // Workload 2: copy 16 words (unrolled LDA/STA at the macro level).
    {
        use mcc_sim::macroisa::{MacroInstr, MacroOp};
        let mut macro_prog = Vec::new();
        for i in 0..16 {
            macro_prog.push(MacroInstr::new(MacroOp::Lda, 0x100 + i));
            macro_prog.push(MacroInstr::new(MacroOp::Sta, 0x80 + i));
        }
        macro_prog.push(MacroInstr::new(MacroOp::Halt, 0));
        let data: Vec<(u64, u64)> = (0..16).map(|i| (0x100 + i, (i * 7 + 3) & 0xFFFF)).collect();
        let (sim, st_macro) = macrointerp::interpret(&art_interp, &macro_prog, &data, 3_000_000);
        assert_eq!(sim.mem(0x80), 3);

        let c = Compiler::new(m.clone());
        let k = suite().into_iter().find(|k| k.name == "memcpy16").unwrap();
        let (_, st_comp) = k.run(&c);

        let hand = handwritten::memcpy16(&m);
        let mut sim = Simulator::new(m.clone(), &hand);
        for &(a, v) in &data {
            sim.set_mem(a, v);
        }
        let st_hand = sim.run(&SimOptions::default()).unwrap();
        assert_eq!(sim.mem(0x80 + 5), (5 * 7 + 3) & 0xFFFF);

        rows.push(vec![
            "memcpy16".into(),
            st_macro.cycles.to_string(),
            st_comp.to_string(),
            st_hand.cycles.to_string(),
            format!("{:.1}x", st_macro.cycles as f64 / st_comp as f64),
            format!("{:.1}x", st_macro.cycles as f64 / st_hand.cycles as f64),
        ]);
    }

    Table {
        header: vec![
            "workload",
            "macro cyc",
            "compiled µcode cyc",
            "hand µcode cyc",
            "speedup (compiled)",
            "speedup (hand)",
        ],
        rows,
        notes: vec![
            "macro = MAC-1 program run by the microcoded interpreter (itself compiled by this toolkit).".into(),
            "Paper (§3): \"speed up … by a factor of five with comparatively little effort\" (HLL)".into(),
            "vs \"a factor of ten only after mastering a complicated microassembly language\".".into(),
        ],
    }
}

// ----------------------------------------------------------------- E6 ----

/// E6: spills and cycles vs register budget, plus the spread-vs-reuse
/// allocation ablation.
pub fn e6() -> Table {
    // A 12-live-variable EMPL kernel.
    let mut src = String::new();
    for i in 0..12 {
        src.push_str(&format!("DECLARE V{i} FIXED;\n"));
    }
    src.push_str("DECLARE T FIXED;\n");
    for i in 0..12 {
        src.push_str(&format!("V{i} = {};\n", i * 5 + 2));
    }
    src.push_str("T = 0;\n");
    for i in 0..12 {
        src.push_str(&format!("T = T + V{i};\n"));
    }
    let want: u64 = (0..12).map(|i| i * 5 + 2).sum();

    let mut rows = Vec::new();
    for budget in [4u16, 6, 8, 12, 16, 64, 256] {
        // HM-1 has 16 registers; larger budgets only exist on WM-64.
        let m: MachineDesc = if budget <= 16 { hm1() } else { wm64() };
        let mut opts = CompilerOptions::default();
        opts.alloc.budget = Some(budget);
        let name = m.name.clone();
        let art = cached(&Compiler::with_options(m, opts), SourceLang::Empl, &src);
        let (sim, stats) = art.run().unwrap();
        assert_eq!(art.read_symbol(&sim, "T"), Some(want));
        rows.push(vec![
            format!("{name}/{budget}"),
            art.stats.spills.to_string(),
            art.stats.spill_moves.to_string(),
            art.stats.micro_instrs.to_string(),
            stats.cycles.to_string(),
        ]);
    }
    Table {
        header: vec!["machine/budget", "spills", "fill+store ops", "MIs", "cycles"],
        rows,
        notes: vec![
            "Paper (§2.1.3): microregister budgets range from 16 (VAX-11) to 256 (CD 480);".into(),
            "spilling \"should be done in such a way that the number of fetches and stores is minimized\".".into(),
        ],
    }
}

/// E6b: the allocation/composition interdependence ablation — spread
/// (avoid reuse) vs greedy reuse.
pub fn e6b() -> Table {
    // Independent chains that compact well unless allocation serialises
    // them by reusing registers.
    let mut src = String::new();
    for i in 0..4 {
        src.push_str(&format!("DECLARE A{i} FIXED;\nDECLARE B{i} FIXED;\n"));
    }
    for i in 0..4 {
        src.push_str(&format!("A{i} = {};\n", i + 1));
        src.push_str(&format!("B{i} = A{i} + {};\n", 10 * (i + 1)));
    }
    let mut rows = Vec::new();
    for (label, spread) in [("spread (avoid reuse)", true), ("greedy reuse", false)] {
        let mut opts = CompilerOptions::default();
        opts.alloc.spread = spread;
        let art = cached(&Compiler::with_options(hm1(), opts), SourceLang::Empl, &src);
        let (_, stats) = art.run().unwrap();
        rows.push(vec![
            label.into(),
            art.stats.micro_instrs.to_string(),
            format!("{:.2}", art.stats.packing_ratio()),
            stats.cycles.to_string(),
        ]);
    }
    let c_spread: u64 = rows[0][3].parse().unwrap();
    let c_greedy: u64 = rows[1][3].parse().unwrap();
    let finding = if c_spread < c_greedy {
        format!(
            "Measured: spread is {:.1}% faster — reuse introduced false dependences.",
            (c_greedy - c_spread) as f64 / c_greedy as f64 * 100.0
        )
    } else {
        "Measured: no difference on this kernel — the compactor's candidate choice and \
         anti-dependence-tolerant packing absorb the reuse hazards the paper feared."
            .to_string()
    };
    Table {
        header: vec!["allocation policy", "MIs", "ops/MI", "cycles"],
        rows,
        notes: vec![
            "Paper (§2.1.4): \"a register allocation phase should introduce as little resource".into(),
            "dependencies as possible between statements which are not data dependent\".".into(),
            finding,
        ],
    }
}

// ----------------------------------------------------------------- E7 ----

/// E7: interrupt poll-point frequency vs latency and overhead (§2.1.5).
pub fn e7() -> Table {
    // A long-running kernel: checksum 192 words.
    // The loop body is unrolled 8x, so the straight-line stretch is long
    // enough for the per-ops poll interval to matter.
    let mut body = String::new();
    for _ in 0..8 {
        body.push_str("    load t, ptr\n    add acc, acc, t\n    add ptr, ptr, 1\n");
    }
    let src = format!(
        "\
reg ptr = R0
reg n = R1
reg acc = R2
reg t = R3
const ptr, 0x100
const n, 24
const acc, 0
loop: jump done if n = 0
{body}    sub n, n, 1
    jump loop
done: exit acc
"
    );
    let src = src.as_str();
    let want: u64 = (0..192u64).map(|i| (i * 3 + 1) & 0xFFFF).sum::<u64>() & 0xFFFF;

    let mut rows = Vec::new();
    let mut base_cycles = 0u64;
    for (label, interval) in [
        ("no polling", None),
        ("every 32 ops", Some(32)),
        ("every 8 ops", Some(8)),
        ("every 2 ops", Some(2)),
    ] {
        let opts = CompilerOptions {
            poll_interval: interval,
            ..Default::default()
        };
        let art = cached(&Compiler::with_options(hm1(), opts), SourceLang::Yalll, src);
        let mut sim = art.simulator();
        for i in 0..192u64 {
            sim.set_mem(0x100 + i, (i * 3 + 1) & 0xFFFF);
        }
        // Ten interrupts over the run.
        let opts_sim = SimOptions {
            interrupts: (1..=10).map(|k| k * 150).collect(),
            max_cycles: 10_000_000,
            ..Default::default()
        };
        let stats = sim.run(&opts_sim).unwrap();
        assert_eq!(art.read_symbol(&sim, "acc"), Some(want));
        if interval.is_none() {
            base_cycles = stats.cycles;
        }
        rows.push(vec![
            label.into(),
            art.stats.polls.to_string(),
            stats.cycles.to_string(),
            pct(stats.cycles as usize, base_cycles as usize),
            stats.interrupt_latency_max.to_string(),
            format!(
                "{:.0}",
                stats.interrupt_latency_total as f64 / stats.interrupts.max(1) as f64
            ),
        ]);
    }
    Table {
        header: vec![
            "poll policy",
            "polls inserted",
            "cycles",
            "poll overhead",
            "max latency",
            "mean latency",
        ],
        rows,
        notes: vec![
            "10 interrupts arrive at 150-cycle intervals; service cost 40 cycles each.".into(),
            "Paper (§2.1.5): a long microprogram \"must periodically check whether any".into(),
            "interrupts are pending\" — the sweep shows the latency/overhead trade.".into(),
        ],
    }
}

// ----------------------------------------------------------------- E8 ----

/// E8: the survey's feature matrix and §3 statistics.
pub fn e8() -> Table {
    let s = mcc_survey::stats();
    let rows = vec![
        vec![
            "sequential specification".into(),
            format!("{}/{}", s.sequential, s.total),
            "\"eight allow complete sequential specification\"".into(),
        ],
        vec![
            "explicit composition".into(),
            format!("{}/{}", s.explicit_composition, s.total),
            "\"only two (S* and CHAMIL)\"".into(),
        ],
        vec![
            "symbolic variables".into(),
            format!("{}/{}", s.symbolic_variables, s.total),
            "\"only two or three (EMPL, PL/MP and in a certain sense YALLL)\"".into(),
        ],
        vec![
            "parameter passing".into(),
            format!("{}/{}", s.parameter_passing, s.total),
            "\"no language supports the passing of parameters\"".into(),
        ],
        vec![
            "interrupt/trap handling".into(),
            format!("{}/{}", s.interrupts, s.total),
            "\"completely neglected\"".into(),
        ],
    ];
    Table {
        header: vec!["§3 observation", "measured", "paper text"],
        rows,
        notes: vec!["Full matrix:".into(), mcc_survey::feature_matrix()],
    }
}

// ----------------------------------------------------------------- E9 ----

/// Watchdog budget for E9: generous against the ≤8-op poll spacing the
/// campaign compiles its kernels with, tight against corrupted poll-less
/// loops.
pub const E9_WATCHDOG: u64 = 512;

/// Runs one dependability campaign: kernel `k` under `trials` seeded
/// single-fault runs, with the control store parity-protected or raw.
///
/// The same `seed` against both store modes injects the *identical* fault
/// sequence, so protected and raw rows compare like for like.
pub fn e9_campaign(
    k: &crate::kernels::Kernel,
    c: &Compiler,
    protect: bool,
    seed: u64,
    trials: usize,
) -> mcc_faults::Tally {
    let art = k
        .compile(c)
        .unwrap_or_else(|e| panic!("{}: {e}", k.name));
    // Fault-free reference run fixes the injection horizon.
    let mut sim = art.simulator();
    (k.setup)(&mut sim);
    let clean = sim
        .run(&SimOptions {
            watchdog: Some(E9_WATCHDOG),
            ..Default::default()
        })
        .unwrap_or_else(|e| panic!("{} clean run: {e}", k.name));
    assert_eq!(
        (k.result)(&art, &sim),
        k.expected,
        "{} clean run computed the wrong answer",
        k.name
    );

    let mut space = mcc_faults::FaultSpace::new(
        c.machine(),
        art.program.instr_count() as u32,
        clean.cycles,
    );
    // Target the kernels' working set so memory upsets can matter.
    space.mem_lo = 0;
    space.mem_hi = 0x200;
    let spec = mcc_faults::CampaignSpec {
        seed,
        trials,
        mix: mcc_faults::FaultMix::default(),
    };
    // Runaways that keep polling escape the watchdog; the cycle budget is
    // the blunt backstop.
    let max_cycles = clean.cycles * 20 + 20_000;
    let report = mcc_faults::run_campaign(&spec, &space, |plan| {
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
        (res, correct)
    });
    report.tally
}

/// The compiler every E9 row uses: poll points let the watchdog
/// distinguish a hung machine from a working loop (§2.1.5's polling,
/// reused as a liveness heartbeat).
pub fn e9_compiler() -> Compiler {
    let opts = CompilerOptions {
        poll_interval: Some(8),
        ..Default::default()
    };
    Compiler::with_options(hm1(), opts)
}

/// E9's column names.
pub(crate) fn e9_header() -> Vec<&'static str> {
    vec![
        "kernel/store",
        "masked",
        "recovered",
        "detected",
        "hang",
        "SDC",
        "coverage",
    ]
}

/// Renders one E9 row from a campaign tally.
pub(crate) fn e9_row(label: String, t: &mcc_faults::Tally) -> Vec<String> {
    vec![
        label,
        t.masked.to_string(),
        t.recovered.to_string(),
        t.detected_halt.to_string(),
        t.hang.to_string(),
        t.sdc.to_string(),
        format!("{:.1}%", t.coverage() * 100.0),
    ]
}

/// E9's interpretation notes.
pub(crate) fn e9_notes(trials: usize) -> Vec<String> {
    vec![
        format!(
            "{trials} seeded single-fault trials per row; mix = control flips 50%, \
             register 20%, memory 15%, stuck-at 10%, page unmap 5%."
        ),
        "raw = corrupted control words execute; ecc = parity-checked fetch with".into(),
        format!(
            "scrub + restart-from-checkpoint recovery. Watchdog {E9_WATCHDOG} cycles; \
             the same seed feeds both store modes."
        ),
        "coverage = fraction of trials not ending in silent data corruption.".into(),
    ]
}

// ----------------------------------------------------------------- E10 ---

/// E10's column names.
pub(crate) fn e10_header() -> Vec<&'static str> {
    let mut header = vec!["machine/frontend"];
    header.extend(mcc_fuzz::FindingClass::ALL.iter().map(|c| c.name()));
    header
}

/// Renders one E10 row from per-class finding counts.
pub(crate) fn e10_row(label: String, counts: &[u64; 5]) -> Vec<String> {
    let mut row = vec![label];
    row.extend(counts.iter().map(|n| n.to_string()));
    row
}

/// E10's interpretation notes.
pub(crate) fn e10_notes(trials: u64, total: u64) -> Vec<String> {
    vec![
        format!("{trials} trials per cell, seed 1; reference oracle: sequential emission."),
        "Every generated program is compiled under all five compaction algorithms and".into(),
        "simulated; divergence in final state, a panic, a hang, a rejected well-formed".into(),
        "program, or a budget blowout counts in its class. Mutated (malformed) variants".into(),
        "additionally check diagnostic quality: non-empty message, in-range span.".into(),
        format!(
            "Total findings: {total}. An all-zero table is the robustness baseline \
             this tree ships with."
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_table_has_rows_and_validates() {
        let t = e1();
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn e2_orders_algorithms_sanely() {
        let t = e2();
        // The exact algorithm's total is minimal.
        let get = |i: usize| t.rows[i][1].parse::<usize>().unwrap();
        let exact = get(4);
        for i in 0..4 {
            assert!(get(i) >= exact, "row {i}: {:?}", t.rows);
        }
        // The phase-aware compactor beats the coarse critical-path one.
        assert!(get(3) <= get(1), "{:?}", t.rows);
    }

    #[test]
    fn e3_shows_bx2_slower() {
        let t = e3();
        for r in &t.rows {
            let hm: u64 = r[3].parse().unwrap();
            let bx: u64 = r[4].parse().unwrap();
            assert!(bx >= hm, "{r:?}");
        }
    }

    #[test]
    fn e4_shows_vertical_slower() {
        let t = e4();
        for r in &t.rows {
            let h: u64 = r[1].parse().unwrap();
            let v: u64 = r[2].parse().unwrap();
            assert!(v >= h, "{r:?}");
        }
    }

    #[test]
    fn e5_speedups_are_large() {
        let t = e5();
        for r in &t.rows {
            let mac: f64 = r[1].parse().unwrap();
            let comp: f64 = r[2].parse().unwrap();
            let hand: f64 = r[3].parse().unwrap();
            assert!(mac / comp > 2.0, "compiled speedup too small: {r:?}");
            assert!(hand <= comp, "hand must beat the compiler: {r:?}");
        }
    }

    #[test]
    fn e6_spills_decrease_with_budget() {
        let t = e6();
        let spills: Vec<usize> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(spills[0] > 0, "budget 4 must spill");
        assert!(
            spills.windows(2).all(|w| w[0] >= w[1]),
            "spills must not increase with budget: {spills:?}"
        );
        assert_eq!(*spills.last().unwrap(), 0);
    }

    #[test]
    fn e7_latency_shrinks_with_polling() {
        let t = e7();
        let lat: Vec<u64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        assert!(
            lat[0] > lat[3],
            "polling must reduce worst-case latency: {lat:?}"
        );
    }

    #[test]
    fn e8_matches_paper() {
        let t = e8();
        assert_eq!(t.rows[0][1], "8/10");
        assert_eq!(t.rows[1][1], "2/10");
        assert_eq!(t.rows[3][1], "0/10");
    }
}
