//! Seeded requests: the 64 reference programs and freshly drawn ones.
//!
//! A program is one of the eight kernels of `mcc_bench::kernels::suite()`
//! on one of the four reference machines under one of two compaction
//! algorithms. Reference programs use the suite's own constants. Drawn
//! programs take new constants from the seed, so a cold request is a new
//! program — a new cache key and new MIR — never a comment nonce that a
//! cache keyed after the frontend could legally answer. Every program
//! carries its own expected result, computed here in plain Rust.

use std::collections::HashSet;

use mcc_compact::Algorithm;
use mcc_core::{Artifact, Compiler, CompilerOptions, SourceLang};
use mcc_machine::MachineDesc;
use mcc_sim::{SimOptions, SimStats, Simulator};

/// Wire names of the reference machines, in `machines::all()` order.
pub const MACHINES: [&str; 4] = ["hm1", "vm1", "bx2", "wm64"];

/// Wire names of the two compaction algorithms requests use.
pub const ALGOS: [&str; 2] = ["critpath", "optimal"];

/// Kernel names, in `suite()` order.
pub const KERNELS: [&str; 8] = [
    "popcount", "gcd", "memcpy16", "fib14", "bitrev", "lcg20", "tablesum", "mul16",
];

/// Number of reference programs: kernels × machines × algorithms.
pub const REFERENCE_COUNT: usize = KERNELS.len() * MACHINES.len() * ALGOS.len();

/// Simulation ceiling; every drawn program halts far below it.
const MAX_CYCLES: u64 = 5_000_000;

/// The compaction algorithm behind a wire name index.
fn algorithm(algo: usize) -> Algorithm {
    match algo {
        0 => Algorithm::CriticalPath,
        _ => Algorithm::BranchBound,
    }
}

/// The machine description behind a [`MACHINES`] index.
pub fn machine(index: usize) -> MachineDesc {
    mcc_machine::machines::by_name(MACHINES[index]).expect("reference machine names resolve")
}

/// A compiler for machine `m` under algorithm index `algo`, other options
/// at their defaults — the compiler `mcc serve` builds for the same request.
pub fn compiler(m: MachineDesc, algo: usize) -> Compiler {
    let options = CompilerOptions {
        algorithm: algorithm(algo),
        ..CompilerOptions::default()
    };
    Compiler::with_options(m, options)
}

/// The constants of one kernel instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Params {
    /// Bit count of the word `x`.
    Popcount { x: u64 },
    /// Subtractive gcd of `a` and `b`.
    Gcd { a: u64, b: u64 },
    /// Copies `n` of 16 prepared words from `src` to `dst`.
    Memcpy { src: u64, dst: u64, n: u64 },
    /// 14 Fibonacci steps from the seeds `a`, `b`.
    Fib { a: u64, b: u64 },
    /// Reverses the 16-bit word `w`.
    Bitrev { w: u64 },
    /// 20 rounds of `x ← 5x + 1` from the seed `x`.
    Lcg { x: u64 },
    /// Sums an eight-entry table.
    TableSum { vals: [u64; 8] },
    /// Multiplies `x` by `y` with EMPL's expanded multiply.
    Mul { x: u64, y: u64 },
}

/// Words the memcpy kernel's set-up prepares at its source address.
const MEMCPY_WORDS: u64 = 16;

fn memcpy_word(i: u64) -> u64 {
    (i * 7 + 3) & 0xFFFF
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// The general-purpose register file name (`R` or `G`), as the suite binds it.
fn gp(m: &MachineDesc) -> &'static str {
    if m.find_file("R").is_some() {
        "R"
    } else {
        "G"
    }
}

fn gp_reg(m: &MachineDesc, index: u16) -> mcc_machine::RegRef {
    m.resolve_reg_name(&format!("{}{index}", gp(m)))
        .expect("every reference machine has four general registers")
}

fn width_mask(m: &MachineDesc) -> u64 {
    mcc_machine::semantic::width_mask(m.reg_width(gp_reg(m, 1)))
}

impl Params {
    /// The suite's own constants for kernel `k`.
    pub fn suite(k: usize) -> Params {
        match k {
            0 => Params::Popcount { x: 0xB7 },
            1 => Params::Gcd { a: 252, b: 105 },
            2 => Params::Memcpy {
                src: 0x100,
                dst: 0x80,
                n: 16,
            },
            3 => Params::Fib { a: 0, b: 1 },
            4 => Params::Bitrev { w: 0x1234 },
            5 => Params::Lcg { x: 7 },
            6 => Params::TableSum {
                vals: [3, 1, 4, 1, 5, 9, 2, 6],
            },
            _ => Params::Mul { x: 57, y: 83 },
        }
    }

    /// New constants for kernel `k`, drawn from `rng`. The ranges keep
    /// every intermediate value inside 16 bits, the narrowest word of any
    /// reference machine, and some constants are wide enough to need
    /// legalising on the narrow machines.
    pub fn draw(k: usize, rng: &mut Rng) -> Params {
        match k {
            0 => Params::Popcount {
                x: rng.range(1, 0xFFFF),
            },
            1 => Params::Gcd {
                a: rng.range(16, 1023),
                b: rng.range(16, 1023),
            },
            2 => Params::Memcpy {
                src: 0x100 + 0x10 * rng.range(0, 15),
                dst: 0x20 + 0x10 * rng.range(0, 13),
                n: rng.range(1, MEMCPY_WORDS),
            },
            3 => Params::Fib {
                a: rng.range(0, 99),
                b: rng.range(0, 99),
            },
            4 => Params::Bitrev {
                w: rng.range(1, 0xFFFF),
            },
            5 => Params::Lcg {
                x: rng.range(0, 0xFFFF),
            },
            6 => {
                let mut vals = [0; 8];
                for v in &mut vals {
                    *v = rng.range(0, 999);
                }
                Params::TableSum { vals }
            }
            _ => Params::Mul {
                x: rng.range(1, 255),
                y: rng.range(1, 255),
            },
        }
    }

    /// The index of this kernel in [`KERNELS`].
    pub fn kernel(&self) -> usize {
        match self {
            Params::Popcount { .. } => 0,
            Params::Gcd { .. } => 1,
            Params::Memcpy { .. } => 2,
            Params::Fib { .. } => 3,
            Params::Bitrev { .. } => 4,
            Params::Lcg { .. } => 5,
            Params::TableSum { .. } => 6,
            Params::Mul { .. } => 7,
        }
    }

    /// The frontend the kernel is written in.
    pub fn lang(&self) -> SourceLang {
        match self.kernel() {
            0..=3 => SourceLang::Yalll,
            4 | 5 => SourceLang::Simpl,
            _ => SourceLang::Empl,
        }
    }

    /// The kernel's source for machine `m`: the suite's text with these
    /// constants substituted.
    pub fn source(&self, m: &MachineDesc) -> String {
        let g = gp(m);
        match *self {
            Params::Popcount { x } => format!(
                "\
reg x = {g}0
reg n = {g}1
reg bit = {g}2
const x, {x:#X}
const n, 0
loop: jump done if x = 0
    move bit, x
    and bit, bit, 1
    add n, n, bit
    shr x, x, 1
    jump loop
done: exit n
"
            ),
            Params::Gcd { a, b } => format!(
                "\
reg a = {g}0
reg b = {g}1
reg t = {g}2
const a, {a}
const b, {b}
loop: jump done if b = 0
    jump swap if a < b
    sub a, a, b
    jump loop
swap: move t, a
    move a, b
    move b, t
    jump loop
done: exit a
"
            ),
            Params::Memcpy { src, dst, n } => format!(
                "\
reg src = {g}0
reg dst = {g}1
reg n = {g}2
reg t = {g}3
const src, {src:#X}
const dst, {dst:#X}
const n, {n}
loop: jump done if n = 0
    load t, src
    stor t, dst
    add src, src, 1
    add dst, dst, 1
    sub n, n, 1
    jump loop
done: exit t
"
            ),
            Params::Fib { a, b } => format!(
                "\
reg a = {g}0
reg b = {g}1
reg t = {g}2
reg n = {g}3
const a, {a}
const b, {b}
const n, 14
loop: jump done if n = 0
    move t, b
    add b, a, b
    move a, t
    sub n, n, 1
    jump loop
done: exit a
"
            ),
            Params::Bitrev { w } => format!(
                "\
program bitrev;
begin
    {w:#X} -> {g}1;
    0 -> {g}2;
    16 -> {g}3;
    while {g}3 <> 0 do
    begin
        {g}2 shl 1 -> {g}2;
        {g}1 shr 1 -> {g}1;
        if UF = 1 then {g}2 | 1 -> {g}2;
        {g}3 - 1 -> {g}3;
    end;
end"
            ),
            Params::Lcg { x } => format!(
                "\
program lcg;
begin
    {x} -> {g}1;
    20 -> {g}2;
    while {g}2 <> 0 do
    begin
        comment x times 5 plus 1 via shifts;
        {g}1 shl 2 -> {g}3;
        {g}1 + {g}3 -> {g}1;
        {g}1 + 1 -> {g}1;
        {g}2 - 1 -> {g}2;
    end;
end"
            ),
            Params::TableSum { vals } => {
                let table: Vec<String> = vals
                    .iter()
                    .enumerate()
                    .map(|(i, v)| format!("A({i}) = {v};"))
                    .collect();
                format!(
                    "DECLARE A(8) FIXED; DECLARE I FIXED; DECLARE S FIXED; DECLARE T FIXED;
I = 0; S = 0;
{}
WHILE I < 8 DO;
  T = A(I);
  S = S + T;
  I = I + 1;
END;
",
                    table.join(" ")
                )
            }
            Params::Mul { x, y } => format!(
                "DECLARE X FIXED; DECLARE Y FIXED; DECLARE Z FIXED; X = {x}; Y = {y}; Z = X * Y;"
            ),
        }
    }

    /// Prepares simulator memory before the run.
    pub fn setup(&self, sim: &mut Simulator) {
        if let Params::Memcpy { src, .. } = *self {
            for i in 0..MEMCPY_WORDS {
                sim.set_mem(src + i, memcpy_word(i));
            }
        }
    }

    /// The observable result after the run; `None` when a symbol the
    /// kernel reports through is missing from the artifact.
    pub fn result(&self, art: &Artifact, sim: &Simulator) -> Option<u64> {
        let m = &art.machine;
        match *self {
            Params::Popcount { .. } => art.read_symbol(sim, "n"),
            Params::Gcd { .. } | Params::Fib { .. } => art.read_symbol(sim, "a"),
            Params::Memcpy { dst, .. } => {
                Some((0..MEMCPY_WORDS).map(|i| sim.mem(dst + i)).sum::<u64>() & 0xFFFF)
            }
            Params::Bitrev { .. } => Some(sim.reg(gp_reg(m, 2))),
            Params::Lcg { .. } => Some(sim.reg(gp_reg(m, 1))),
            Params::TableSum { .. } => art.read_symbol(sim, "S"),
            Params::Mul { .. } => art.read_symbol(sim, "Z"),
        }
    }

    /// The expected result on machine `m`, computed in Rust.
    pub fn expected(&self, m: &MachineDesc) -> u64 {
        let mask = width_mask(m);
        match *self {
            Params::Popcount { x } => u64::from(x.count_ones()),
            Params::Gcd { a, b } => gcd(a, b),
            Params::Memcpy { n, .. } => (0..n).map(memcpy_word).sum::<u64>() & 0xFFFF,
            Params::Fib { a, b } => {
                let (mut a, mut b) = (a, b);
                for _ in 0..14 {
                    (a, b) = (b, (a + b) & mask);
                }
                a
            }
            Params::Bitrev { w } => u64::from((w as u16).reverse_bits()),
            Params::Lcg { x } => {
                let mut x = x;
                for _ in 0..20 {
                    x = (x * 5 + 1) & mask;
                }
                x
            }
            Params::TableSum { vals } => vals.iter().sum(),
            Params::Mul { x, y } => x * y,
        }
    }
}

/// One program: kernel constants, machine and algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Program {
    /// The kernel and its constants.
    pub params: Params,
    /// Index into [`MACHINES`].
    pub machine: usize,
    /// Index into [`ALGOS`].
    pub algo: usize,
}

impl Program {
    /// Loads, runs and checks `art` (a compile of this program): the cycle
    /// count on success, a description of the disagreement otherwise.
    ///
    /// # Errors
    ///
    /// A simulator error, a missing result symbol, or a wrong result.
    pub fn run_checked(&self, art: &Artifact) -> Result<SimStats, String> {
        let mut sim = art.simulator();
        self.params.setup(&mut sim);
        let stats = sim
            .run(&SimOptions {
                max_cycles: MAX_CYCLES,
                ..SimOptions::default()
            })
            .map_err(|e| format!("{}: simulation failed: {e}", self.describe()))?;
        let got = self.params.result(art, &sim);
        let want = self.params.expected(&art.machine);
        if got != Some(want) {
            return Err(format!(
                "{}: computed {got:?}, expected {want}",
                self.describe()
            ));
        }
        Ok(stats)
    }

    /// A short human-readable name for diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "{} on {} ({}) {:?}",
            KERNELS[self.params.kernel()],
            MACHINES[self.machine],
            ALGOS[self.algo],
            self.params
        )
    }
}

/// The 64 reference programs, machine-major, then kernel, then algorithm.
pub fn reference_programs() -> Vec<Program> {
    let mut out = Vec::with_capacity(REFERENCE_COUNT);
    for machine in 0..MACHINES.len() {
        for k in 0..KERNELS.len() {
            for algo in 0..ALGOS.len() {
                out.push(Program {
                    params: Params::suite(k),
                    machine,
                    algo,
                });
            }
        }
    }
    out
}

/// splitmix64: a small, fast, seedable generator with a fixed output
/// sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` under `seed`; distinct streams of one seed
    /// are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// An index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws programs that never repeat: not each other, and not any
/// reference program.
pub struct Drawer {
    rng: Rng,
    seen: HashSet<Program>,
}

impl Drawer {
    /// A drawer for `seed`.
    pub fn new(seed: u64) -> Drawer {
        Drawer {
            rng: Rng::new(seed, 1),
            seen: reference_programs().into_iter().collect(),
        }
    }

    /// A new program of one class — an index into [`reference_programs`],
    /// naming kernel, machine and algorithm — with constants drawn from the
    /// kernel's ranges, redrawn on a repeat.
    pub fn draw_class(&mut self, class: usize) -> Program {
        let (machine, k, algo) = (
            class / (KERNELS.len() * ALGOS.len()),
            class / ALGOS.len() % KERNELS.len(),
            class % ALGOS.len(),
        );
        loop {
            let p = Program {
                params: Params::draw(k, &mut self.rng),
                machine,
                algo,
            };
            if self.seen.insert(p) {
                return p;
            }
        }
    }

    /// Shuffles `classes` in place with the drawer's generator.
    fn shuffle(&mut self, classes: &mut [usize]) {
        for i in (1..classes.len()).rev() {
            classes.swap(i, self.rng.below(i + 1));
        }
    }
}

/// Deals program classes so that every class comes up once per round of
/// [`REFERENCE_COUNT`] cold requests, in a seeded order: the mix of
/// kernels, machines and algorithms is then the same in every run, and
/// only the drawn constants differ between seeds.
struct Deck {
    classes: Vec<usize>,
    at: usize,
}

impl Deck {
    fn new() -> Deck {
        Deck {
            classes: (0..REFERENCE_COUNT).collect(),
            at: REFERENCE_COUNT,
        }
    }

    fn deal(&mut self, drawer: &mut Drawer) -> Program {
        if self.at == self.classes.len() {
            drawer.shuffle(&mut self.classes);
            self.at = 0;
        }
        self.at += 1;
        drawer.draw_class(self.classes[self.at - 1])
    }
}

/// One request of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// A reference program, by index into [`reference_programs`]: warm in
    /// the fleet once set-up has run.
    Hot(usize),
    /// A new program.
    Cold(Program),
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cold compiles in-process: cache miss, passes, encoder, simulator.
    CompileCold,
    /// Memory-tier hits through a real fleet.
    FleetHot,
    /// The fleet with one request in five a new program.
    FleetMixed,
}

impl Workload {
    /// All workloads, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::CompileCold,
        Workload::FleetHot,
        Workload::FleetMixed,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile_cold",
            Workload::FleetHot => "fleet_hot",
            Workload::FleetMixed => "fleet_mixed",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// In `fleet_mixed`, one request in this many is a new program.
pub const MIXED_COLD_EVERY: usize = 5;

/// A run's requests: the warm-up, then the measured phase. A pure
/// function of the workload, the seed and the two lengths; no program is
/// drawn twice across both lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Requests sent before timing starts.
    pub warmup: Vec<Req>,
    /// Requests sent in the measured phase.
    pub measured: Vec<Req>,
}

impl Schedule {
    /// The schedule of `workload` under `seed`: `measured` requests in the
    /// measured phase, after `warmup` requests of the same mix.
    pub fn new(workload: Workload, seed: u64, warmup: usize, measured: usize) -> Schedule {
        let mut drawer = Drawer::new(seed);
        let mut deck = Deck::new();
        let mut picks = Rng::new(seed, 2);
        let mut slots = Rng::new(seed, 3);
        let mut mix = |n: usize| -> Vec<Req> {
            let mut out = Vec::with_capacity(n);
            let mut cold_slot = 0;
            for i in 0..n {
                let cold = match workload {
                    Workload::CompileCold => true,
                    Workload::FleetHot => false,
                    Workload::FleetMixed => {
                        if i % MIXED_COLD_EVERY == 0 {
                            cold_slot = slots.below(MIXED_COLD_EVERY);
                        }
                        i % MIXED_COLD_EVERY == cold_slot
                    }
                };
                out.push(if cold {
                    Req::Cold(deck.deal(&mut drawer))
                } else {
                    Req::Hot(picks.below(REFERENCE_COUNT))
                });
            }
            out
        };
        let measured = mix(measured);
        let warmup = mix(warmup);
        Schedule { warmup, measured }
    }
}
