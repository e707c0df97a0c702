//! # `mcc-core` — the compilation pipeline
//!
//! Ties the toolkit together: one [`Compiler`] object drives
//!
//! ```text
//! source ─(frontend)→ MIR ─(legalize)→ MIR ─(insert_polls)→ MIR
//!        ─(regalloc)→ MIR ─(select)→ bound µops ─(compact)→ µinstrs
//!        ─(emit)→ MicroProgram ─(encode / simulate)
//! ```
//!
//! plus the §2.1.5 facilities no surveyed language implemented: automatic
//! interrupt poll-point insertion and the microtrap restart-safety
//! analysis that catches the paper's `incread` double-increment bug.

pub mod autoverify;
pub mod emit;
pub mod passes;

use std::cell::Cell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};

use mcc_compact::Algorithm;
use mcc_lang::FrontendLimits;
use mcc_machine::{ConflictModel, MachineDesc, MicroProgram};
use mcc_mir::operand::VReg;
use mcc_mir::MirFunction;
use mcc_regalloc::{AllocOptions, AllocReport, Location};
use mcc_sim::{SimOptions, SimStats, Simulator};

pub use autoverify::{block_assigns, check_block};
pub use passes::{insert_polls, mark_dead_flags, thread_jumps, trap_safety, Warning};

/// One of the four surveyed source languages, for dispatch by name
/// (CLI `--lang`, fuzzing campaigns, experiment tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SourceLang {
    /// SIMPL (§2.2.1) — registers as variables.
    Simpl,
    /// EMPL (§2.2.2) — symbolic variables, extensible operators.
    Empl,
    /// S* (§2.2.3) — machine-parameterized schema.
    Sstar,
    /// YALLL (§2.2.4) — line-based micro-assembly.
    Yalll,
}

impl SourceLang {
    /// All four frontends, in survey order.
    pub const ALL: [SourceLang; 4] = [
        SourceLang::Simpl,
        SourceLang::Empl,
        SourceLang::Sstar,
        SourceLang::Yalll,
    ];

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            SourceLang::Simpl => "simpl",
            SourceLang::Empl => "empl",
            SourceLang::Sstar => "sstar",
            SourceLang::Yalll => "yalll",
        }
    }

    /// Parses a language name (canonical names and common file
    /// extensions, case-insensitive) without allocating.
    pub fn from_name(s: &str) -> Option<SourceLang> {
        const NAMES: [(SourceLang, &[&str]); 4] = [
            (SourceLang::Simpl, &["simpl", "sim"]),
            (SourceLang::Empl, &["empl", "emp"]),
            (SourceLang::Sstar, &["sstar", "ss", "s*"]),
            (SourceLang::Yalll, &["yalll", "yll"]),
        ];
        NAMES
            .iter()
            .find(|(_, names)| names.iter().any(|n| n.eq_ignore_ascii_case(s)))
            .map(|&(lang, _)| lang)
    }
}

impl std::fmt::Display for SourceLang {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic resource budgets for the whole pipeline. Every limit is
/// a count, not a timeout, so exhaustion is reproducible byte-for-byte
/// across machines — a requirement for the differential fuzzer.
#[derive(Debug, Clone, Copy)]
pub struct ResourceLimits {
    /// Frontend limits (source size, token budget, nesting depth).
    pub frontend: FrontendLimits,
    /// Maximum MIR operations after any pipeline stage; bounds the work
    /// done by legalisation, allocation, selection and compaction.
    pub max_mir_ops: usize,
    /// Maximum basic blocks after any pipeline stage.
    pub max_blocks: usize,
}

impl Default for ResourceLimits {
    fn default() -> Self {
        ResourceLimits {
            frontend: FrontendLimits::default(),
            max_mir_ops: 1_000_000,
            max_blocks: 250_000,
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct CompilerOptions {
    /// Compaction algorithm.
    pub algorithm: Algorithm,
    /// Conflict model for compaction and validation.
    pub model: ConflictModel,
    /// Register allocation options.
    pub alloc: AllocOptions,
    /// When set, insert an interrupt poll point at every loop header and
    /// every `n` straight-line operations (§2.1.5).
    pub poll_interval: Option<usize>,
    /// Deterministic node budget for the exact branch-and-bound search;
    /// exhaustion degrades gracefully instead of hanging the compiler.
    pub bb_budget: u64,
    /// Resource budgets for the frontends and the pipeline proper.
    pub limits: ResourceLimits,
}

impl Default for CompilerOptions {
    fn default() -> Self {
        CompilerOptions {
            algorithm: Algorithm::CriticalPath,
            model: ConflictModel::Fine,
            alloc: AllocOptions::default(),
            poll_interval: None,
            bb_budget: mcc_compact::BB_DEFAULT_BUDGET,
            limits: ResourceLimits::default(),
        }
    }
}

/// Anything the pipeline can fail with.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Frontend syntax/semantic error (message carries position info).
    Language(String),
    /// Malformed MIR.
    Mir(mcc_mir::func::MirError),
    /// The machine cannot express the program.
    Legalize(mcc_mir::LegalizeError),
    /// Register allocation failed.
    Alloc(mcc_regalloc::AllocError),
    /// Instruction selection failed.
    Select(mcc_mir::SelectError),
    /// Binary encoding failed.
    Encode(mcc_machine::EncodeError),
    /// A deterministic resource budget was exhausted ([`ResourceLimits`]).
    Limit {
        /// What ran out (e.g. `"mir operations"`).
        what: &'static str,
        /// The configured ceiling.
        limit: usize,
    },
    /// A pipeline pass panicked; the panic was contained at the pipeline
    /// boundary ([`Compiler::compile_contained`]) and converted into this
    /// structured error naming the offending pass.
    Internal {
        /// The pass that was running when the panic fired.
        pass: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Language(s) => write!(f, "language error: {s}"),
            CompileError::Mir(e) => write!(f, "mir error: {e}"),
            CompileError::Legalize(e) => write!(f, "legalize error: {e}"),
            CompileError::Alloc(e) => write!(f, "allocation error: {e}"),
            CompileError::Select(e) => write!(f, "selection error: {e}"),
            CompileError::Encode(e) => write!(f, "encode error: {e}"),
            CompileError::Limit { what, limit } => {
                write!(f, "resource limit exceeded: {what} over the {limit} ceiling")
            }
            CompileError::Internal { pass, message } => {
                write!(f, "internal error in pass `{pass}`: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

impl From<mcc_mir::func::MirError> for CompileError {
    fn from(e: mcc_mir::func::MirError) -> Self {
        CompileError::Mir(e)
    }
}
impl From<mcc_mir::LegalizeError> for CompileError {
    fn from(e: mcc_mir::LegalizeError) -> Self {
        CompileError::Legalize(e)
    }
}
impl From<mcc_regalloc::AllocError> for CompileError {
    fn from(e: mcc_regalloc::AllocError) -> Self {
        CompileError::Alloc(e)
    }
}
impl From<mcc_mir::SelectError> for CompileError {
    fn from(e: mcc_mir::SelectError) -> Self {
        CompileError::Select(e)
    }
}
impl From<mcc_machine::EncodeError> for CompileError {
    fn from(e: mcc_machine::EncodeError) -> Self {
        CompileError::Encode(e)
    }
}

thread_local! {
    /// The pipeline stage currently executing, so a contained panic can be
    /// attributed to the pass that raised it.
    static CURRENT_PASS: Cell<&'static str> = const { Cell::new("frontend") };
}

/// What [`Compiler::compile_source`] takes from a frontend beside the
/// lowered function.
#[derive(Default)]
struct Names {
    /// Named operands that become artifact symbols, attached in order.
    symbols: Vec<(String, mcc_mir::Operand)>,
    /// Memory-resident arrays: name → (base address, length).
    memory: HashMap<String, (u64, u64)>,
    /// S\* `cobegin` blocks, each of which must fit one microinstruction.
    cogroups: Vec<mcc_mir::BlockId>,
}

fn set_pass(pass: &'static str) {
    CURRENT_PASS.with(|c| c.set(pass));
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` with panics converted into [`CompileError::Internal`] naming
/// the pass recorded by the pipeline's `set_pass` breadcrumbs.
///
/// `AssertUnwindSafe` is sound here because the closure's state is
/// discarded wholesale on unwind — nothing half-mutated outlives the call.
fn contain<T>(f: impl FnOnce() -> Result<T, CompileError>) -> Result<T, CompileError> {
    set_pass("frontend");
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(CompileError::Internal {
            pass: CURRENT_PASS.with(|c| c.get()),
            message: panic_message(payload),
        }),
    }
}

/// Compilation statistics for the experiment tables.
#[derive(Debug, Clone, Default)]
pub struct CompileStats {
    /// Abstract operations after legalisation.
    pub mir_ops: usize,
    /// Microinstructions emitted (code size, experiment E1).
    pub micro_instrs: usize,
    /// Micro-operations packed.
    pub micro_ops: usize,
    /// Virtual registers spilled.
    pub spills: usize,
    /// Spill fills/stores inserted.
    pub spill_moves: usize,
    /// Poll points inserted.
    pub polls: usize,
    /// Operations whose flag writes were proven dead (freeing flag-free
    /// template variants for packing).
    pub dead_flags: usize,
    /// The compaction algorithm that finally produced the schedule — the
    /// requested one, or whatever the degradation chain fell back to
    /// (`"sequential"` at the bottom).
    pub algorithm_used: String,
    /// Degradation events recorded during emission, one per fallback step
    /// (empty when every block compacted with the requested algorithm).
    pub degradations: Vec<String>,
    /// Wall-clock nanoseconds spent per pipeline pass, in execution order
    /// (passes that run twice, like `legalize`, are merged). Diagnostic
    /// only: never printed in experiment tables and never part of a cached
    /// artifact's identity, so warm and cold runs stay byte-identical.
    pub pass_nanos: Vec<(&'static str, u64)>,
    /// `Some(tier)` when this artifact was served by `mcc-cache`
    /// (`"memory"` or `"disk"`) rather than compiled; `None` on a cold
    /// compile. Diagnostic only, like [`pass_nanos`](Self::pass_nanos).
    pub cached: Option<&'static str>,
}

impl CompileStats {
    /// Records wall-clock time spent in `pass` since `started`, merging
    /// into an existing entry when the pass already ran once.
    pub fn note_pass(&mut self, pass: &'static str, started: std::time::Instant) {
        let ns = started.elapsed().as_nanos() as u64;
        if let Some(e) = self.pass_nanos.iter_mut().find(|(p, _)| *p == pass) {
            e.1 += ns;
        } else {
            self.pass_nanos.push((pass, ns));
        }
    }

    /// Mean micro-operations per microinstruction.
    pub fn packing_ratio(&self) -> f64 {
        if self.micro_instrs == 0 {
            0.0
        } else {
            self.micro_ops as f64 / self.micro_instrs as f64
        }
    }
}

/// The output of a compilation.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The machine compiled for, shared with the [`Compiler`] that built
    /// it and with every simulator it loads.
    pub machine: Arc<MachineDesc>,
    /// The microprogram (block-structured; flatten to get a control store).
    pub program: MicroProgram,
    /// Where each symbolic variable's virtual register ended up.
    pub locations: HashMap<VReg, Location>,
    /// Source-level names resolved to final locations (populated by the
    /// language entry points; empty for raw [`Compiler::compile_mir`]).
    pub symbols: HashMap<String, Location>,
    /// Source-level arrays resolved to memory regions `(base, length)`.
    pub memory_symbols: HashMap<String, (u64, u64)>,
    /// Trap-safety and other warnings.
    pub warnings: Vec<Warning>,
    /// Pipeline statistics.
    pub stats: CompileStats,
}

impl Artifact {
    /// Resolves a source operand to its final location.
    pub fn locate(&self, op: mcc_mir::Operand) -> Option<Location> {
        match op {
            mcc_mir::Operand::Reg(r) => Some(Location::Reg(r)),
            mcc_mir::Operand::Vreg(v) => self.locations.get(&v).copied(),
        }
    }

    /// Reads the value of a named symbol from a finished simulator.
    ///
    /// Returns `None` when the symbol is unknown or was optimised away.
    pub fn read_symbol(&self, sim: &Simulator, name: &str) -> Option<u64> {
        match self.symbols.get(name)? {
            Location::Reg(r) | Location::Scratch(r) => Some(sim.reg(*r)),
            Location::Mem(a) => Some(sim.mem(*a)),
        }
    }

    /// Encodes the program into control-store words.
    ///
    /// # Errors
    ///
    /// Propagates [`mcc_machine::EncodeError`].
    pub fn encode(&self) -> Result<Vec<u128>, mcc_machine::EncodeError> {
        mcc_machine::encode_program(&self.machine, &self.program)
    }

    /// Loads the program into a fresh simulator.
    pub fn simulator(&self) -> Simulator {
        Simulator::new(Arc::clone(&self.machine), &self.program)
    }

    /// Runs the program to halt with default options.
    ///
    /// # Errors
    ///
    /// Propagates [`mcc_sim::SimError`].
    pub fn run(&self) -> Result<(Simulator, SimStats), mcc_sim::SimError> {
        self.run_with(&SimOptions::default())
    }

    /// Runs the program under the given simulation options.
    ///
    /// # Errors
    ///
    /// Propagates [`mcc_sim::SimError`].
    pub fn run_with(&self, opts: &SimOptions) -> Result<(Simulator, SimStats), mcc_sim::SimError> {
        let mut s = self.simulator();
        let stats = s.run(opts)?;
        Ok((s, stats))
    }
}

/// The compiler: a machine plus pipeline options, both fixed at
/// construction.
#[derive(Debug, Clone)]
pub struct Compiler {
    machine: Arc<MachineDesc>,
    options: CompilerOptions,
    /// One slot per [`SourceLang`] for `mcc-cache`'s key prefix of
    /// (machine, language, options), filled on first use.
    key_prefixes: [OnceLock<u128>; SourceLang::ALL.len()],
}

impl Compiler {
    /// A compiler for `machine` with default options.
    pub fn new(machine: impl Into<Arc<MachineDesc>>) -> Self {
        Self::with_options(machine, CompilerOptions::default())
    }

    /// A compiler with explicit options.
    pub fn with_options(machine: impl Into<Arc<MachineDesc>>, options: CompilerOptions) -> Self {
        Compiler {
            machine: machine.into(),
            options,
            key_prefixes: Default::default(),
        }
    }

    /// The target machine.
    pub fn machine(&self) -> &MachineDesc {
        &self.machine
    }

    /// The target machine as the handle every artifact of this compiler
    /// shares.
    pub fn shared_machine(&self) -> &Arc<MachineDesc> {
        &self.machine
    }

    /// The pipeline options.
    pub fn options(&self) -> &CompilerOptions {
        &self.options
    }

    /// The cache-key prefix of this compiler's machine and options for
    /// `lang`: `derive`'s value on the first call for `lang`, and that
    /// value on every later one. The machine and options never change
    /// after construction, so the memo never goes stale.
    /// `mcc_cache::key_for` is the one caller, which keeps the derivation
    /// in `mcc-cache`.
    pub fn key_prefix(&self, lang: SourceLang, derive: impl FnOnce() -> u128) -> u128 {
        *self.key_prefixes[lang as usize].get_or_init(derive)
    }

    /// Compiles a MIR function through the whole pipeline.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_mir(&self, mut f: MirFunction) -> Result<Artifact, CompileError> {
        use std::time::Instant;
        let mut stats = CompileStats::default();

        set_pass("validate");
        let t = Instant::now();
        f.validate()?;
        self.check_size(&f)?;
        stats.note_pass("validate", t);
        set_pass("legalize");
        let t = Instant::now();
        mcc_mir::legalize(&self.machine, &mut f)?;
        f.validate()?;
        self.check_size(&f)?;
        stats.note_pass("legalize", t);
        set_pass("thread_jumps");
        let t = Instant::now();
        passes::thread_jumps(&mut f);
        stats.note_pass("thread_jumps", t);

        if let Some(n) = self.options.poll_interval {
            set_pass("insert_polls");
            let t = Instant::now();
            stats.polls = passes::insert_polls(&mut f, n);
            self.check_size(&f)?;
            stats.note_pass("insert_polls", t);
        }

        set_pass("regalloc");
        let t = Instant::now();
        let report: AllocReport = mcc_regalloc::allocate(&self.machine, &mut f, &self.options.alloc)?;
        stats.spills = report.spilled;
        stats.spill_moves = report.spill_moves;
        stats.note_pass("regalloc", t);
        // Spill code may introduce operations that still need legalising
        // on narrow machines (wide spill addresses); one more round is
        // always enough because spill addresses fit the immediate path.
        set_pass("legalize");
        let t = Instant::now();
        mcc_mir::legalize(&self.machine, &mut f)?;
        self.check_size(&f)?;
        stats.note_pass("legalize", t);
        if f.has_virtual_regs() {
            // Legalisation after spilling created scratch vregs; allocate
            // them too (no further spilling expected).
            set_pass("regalloc");
            let t = Instant::now();
            let r2 = mcc_regalloc::allocate(&self.machine, &mut f, &self.options.alloc)?;
            stats.spills += r2.spilled;
            stats.spill_moves += r2.spill_moves;
            stats.note_pass("regalloc", t);
        }

        set_pass("trap_safety");
        let t = Instant::now();
        let warnings = passes::trap_safety(&self.machine, &f);
        stats.mir_ops = f.op_count();
        stats.note_pass("trap_safety", t);
        set_pass("mark_dead_flags");
        let t = Instant::now();
        stats.dead_flags = passes::mark_dead_flags(&mut f);
        stats.note_pass("mark_dead_flags", t);

        set_pass("select");
        let t = Instant::now();
        let selected = mcc_mir::select_function(&self.machine, &f)?;
        stats.note_pass("select", t);
        set_pass("compact");
        let t = Instant::now();
        let (program, emitted) = emit::emit(
            &self.machine,
            &selected,
            self.options.algorithm,
            self.options.model,
            self.options.bb_budget,
        );
        stats.note_pass("compact", t);
        stats.micro_instrs = program.instr_count();
        stats.micro_ops = program.op_count();
        stats.algorithm_used = emitted.algorithm_used;
        stats.degradations = emitted.degradations;

        Ok(Artifact {
            machine: Arc::clone(&self.machine),
            program,
            locations: report.locations,
            symbols: HashMap::new(),
            memory_symbols: HashMap::new(),
            warnings,
            stats,
        })
    }

    /// Checks the MIR against the pipeline's deterministic size budgets.
    fn check_size(&self, f: &MirFunction) -> Result<(), CompileError> {
        let lim = &self.options.limits;
        if f.op_count() > lim.max_mir_ops {
            return Err(CompileError::Limit {
                what: "mir operations",
                limit: lim.max_mir_ops,
            });
        }
        if f.blocks.len() > lim.max_blocks {
            return Err(CompileError::Limit {
                what: "basic blocks",
                limit: lim.max_blocks,
            });
        }
        Ok(())
    }

    /// Compiles a SIMPL program (§2.2.1 of the survey).
    ///
    /// SIMPL variables are machine registers, so symbols resolve directly.
    ///
    /// # Errors
    ///
    /// See [`compile_source`](Self::compile_source).
    pub fn compile_simpl(&self, src: &str) -> Result<Artifact, CompileError> {
        self.compile_source(SourceLang::Simpl, src)
    }

    /// Compiles a YALLL program (§2.2.4). Declared register names become
    /// artifact symbols.
    ///
    /// # Errors
    ///
    /// See [`compile_source`](Self::compile_source).
    pub fn compile_yalll(&self, src: &str) -> Result<Artifact, CompileError> {
        self.compile_source(SourceLang::Yalll, src)
    }

    /// Compiles an EMPL program (§2.2.2). Global variables (including type
    /// instance fields as `INSTANCE.FIELD`) become symbols; arrays become
    /// memory symbols. The special symbol `"ERROR"` holds the error flag.
    ///
    /// # Errors
    ///
    /// See [`compile_source`](Self::compile_source).
    pub fn compile_empl(&self, src: &str) -> Result<Artifact, CompileError> {
        self.compile_source(SourceLang::Empl, src)
    }

    /// Compiles an S\* program (§2.2.3) and *verifies the explicit
    /// parallelism*: every `cobegin … coend` group must fit one
    /// microinstruction on this machine, otherwise compilation fails —
    /// S\* programmers specify composition, the compiler only checks it.
    /// The special symbol `"ASSERT"` holds the runtime assertion flag
    /// (0 = all passed).
    ///
    /// # Errors
    ///
    /// See [`compile_source`](Self::compile_source).
    pub fn compile_sstar(&self, src: &str) -> Result<Artifact, CompileError> {
        self.compile_source(SourceLang::Sstar, src)
    }

    /// Compiles source text in the named language: the one path from a
    /// frontend to an artifact. The frontend's time is the `frontend`
    /// pass, and the program's named operands become artifact symbols.
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; frontend diagnostics arrive as
    /// [`CompileError::Language`] with line/column prefixes, and so does
    /// an S\* `cobegin` group that needs more than one microinstruction.
    pub fn compile_source(&self, lang: SourceLang, src: &str) -> Result<Artifact, CompileError> {
        set_pass("frontend");
        let t = std::time::Instant::now();
        let (m, limits) = (&*self.machine, &self.options.limits.frontend);
        let lowered = match lang {
            SourceLang::Simpl => {
                mcc_simpl::parse_with_limits(src, m, limits).map(|p| (p.func, Names::default()))
            }
            SourceLang::Yalll => mcc_yalll::parse_with_limits(src, m, limits).map(|p| {
                let symbols = p.bindings.into_iter().collect();
                (p.func, Names { symbols, ..Names::default() })
            }),
            SourceLang::Empl => mcc_empl::compile_with_limits(src, limits).map(|p| {
                let error = ("ERROR".to_string(), p.error_flag);
                let symbols = p.globals.into_iter().chain([error]).collect();
                (p.func, Names { symbols, memory: p.arrays, ..Names::default() })
            }),
            SourceLang::Sstar => mcc_sstar::parse_with_limits(src, m, limits).map(|p| {
                let flag = p.assert_flag.map(|f| ("ASSERT".to_string(), f));
                let symbols = p.vars.into_iter().chain(flag).collect();
                (p.func, Names { symbols, cogroups: p.cogroups, ..Names::default() })
            }),
        };
        let (func, names) = lowered.map_err(|e| CompileError::Language(e.render_excerpt(src)))?;
        let fe = t.elapsed().as_nanos() as u64;
        let mut art = self.compile_mir(func)?;
        art.stats.pass_nanos.insert(0, ("frontend", fe));
        for g in names.cogroups {
            let n = art.program.blocks[g as usize].instrs.len();
            // The group block holds its ops plus an elidable jump; more
            // than one instruction means the hardware could not take the
            // whole group in one cycle.
            if n > 1 {
                return Err(CompileError::Language(format!(
                    "cobegin group at block b{g} needs {n} microinstructions on {}; \
                     the statements cannot be co-scheduled",
                    self.machine.name
                )));
            }
        }
        for (name, op) in names.symbols {
            if let Some(loc) = art.locate(op) {
                art.symbols.insert(name, loc);
            }
        }
        art.memory_symbols = names.memory;
        Ok(art)
    }

    /// [`compile_source`](Self::compile_source) behind a panic boundary:
    /// any residual panic in a pipeline pass is caught and converted into
    /// [`CompileError::Internal`] naming the pass, so feeding the compiler
    /// arbitrary bytes always terminates with a structured error. The
    /// frontends' resource budgets ([`ResourceLimits`]) are what make this
    /// guarantee real — `catch_unwind` cannot contain a stack overflow, so
    /// the depth limits must prevent one from ever happening.
    ///
    /// # Errors
    ///
    /// See [`CompileError`].
    pub fn compile_contained(&self, lang: SourceLang, src: &str) -> Result<Artifact, CompileError> {
        contain(|| self.compile_source(lang, src))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{bx2, hm1, vm1, wm64};
    use mcc_machine::{AluOp, CondKind, RegRef};
    use mcc_mir::{FuncBuilder, Term};

    /// End-to-end: sum 1..=5 with symbolic variables on every machine.
    #[test]
    fn sum_compiles_and_runs_everywhere() {
        for m in [hm1(), vm1(), bx2(), wm64()] {
            let mut b = FuncBuilder::new("sum");
            let i = b.vreg();
            let acc = b.vreg();
            b.ldi(i, 5);
            b.ldi(acc, 0);
            let head = b.new_block();
            let body = b.new_block();
            let done = b.new_block();
            b.jump_and_switch(head);
            b.alu_un(AluOp::Pass, i, i);
            b.branch(CondKind::Zero, done, body);
            b.switch_to(body);
            b.alu(AluOp::Add, acc, acc, i);
            b.alu_imm(AluOp::Sub, i, i, 1);
            b.terminate(Term::Jump(head));
            b.switch_to(done);
            b.mark_live_out(acc);
            b.terminate(Term::Halt);
            let f = b.finish();

            let c = Compiler::new(m.clone());
            let art = c.compile_mir(f).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            let (sim, stats) = art.run().unwrap();
            // Find where acc ended up and check the value.
            let loc = art.locations[&acc];
            let v = match loc {
                Location::Reg(r) | Location::Scratch(r) => sim.reg(r),
                Location::Mem(a) => sim.mem(a),
            };
            assert_eq!(v, 15, "{}", m.name);
            assert!(stats.cycles > 0);
            // The binary encodes and decodes.
            let words = art.encode().unwrap();
            assert_eq!(words.len(), art.program.instr_count());
        }
    }

    /// The same program takes more instructions on the vertical machine.
    #[test]
    fn vertical_code_is_longer() {
        let build = || {
            let mut b = FuncBuilder::new("k");
            let x = b.vreg();
            let y = b.vreg();
            let z = b.vreg();
            b.ldi(x, 3);
            b.ldi(y, 4);
            b.alu(AluOp::Add, z, x, y);
            b.alu(AluOp::Xor, x, x, y);
            b.mark_live_out(z);
            b.mark_live_out(x);
            b.terminate(Term::Halt);
            b.finish()
        };
        let h = Compiler::new(hm1()).compile_mir(build()).unwrap();
        let v = Compiler::new(vm1()).compile_mir(build()).unwrap();
        assert!(
            v.program.instr_count() >= h.program.instr_count(),
            "vertical {} vs horizontal {}",
            v.program.instr_count(),
            h.program.instr_count()
        );
    }

    #[test]
    fn trap_safety_warning_on_incread() {
        // The paper's incread: reg[n] := reg[n]+1; mbr := readmem(reg[n]).
        let m = hm1();
        let r0 = RegRef::new(m.find_file("R").unwrap(), 0);
        let mut b = FuncBuilder::new("incread");
        let r0 = mcc_mir::Operand::Reg(r0);
        b.alu_un(AluOp::Inc, r0, r0);
        let d = b.vreg();
        b.load(d, r0);
        b.mark_live_out(d);
        b.terminate(Term::Halt);
        let art = Compiler::new(m).compile_mir(b.finish()).unwrap();
        assert!(
            art.warnings.iter().any(|w| w.message.contains("restart")),
            "expected a trap-safety warning, got {:?}",
            art.warnings
        );
    }

    /// A straight-line block far over the exact-search size limit still
    /// compiles under `Algorithm::BranchBound`: the degradation chain
    /// falls back to list scheduling, the artifact records which
    /// algorithm actually produced the code, and the result is correct.
    #[test]
    fn oversize_block_compiles_via_degradation_chain() {
        let c = Compiler::with_options(
            hm1(),
            CompilerOptions { algorithm: Algorithm::BranchBound, ..Default::default() },
        );
        let mut b = FuncBuilder::new("big");
        let a = b.vreg();
        b.ldi(a, 1);
        for _ in 0..21 {
            b.alu_imm(AluOp::Add, a, a, 1);
        }
        b.mark_live_out(a);
        b.terminate(Term::Halt);
        let f = b.finish();
        assert!(f.blocks[0].ops.len() >= 20, "crafted block must be ≥20 ops");
        let art = c.compile_mir(f).unwrap();
        assert_eq!(art.stats.algorithm_used, "critpath", "degraded to list scheduling");
        assert!(
            art.stats.degradations.iter().any(|d| d.contains("exceed")),
            "degradation recorded: {:?}",
            art.stats.degradations
        );
        let (sim, _) = art.run().unwrap();
        let v = match art.locations[&a] {
            Location::Reg(r) | Location::Scratch(r) => sim.reg(r),
            Location::Mem(addr) => sim.mem(addr),
        };
        assert_eq!(v, 22);
    }

    /// When compaction succeeds outright the stats name the requested
    /// algorithm and record no degradations.
    #[test]
    fn undegraded_compile_reports_requested_algorithm() {
        let m = hm1();
        let mut b = FuncBuilder::new("small");
        let a = b.vreg();
        b.ldi(a, 7);
        b.mark_live_out(a);
        b.terminate(Term::Halt);
        let art = Compiler::new(m).compile_mir(b.finish()).unwrap();
        assert_eq!(art.stats.algorithm_used, "critpath");
        assert!(art.stats.degradations.is_empty());
    }

    #[test]
    fn poll_insertion_counts() {
        let c = Compiler::with_options(
            hm1(),
            CompilerOptions { poll_interval: Some(2), ..Default::default() },
        );
        let mut b = FuncBuilder::new("p");
        let x = b.vreg();
        b.ldi(x, 9);
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.jump_and_switch(head);
        b.alu_un(AluOp::Pass, x, x);
        b.branch(CondKind::Zero, done, body);
        b.switch_to(body);
        b.alu_imm(AluOp::Sub, x, x, 1);
        b.terminate(Term::Jump(head));
        b.switch_to(done);
        b.terminate(Term::Halt);
        let art = c.compile_mir(b.finish()).unwrap();
        assert!(art.stats.polls > 0);
        // And the program still runs with interrupts arriving.
        let opts = SimOptions {
            interrupts: vec![1, 5, 9],
            ..Default::default()
        };
        let (_, stats) = art.run_with(&opts).unwrap();
        assert_eq!(stats.interrupts, 3);
    }

    #[test]
    fn mir_op_budget_is_enforced() {
        let mut options = CompilerOptions::default();
        options.limits.max_mir_ops = 5;
        let c = Compiler::with_options(hm1(), options);
        let mut b = FuncBuilder::new("big");
        let x = b.vreg();
        b.ldi(x, 0);
        for _ in 0..20 {
            b.alu_imm(AluOp::Add, x, x, 1);
        }
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        match c.compile_mir(b.finish()) {
            Err(CompileError::Limit { what, limit }) => {
                assert_eq!(what, "mir operations");
                assert_eq!(limit, 5);
            }
            other => panic!("expected Limit error, got {other:?}"),
        }
    }

    #[test]
    fn contained_panic_becomes_internal_error() {
        let r: Result<(), CompileError> = contain(|| {
            set_pass("select");
            panic!("boom in selection")
        });
        match r {
            Err(CompileError::Internal { pass, message }) => {
                assert_eq!(pass, "select");
                assert!(message.contains("boom"), "got: {message}");
            }
            other => panic!("expected Internal error, got {other:?}"),
        }
    }

    #[test]
    fn compile_contained_round_trips_good_and_bad_source() {
        let c = Compiler::new(hm1());
        // Garbage in every language terminates with a structured error.
        for lang in SourceLang::ALL {
            let e = c.compile_contained(lang, "\u{0}\u{1}garbage ((((").unwrap_err();
            assert!(!e.to_string().is_empty(), "{lang}");
        }
        // And a healthy program still compiles through the boundary.
        let art = c
            .compile_contained(SourceLang::Yalll, "reg a = R0\nconst a, 7\nexit a\n")
            .unwrap();
        let (sim, _) = art.run().unwrap();
        assert_eq!(art.read_symbol(&sim, "a"), Some(7));
    }

    #[test]
    fn source_lang_names_round_trip() {
        for lang in SourceLang::ALL {
            assert_eq!(SourceLang::from_name(lang.name()), Some(lang));
        }
        assert_eq!(SourceLang::from_name("yll"), Some(SourceLang::Yalll));
        assert_eq!(SourceLang::from_name("cobol"), None);
    }

    #[test]
    fn frontend_diagnostics_carry_source_excerpts() {
        let c = Compiler::new(hm1());
        let e = c.compile_yalll("reg a = R0\nbogus a, 7\nexit a\n").unwrap_err();
        let msg = e.to_string();
        // line:col prefix and the caret line from render_excerpt.
        assert!(msg.contains("2:"), "got: {msg}");
        assert!(msg.contains('^'), "got: {msg}");
    }

    #[test]
    fn compile_stats_populated() {
        let m = hm1();
        let mut b = FuncBuilder::new("s");
        let x = b.vreg();
        b.ldi(x, 1);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let art = Compiler::new(m).compile_mir(b.finish()).unwrap();
        assert!(art.stats.micro_instrs > 0);
        assert!(art.stats.packing_ratio() > 0.0);
    }
}
