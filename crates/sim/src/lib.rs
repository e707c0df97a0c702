//! # `mcc-sim` — a phase-accurate horizontal microcode simulator
//!
//! Executes [`MicroProgram`]s against a [`MachineDesc`]: one control word
//! per microcycle, all packed micro-operations reading their sources
//! before any of them writes (the read/compute/write phase discipline of a
//! horizontal machine). The simulator supplies the two facilities §2.1.5
//! of Sint's survey says every real microprogramming environment has and
//! every surveyed language ignored:
//!
//! * **interrupts** — scripted arrival times; a `poll` micro-operation
//!   services whatever is pending (costing
//!   [`MachineDesc::interrupt_service_cycles`]), and the simulator records
//!   service latencies (experiment E7);
//! * **microtraps** — paged main memory; touching an unmapped page aborts
//!   the cycle, services the fault, and **restarts the microprogram from
//!   address 0 with all registers preserved** — precisely the semantics
//!   that make the paper's `incread` example increment its register twice.
//!
//! A page of main memory is allocated on its first write and reads zero
//! until then, so loading a program costs what the program touches, not
//! the machine's 64K words.
//!
//! The crate also defines [`macroisa`], a small accumulator
//! macroarchitecture used by experiment E5: its interpreter is itself a
//! microprogram, so "macrocode vs microcode" speedups can be measured.

pub mod fault;
pub mod macroisa;

pub use fault::{Fault, FaultKind, FaultPlan};

use std::sync::Arc;

use mcc_lang::Budget;
use mcc_machine::{
    AluOp, BoundOp, CondKind, MachineDesc, MicroProgram, RegRef, Semantic, ShiftOp,
};

/// Words per memory page (addresses are word-granular).
pub const PAGE_WORDS: u64 = 256;

/// Total simulated memory words.
pub const MEM_WORDS: u64 = 1 << 16;

/// One page of main memory.
type Page = Box<[u64; PAGE_WORDS as usize]>;

/// Condition flags of the simulated machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flags {
    /// Zero.
    pub z: bool,
    /// Negative (sign bit).
    pub n: bool,
    /// Carry / borrow / shifted-out bit.
    pub c: bool,
    /// Two's-complement overflow.
    pub v: bool,
    /// Last bit shifted out of the shifter (the SIMPL `UF` bit).
    pub uf: bool,
}

/// Execution statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Microcycles executed (including service charges).
    pub cycles: u64,
    /// Microinstructions executed.
    pub instrs: u64,
    /// Micro-operations executed.
    pub uops: u64,
    /// Interrupts serviced.
    pub interrupts: u64,
    /// Sum of interrupt service latencies (arrival → service), in cycles.
    pub interrupt_latency_total: u64,
    /// Worst single interrupt latency.
    pub interrupt_latency_max: u64,
    /// Page-fault microtraps taken.
    pub traps: u64,
    /// Microprogram restarts caused by traps.
    pub restarts: u64,
    /// Faults injected from the plan so far.
    pub faults_injected: u64,
    /// Control-store corruptions caught (parity mismatch or undecodable
    /// word) before execution.
    pub faults_detected: u64,
    /// Successful detect → scrub → restart-from-checkpoint recoveries.
    pub fault_recoveries: u64,
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The cycle budget ran out before `halt`.
    CycleLimit(u64),
    /// Execution fell off the end of the control store.
    OffEnd(u32),
    /// `ret` with an empty micro call stack.
    StackUnderflow,
    /// A malformed instruction (should have been caught by validation).
    BadInstr(String),
    /// The watchdog tripped: too many cycles without a `poll`.
    WatchdogExpired(u64),
    /// A control-store fault persisted through the bounded retry budget;
    /// the machine halts rather than run corrupted microcode.
    MachineCheck(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CycleLimit(n) => write!(f, "no halt within {n} cycles"),
            SimError::OffEnd(a) => write!(f, "fell off control store at {a}"),
            SimError::StackUnderflow => write!(f, "micro return stack underflow"),
            SimError::BadInstr(s) => write!(f, "bad microinstruction: {s}"),
            SimError::WatchdogExpired(n) => {
                write!(f, "watchdog expired: {n} cycles without a poll")
            }
            SimError::MachineCheck(s) => write!(f, "machine check: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Options for one run.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Abort after this many cycles ([`Budget::DEFAULT_SIM_CYCLES`] by
    /// default — the same ceiling the fuzz oracle calls a hang).
    pub max_cycles: u64,
    /// Interrupt arrival times (cycle numbers, ascending).
    pub interrupts: Vec<u64>,
    /// Pages (page number = address / [`PAGE_WORDS`]) initially unmapped;
    /// first touch takes a microtrap, maps the page and restarts.
    pub unmapped_pages: Vec<u64>,
    /// Faults to inject while running (empty = no injection).
    pub faults: FaultPlan,
    /// Watchdog budget: abort with [`SimError::WatchdogExpired`] after
    /// this many consecutive cycles without a `poll` (or trap service).
    /// `None` disables the watchdog.
    pub watchdog: Option<u64>,
    /// With parity protection on, how many detect → scrub → restart
    /// attempts are made before escalating to a machine check.
    pub max_fault_retries: u32,
    /// Run control words through the parity-tagged store: detected
    /// corruption triggers scrub-and-restart instead of executing. Off,
    /// corrupted words execute raw (the unprotected baseline a fault
    /// campaign compares against).
    pub protect_store: bool,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            max_cycles: Budget::DEFAULT_SIM_CYCLES,
            interrupts: Vec::new(),
            unmapped_pages: Vec::new(),
            faults: FaultPlan::default(),
            watchdog: None,
            max_fault_retries: 3,
            protect_store: true,
        }
    }
}

/// The encoded control store: a golden (load-time) image and a live image
/// the fault plan corrupts, each word carrying its parity check byte.
#[derive(Debug, Clone)]
struct EccStore {
    golden: Vec<(u128, u8)>,
    live: Vec<(u128, u8)>,
}

/// Architectural state saved at run start; restored by fault recovery.
/// Its memory holds only the pages written before the checkpoint.
#[derive(Debug, Clone)]
struct Checkpoint {
    regs: Vec<Vec<u64>>,
    pages: Vec<Option<Page>>,
    flags: Flags,
}

/// The simulator: machine state plus a loaded control store.
#[derive(Debug, Clone)]
pub struct Simulator {
    m: Arc<MachineDesc>,
    store: Vec<mcc_machine::MicroInstr>,
    regs: Vec<Vec<u64>>,
    pages: Vec<Option<Page>>, // main memory; `None` is a page never written
    mapped: Vec<bool>,
    flags: Flags,
    upc: u32,
    stack: Vec<u32>,
    halted: bool,
    stats: SimStats,
    pending: Vec<u64>, // unserviced interrupt arrival times, ascending
    // The write phase's buffer, reused every cycle.
    writes: Vec<Write>,
    // Fault machinery (inert unless the run's options engage it).
    ecc: Option<EccStore>,
    protect_store: bool,
    pending_faults: Vec<Fault>, // sorted descending by cycle; popped from the back
    stuck: Vec<(u32, u8, u8, bool)>, // active stuck-at defects: (addr, lo, width, one)
    checkpoint: Option<Box<Checkpoint>>,
    retries: u32,
    max_retries: u32,
    // Cycles-without-a-poll budget (`None` disables the watchdog); a
    // `poll` or trap service resets it. The shared `Budget` type keeps
    // this count aligned with the fuzz oracle's and harness's notions of
    // a hang.
    watchdog: Option<Budget>,
}

/// One register write buffered during the write phase.
#[derive(Debug, Clone)]
struct Write {
    reg: RegRef,
    value: u64,
}

/// Where a cycle's microinstruction comes from.
enum Fetched {
    /// The loaded word at this address, executed in place.
    Stored(usize),
    /// A corrupted word the decoder rebuilt (parity path only).
    Decoded(mcc_machine::MicroInstr),
    /// A detected fault spent the cycle on a recovery restart.
    Recovered,
}

/// Sequencer outcome of one instruction.
enum Seq {
    Next,
    Goto(u32),
    CallTo(u32),
    Return,
    Halt,
}

impl Simulator {
    /// Loads `program` onto machine `m`. Block-relative targets are
    /// resolved by flattening.
    pub fn new(m: impl Into<Arc<MachineDesc>>, program: &MicroProgram) -> Self {
        let m = m.into();
        let store = program.flatten();
        // Room for the writes of the widest loaded word, so no stored word
        // grows the buffer while it runs.
        let widest = store.iter().map(|mi| mi.ops.len()).max().unwrap_or(0);
        let regs = m
            .files
            .iter()
            .map(|f| vec![0u64; f.count as usize])
            .collect();
        Simulator {
            m,
            store,
            regs,
            pages: vec![None; (MEM_WORDS / PAGE_WORDS) as usize],
            mapped: vec![true; (MEM_WORDS / PAGE_WORDS) as usize],
            flags: Flags::default(),
            upc: 0,
            stack: Vec::new(),
            halted: false,
            stats: SimStats::default(),
            pending: Vec::new(),
            writes: Vec::with_capacity(widest),
            ecc: None,
            protect_store: true,
            pending_faults: Vec::new(),
            stuck: Vec::new(),
            checkpoint: None,
            retries: 0,
            max_retries: 3,
            watchdog: None,
        }
    }

    /// Reads a register.
    pub fn reg(&self, r: RegRef) -> u64 {
        self.regs[r.file.index()][r.index as usize]
    }

    /// Writes a register (test/workload setup).
    pub fn set_reg(&mut self, r: RegRef, v: u64) {
        let w = self.m.reg_width(r);
        self.regs[r.file.index()][r.index as usize] = v & mcc_machine::semantic::width_mask(w);
    }

    /// Reads a memory word.
    pub fn mem(&self, addr: u64) -> u64 {
        let a = addr % MEM_WORDS;
        self.pages[(a / PAGE_WORDS) as usize]
            .as_ref()
            .map_or(0, |page| page[(a % PAGE_WORDS) as usize])
    }

    /// Writes a memory word (test/workload setup; does not fault).
    pub fn set_mem(&mut self, addr: u64, v: u64) {
        *self.mem_slot(addr) = v & 0xFFFF;
    }

    /// The memory word at `addr`, allocating its page on first write.
    fn mem_slot(&mut self, addr: u64) -> &mut u64 {
        let a = addr % MEM_WORDS;
        let page = self.pages[(a / PAGE_WORDS) as usize]
            .get_or_insert_with(|| Box::new([0; PAGE_WORDS as usize]));
        &mut page[(a % PAGE_WORDS) as usize]
    }

    /// Current flags.
    pub fn flags(&self) -> Flags {
        self.flags
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Resets the watchdog budget: a poll, trap service, or recovery
    /// restart proves the machine is making observable progress.
    fn pet_watchdog(&mut self) {
        if let Some(b) = &mut self.watchdog {
            b.reset();
        }
    }

    fn src(&self, op: &BoundOp, i: usize) -> Result<u64, SimError> {
        op.srcs
            .get(i)
            .map(|&r| self.reg(r))
            .ok_or_else(|| SimError::BadInstr(format!("missing source operand {i}")))
    }

    /// Runs to halt (or error) under `opts`. Returns final statistics.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn run(&mut self, opts: &SimOptions) -> Result<SimStats, SimError> {
        self.pending = opts.interrupts.clone();
        self.pending.sort_unstable();
        for &p in &opts.unmapped_pages {
            if let Some(m) = self.mapped.get_mut(p as usize) {
                *m = false;
            }
        }
        self.watchdog = opts.watchdog.map(Budget::new);
        self.protect_store = opts.protect_store;
        self.max_retries = opts.max_fault_retries;
        self.retries = 0;
        if !opts.faults.is_empty() || opts.watchdog.is_some() {
            // Engage the fault machinery: a checkpoint of the seeded
            // architectural state, and (when the control store is a fault
            // target) the encoded, parity-tagged store image.
            self.checkpoint = Some(Box::new(Checkpoint {
                regs: self.regs.clone(),
                pages: self.pages.clone(),
                flags: self.flags,
            }));
            self.pending_faults = opts.faults.faults.clone();
            self.pending_faults.sort_by_key(|f| std::cmp::Reverse(f.at_cycle));
            if opts.faults.touches_control_store() && self.ecc.is_none() {
                let mut image = Vec::with_capacity(self.store.len());
                for (i, mi) in self.store.iter().enumerate() {
                    let w = mcc_machine::encode_instr(&self.m, mi).map_err(|e| {
                        SimError::BadInstr(format!("control word {i} not encodable: {e}"))
                    })?;
                    image.push((w, mcc_machine::ecc_of(w)));
                }
                self.ecc = Some(EccStore {
                    golden: image.clone(),
                    live: image,
                });
            }
        }
        while !self.halted {
            if self.stats.cycles >= opts.max_cycles {
                return Err(SimError::CycleLimit(opts.max_cycles));
            }
            self.step()?;
        }
        // Any interrupts still pending are serviced at halt (their latency
        // is what a non-polling microprogram inflicts — §2.1.5).
        self.service_due(self.stats.cycles);
        Ok(self.stats.clone())
    }

    /// Services, in arrival order, every pending interrupt that arrived
    /// by `now`.
    fn service_due(&mut self, now: u64) {
        let due = self.pending.partition_point(|&a| a <= now);
        for i in 0..due {
            self.service_interrupt(now, self.pending[i]);
        }
        self.pending.drain(..due);
    }

    fn service_interrupt(&mut self, now: u64, arrival: u64) {
        let lat = now.saturating_sub(arrival);
        self.stats.interrupts += 1;
        self.stats.interrupt_latency_total += lat;
        self.stats.interrupt_latency_max = self.stats.interrupt_latency_max.max(lat);
        self.stats.cycles += self.m.interrupt_service_cycles;
    }

    /// Applies every planned fault due at or before `now` to the live
    /// machine state.
    fn apply_due_faults(&mut self, now: u64) {
        while self
            .pending_faults
            .last()
            .is_some_and(|f| f.at_cycle <= now)
        {
            let f = self.pending_faults.pop().expect("checked nonempty");
            self.stats.faults_injected += 1;
            match f.kind {
                FaultKind::ControlBitFlip { addr, bit } => {
                    if let Some(ecc) = &mut self.ecc {
                        if let Some(slot) = ecc.live.get_mut(addr as usize) {
                            slot.0 ^= 1u128 << (bit as u32 % 128);
                        }
                    }
                }
                FaultKind::RegisterUpset { reg, bit } => {
                    if let Some(file) = self.regs.get_mut(reg.file.index()) {
                        if let Some(v) = file.get_mut(reg.index as usize) {
                            let w = self.m.reg_width(reg);
                            *v = (*v ^ (1u64 << (bit as u32 % w as u32)))
                                & mcc_machine::semantic::width_mask(w);
                        }
                    }
                }
                FaultKind::MemoryUpset { addr, bit } => {
                    let slot = self.mem_slot(addr);
                    *slot = (*slot ^ (1u64 << (bit as u32 % 16))) & 0xFFFF;
                }
                FaultKind::StuckField {
                    addr,
                    lo,
                    width,
                    stuck_one,
                } => self.stuck.push((addr, lo, width, stuck_one)),
                FaultKind::UnmapPage { page } => {
                    if let Some(m) = self.mapped.get_mut(page as usize) {
                        *m = false;
                    }
                }
            }
        }
    }

    /// Detected control-store corruption: scrub the live store from the
    /// golden image, restore the checkpoint, and restart from address 0 —
    /// or escalate to a machine check once the retry budget is spent
    /// (a persistent defect scrubbing cannot repair).
    fn recover(&mut self, why: &str) -> Result<(), SimError> {
        self.stats.faults_detected += 1;
        if self.retries >= self.max_retries {
            return Err(SimError::MachineCheck(format!(
                "control store fault persists after {} restarts: {why}",
                self.retries
            )));
        }
        self.retries += 1;
        self.stats.fault_recoveries += 1;
        self.stats.cycles += self.m.trap_service_cycles;
        if let Some(ecc) = &mut self.ecc {
            ecc.live.clone_from(&ecc.golden);
        }
        if let Some(cp) = &self.checkpoint {
            // Pages first written after the checkpoint go back to unwritten.
            self.regs.clone_from(&cp.regs);
            self.pages.clone_from(&cp.pages);
            self.flags = cp.flags;
        }
        self.stack.clear();
        self.upc = 0;
        self.pet_watchdog();
        Ok(())
    }

    /// Fetches the instruction at the current µPC.
    fn fetch(&mut self) -> Result<Fetched, SimError> {
        let idx = self.upc as usize;
        let Some(ecc) = &self.ecc else {
            return match self.store.get(idx) {
                Some(_) => Ok(Fetched::Stored(idx)),
                None => Err(SimError::OffEnd(self.upc)),
            };
        };
        let Some(&(mut word, check)) = ecc.live.get(idx) else {
            return Err(SimError::OffEnd(self.upc));
        };
        for &(addr, lo, width, one) in &self.stuck {
            if addr as usize == idx {
                let lo = lo as u32 % 128;
                let w = (width as u32).clamp(1, 128 - lo);
                let mask = if w == 128 {
                    u128::MAX
                } else {
                    ((1u128 << w) - 1) << lo
                };
                if one {
                    word |= mask;
                } else {
                    word &= !mask;
                }
            }
        }
        let clean = (word, check) == ecc.golden[idx];
        if self.protect_store {
            if mcc_machine::ecc_syndrome(word, check) != 0 {
                return self.recover("parity mismatch").map(|()| Fetched::Recovered);
            }
            if clean {
                return Ok(Fetched::Stored(idx));
            }
            // Parity passed on a corrupted word (a multi-bit upset): the
            // decoder's strict-inverse check is the last line of defence.
            match mcc_machine::decode_instr(&self.m, word) {
                Ok(mi) => Ok(Fetched::Decoded(mi)),
                Err(e) => self.recover(&e.to_string()).map(|()| Fetched::Recovered),
            }
        } else if clean {
            Ok(Fetched::Stored(idx))
        } else {
            // Unprotected store: corrupted words execute raw; only words
            // the decoder cannot make sense of at all halt the machine.
            mcc_machine::decode_instr(&self.m, word)
                .map(Fetched::Decoded)
                .map_err(|e| {
                    SimError::BadInstr(format!("undecodable control word at {idx}: {e}"))
                })
        }
    }

    /// Executes one microinstruction.
    pub fn step(&mut self) -> Result<(), SimError> {
        let now = self.stats.cycles;
        self.apply_due_faults(now);
        if let Some(b) = &mut self.watchdog {
            if !b.tick() {
                return Err(SimError::WatchdogExpired(b.limit()));
            }
        }
        match self.fetch()? {
            Fetched::Stored(idx) => {
                // The word executes in place: the store steps out of
                // `self` for the cycle, so `execute` can borrow the word
                // while it changes the machine.
                let store = std::mem::take(&mut self.store);
                let done = self.execute(&store[idx], now);
                self.store = store;
                done
            }
            Fetched::Decoded(mi) => self.execute(&mi, now),
            Fetched::Recovered => Ok(()),
        }
    }

    /// Executes `mi` as the cycle that started at `now`.
    fn execute(&mut self, mi: &mcc_machine::MicroInstr, now: u64) -> Result<(), SimError> {
        self.stats.cycles += 1;
        self.stats.instrs += 1;

        self.writes.clear();
        let mut flag_write: Option<Flags> = None;
        let mut seq = Seq::Next;
        let mut mem_write: Option<(u64, u64)> = None;

        for op in &mi.ops {
            self.stats.uops += 1;
            let t = self.m.template(op.template);
            let width = op
                .dst
                .map(|d| self.m.reg_width(d))
                .unwrap_or(self.m.word_bits);
            match t.semantic {
                Semantic::Alu(a) => {
                    let l = self.src(op, 0)?;
                    let r = if a.is_unary() {
                        0
                    } else if op.srcs.len() > 1 {
                        self.src(op, 1)?
                    } else {
                        op.imm.unwrap_or(0)
                    };
                    let (res, c, v) = a.apply(l, r, self.flags.c, width);
                    self.writes.push(Write {
                        reg: op
                            .dst
                            .ok_or_else(|| SimError::BadInstr("alu without dst".into()))?,
                        value: res,
                    });
                    if t.writes_flags {
                        flag_write = Some(Flags {
                            z: res == 0,
                            n: res >> (width - 1) & 1 == 1,
                            c,
                            v,
                            uf: self.flags.uf,
                        });
                    }
                }
                Semantic::Shift(s) => {
                    let val = self.src(op, 0)?;
                    let amount = op.imm.unwrap_or(0) as u32;
                    let (res, uf) = s.apply(val, amount, width);
                    self.writes.push(Write {
                        reg: op
                            .dst
                            .ok_or_else(|| SimError::BadInstr("shift without dst".into()))?,
                        value: res,
                    });
                    if t.writes_flags {
                        // The shifted-out bit lands in both UF and carry
                        // (documented machine family behaviour; this is
                        // what lets legalize map UF → carry on BX-2).
                        flag_write = Some(Flags {
                            z: res == 0,
                            n: res >> (width - 1) & 1 == 1,
                            c: uf,
                            v: self.flags.v,
                            uf,
                        });
                    }
                }
                Semantic::Move => {
                    self.writes.push(Write {
                        reg: op
                            .dst
                            .ok_or_else(|| SimError::BadInstr("mov without dst".into()))?,
                        value: self.src(op, 0)?,
                    });
                }
                Semantic::LoadImm => {
                    self.writes.push(Write {
                        reg: op
                            .dst
                            .ok_or_else(|| SimError::BadInstr("ldi without dst".into()))?,
                        value: op.imm.unwrap_or(0),
                    });
                }
                Semantic::MemRead => {
                    let mar = self.m.special.mar.ok_or_else(|| {
                        SimError::BadInstr("memread without MAR".into())
                    })?;
                    let mbr = self
                        .m
                        .special
                        .mbr
                        .ok_or_else(|| SimError::BadInstr("memread without MBR".into()))?;
                    let addr = self.reg(mar) % MEM_WORDS;
                    if !self.mapped[(addr / PAGE_WORDS) as usize] {
                        self.take_trap(addr);
                        return Ok(());
                    }
                    self.writes.push(Write {
                        reg: mbr,
                        value: self.mem(addr),
                    });
                }
                Semantic::MemWrite => {
                    let mar = self.m.special.mar.ok_or_else(|| {
                        SimError::BadInstr("memwrite without MAR".into())
                    })?;
                    let mbr = self
                        .m
                        .special
                        .mbr
                        .ok_or_else(|| SimError::BadInstr("memwrite without MBR".into()))?;
                    let addr = self.reg(mar) % MEM_WORDS;
                    if !self.mapped[(addr / PAGE_WORDS) as usize] {
                        self.take_trap(addr);
                        return Ok(());
                    }
                    mem_write = Some((addr, self.reg(mbr)));
                }
                Semantic::Jump => {
                    seq = Seq::Goto(
                        op.target
                            .ok_or_else(|| SimError::BadInstr("jmp without target".into()))?,
                    )
                }
                Semantic::Branch => {
                    let c = op
                        .cond
                        .ok_or_else(|| SimError::BadInstr("branch without cond".into()))?;
                    if self.eval_cond(c) {
                        seq = Seq::Goto(op.target.ok_or_else(|| {
                            SimError::BadInstr("branch without target".into())
                        })?);
                    }
                }
                Semantic::Dispatch => {
                    let idx = self.src(op, 0)? & op.imm.unwrap_or(u64::MAX);
                    let base = op
                        .target
                        .ok_or_else(|| SimError::BadInstr("dispatch without base".into()))?;
                    seq = Seq::Goto(base.saturating_add(idx as u32));
                }
                Semantic::Call => {
                    seq = Seq::CallTo(
                        op.target
                            .ok_or_else(|| SimError::BadInstr("call without target".into()))?,
                    )
                }
                Semantic::Return => seq = Seq::Return,
                Semantic::Poll => {
                    self.pet_watchdog();
                    self.service_due(now);
                }
                Semantic::Halt => seq = Seq::Halt,
                Semantic::Nop => {}
            }
        }

        // Write phase.
        for w in &self.writes {
            let width = self.m.reg_width(w.reg);
            self.regs[w.reg.file.index()][w.reg.index as usize] =
                w.value & mcc_machine::semantic::width_mask(width);
        }
        if let Some(fl) = flag_write {
            self.flags = fl;
        }
        if let Some((addr, v)) = mem_write {
            *self.mem_slot(addr) = v & 0xFFFF;
        }

        // Sequencing.
        match seq {
            Seq::Next => self.upc += 1,
            Seq::Goto(t) => self.upc = t,
            Seq::CallTo(t) => {
                self.stack.push(self.upc + 1);
                self.upc = t;
            }
            Seq::Return => {
                self.upc = self.stack.pop().ok_or(SimError::StackUnderflow)?;
            }
            Seq::Halt => self.halted = true,
        }
        Ok(())
    }

    /// Page-fault microtrap: map the page, charge the service time, and
    /// restart the microprogram from address 0 with registers preserved.
    fn take_trap(&mut self, addr: u64) {
        self.stats.traps += 1;
        self.stats.restarts += 1;
        self.stats.cycles += self.m.trap_service_cycles;
        self.mapped[(addr / PAGE_WORDS) as usize] = true;
        self.stack.clear();
        self.upc = 0;
        // Trap service pets the watchdog: the machine is making progress
        // through the fault handler, not hanging.
        self.pet_watchdog();
    }

    fn eval_cond(&self, c: CondKind) -> bool {
        c.eval(self.flags.z, self.flags.n, self.flags.c, self.flags.v, self.flags.uf)
    }
}

/// Convenience: the effect of an ALU op on flags matches
/// [`AluOp::apply`]; re-exported op kinds for workload builders.
pub use mcc_machine::semantic::width_mask;

#[allow(unused_imports)]
use AluOp as _AluOpForDocs;
#[allow(unused_imports)]
use ShiftOp as _ShiftOpForDocs;

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;
    use mcc_machine::op::{MicroBlock, MicroInstr};

    fn machine() -> MachineDesc {
        hm1()
    }

    /// Builds a one-block program from bound ops, one per instruction,
    /// ending in halt.
    fn program(m: &MachineDesc, ops: Vec<BoundOp>) -> MicroProgram {
        let mut p = MicroProgram::new();
        let mut instrs: Vec<MicroInstr> = ops.into_iter().map(MicroInstr::single).collect();
        instrs.push(MicroInstr::single(BoundOp::new(
            m.find_template("halt").unwrap(),
        )));
        p.blocks.push(MicroBlock { instrs });
        p
    }

    fn r(m: &MachineDesc, i: u16) -> RegRef {
        RegRef::new(m.find_file("R").unwrap(), i)
    }

    #[test]
    fn ldi_add_and_flags() {
        let m = machine();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(r(&m, 0))
                    .with_imm(7),
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(r(&m, 1))
                    .with_imm(8),
                BoundOp::new(m.find_template("add").unwrap())
                    .with_dst(r(&m, 2))
                    .with_src(r(&m, 0))
                    .with_src(r(&m, 1)),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let st = s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.reg(r(&m, 2)), 15);
        assert!(!s.flags().z);
        assert_eq!(st.instrs, 4);
        assert!(s.halted());
    }

    #[test]
    fn parallel_ops_read_before_write() {
        // Swap via one microinstruction: mov R0←R1 ∥ ALU pass R1←R0 would
        // need two units; use mov + pass which are bus/ALU. Both read old
        // values: a genuine exchange.
        let m = machine();
        let mov = BoundOp::new(m.find_template("mov").unwrap())
            .with_dst(r(&m, 0))
            .with_src(r(&m, 1));
        let pass = BoundOp::new(m.find_template("pass").unwrap())
            .with_dst(r(&m, 1))
            .with_src(r(&m, 0));
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![
                MicroInstr::of(vec![mov, pass]),
                MicroInstr::single(BoundOp::new(m.find_template("halt").unwrap())),
            ],
        });
        let mut s = Simulator::new(m.clone(), &p);
        s.set_reg(r(&m, 0), 111);
        s.set_reg(r(&m, 1), 222);
        s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.reg(r(&m, 0)), 222);
        assert_eq!(s.reg(r(&m, 1)), 111, "read phase precedes write phase");
    }

    #[test]
    fn memory_roundtrip() {
        let m = machine();
        let mar = m.special.mar.unwrap();
        let mbr = m.special.mbr.unwrap();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(mar)
                    .with_imm(100),
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(mbr)
                    .with_imm(42),
                BoundOp::new(m.find_template("write").unwrap()),
                BoundOp::new(m.find_template("read").unwrap()),
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(r(&m, 5))
                    .with_src(mbr),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.mem(100), 42);
        assert_eq!(s.reg(r(&m, 5)), 42);
    }

    #[test]
    fn branch_loop_counts_down() {
        // R0 = 5; loop: dec R0; jnz loop; halt.
        let m = machine();
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(r(&m, 0))
                    .with_imm(5),
            )],
        });
        p.blocks.push(MicroBlock {
            instrs: vec![
                MicroInstr::single(
                    BoundOp::new(m.find_template("dec").unwrap())
                        .with_dst(r(&m, 0))
                        .with_src(r(&m, 0)),
                ),
                MicroInstr::single(
                    BoundOp::new(m.find_template("br").unwrap())
                        .with_cond(CondKind::NotZero)
                        .with_target(1),
                ),
            ],
        });
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(BoundOp::new(
                m.find_template("halt").unwrap(),
            ))],
        });
        let mut s = Simulator::new(m.clone(), &p);
        let st = s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.reg(r(&m, 0)), 0);
        // 1 ldi + 5×(dec+br) + halt = 12 instructions.
        assert_eq!(st.instrs, 12);
    }

    #[test]
    fn dispatch_indexes_table() {
        let m = machine();
        let mut p = MicroProgram::new();
        // b0: ldi R0,1 ; dispatch R0 mask 3 -> b1
        p.blocks.push(MicroBlock {
            instrs: vec![
                MicroInstr::single(
                    BoundOp::new(m.find_template("ldi").unwrap())
                        .with_dst(r(&m, 0))
                        .with_imm(1),
                ),
                MicroInstr::single(
                    BoundOp::new(m.find_template("dispatch").unwrap())
                        .with_src(r(&m, 0))
                        .with_imm(3)
                        .with_target(1),
                ),
            ],
        });
        // b1..b3: table: jmp to b4 after setting R1 to the case id... the
        // table entries are single jumps; cases set R1.
        for k in 0..3u32 {
            p.blocks.push(MicroBlock {
                instrs: vec![MicroInstr::single(
                    BoundOp::new(m.find_template("jmp").unwrap()).with_target(4 + k),
                )],
            });
        }
        for k in 0..3u64 {
            p.blocks.push(MicroBlock {
                instrs: vec![
                    MicroInstr::single(
                        BoundOp::new(m.find_template("ldi").unwrap())
                            .with_dst(r(&m, 1))
                            .with_imm(10 + k),
                    ),
                    MicroInstr::single(BoundOp::new(m.find_template("halt").unwrap())),
                ],
            });
        }
        let mut s = Simulator::new(m.clone(), &p);
        s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.reg(r(&m, 1)), 11, "case 1 taken");
    }

    #[test]
    fn call_and_return() {
        let m = machine();
        let mut p = MicroProgram::new();
        // b0: call b2; (returns here) ldi R1, 9; halt in b1
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("call").unwrap()).with_target(1),
            )],
        });
        // b1 (fall-through after return): ldi + halt
        p.blocks.push(MicroBlock {
            instrs: vec![], // placeholder so targets line up; see below
        });
        // Rebuild properly: subroutine at block 2.
        p.blocks[1] = MicroBlock {
            instrs: vec![
                MicroInstr::single(
                    BoundOp::new(m.find_template("ldi").unwrap())
                        .with_dst(r(&m, 1))
                        .with_imm(9),
                ),
                MicroInstr::single(BoundOp::new(m.find_template("halt").unwrap())),
            ],
        };
        p.blocks.push(MicroBlock {
            instrs: vec![
                MicroInstr::single(
                    BoundOp::new(m.find_template("ldi").unwrap())
                        .with_dst(r(&m, 0))
                        .with_imm(5),
                ),
                MicroInstr::single(BoundOp::new(m.find_template("ret").unwrap())),
            ],
        });
        // call targets block 1? We want call → subroutine (block 2), so
        // retarget: the call above targets 1; swap to 2.
        p.blocks[0].instrs[0].ops[0].target = Some(2);
        let mut s = Simulator::new(m.clone(), &p);
        s.run(&SimOptions::default()).unwrap();
        assert_eq!(s.reg(r(&m, 0)), 5, "subroutine ran");
        assert_eq!(s.reg(r(&m, 1)), 9, "returned to continuation");
    }

    #[test]
    fn ret_underflow_is_an_error() {
        let m = machine();
        let p = program(&m, vec![BoundOp::new(m.find_template("ret").unwrap())]);
        let mut s = Simulator::new(m.clone(), &p);
        assert_eq!(
            s.run(&SimOptions::default()),
            Err(SimError::StackUnderflow)
        );
    }

    #[test]
    fn cycle_limit_enforced() {
        let m = machine();
        // Infinite loop: jmp 0.
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("jmp").unwrap()).with_target(0),
            )],
        });
        let mut s = Simulator::new(m, &p);
        let opts = SimOptions {
            max_cycles: 100,
            ..Default::default()
        };
        assert_eq!(s.run(&opts), Err(SimError::CycleLimit(100)));
    }

    #[test]
    fn poll_services_pending_interrupts() {
        let m = machine();
        let mut ops = Vec::new();
        // Ten movs, then a poll, then more movs.
        for _ in 0..10 {
            ops.push(
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(r(&m, 1))
                    .with_src(r(&m, 2)),
            );
        }
        ops.push(BoundOp::new(m.find_template("poll").unwrap()));
        let p = program(&m, ops);
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            interrupts: vec![3],
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.interrupts, 1);
        // Poll executes at cycle 10 → latency 10 - 3 = 7.
        assert_eq!(st.interrupt_latency_max, 7);
        assert!(st.cycles >= 11 + m.interrupt_service_cycles);
    }

    #[test]
    fn unpolled_interrupts_serviced_at_halt() {
        let m = machine();
        let p = program(
            &m,
            vec![BoundOp::new(m.find_template("mov").unwrap())
                .with_dst(r(&m, 1))
                .with_src(r(&m, 2))],
        );
        let mut s = Simulator::new(m, &p);
        let opts = SimOptions {
            interrupts: vec![0],
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.interrupts, 1);
        assert!(st.interrupt_latency_max >= 1);
    }

    #[test]
    fn page_fault_restarts_program_with_registers_preserved() {
        // The paper's `incread` bug: inc R0; MAR:=R0; read — the read
        // faults, the program restarts, R0 is incremented AGAIN.
        let m = machine();
        let mar = m.special.mar.unwrap();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("inc").unwrap())
                    .with_dst(r(&m, 0))
                    .with_src(r(&m, 0)),
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(mar)
                    .with_src(r(&m, 0)),
                BoundOp::new(m.find_template("read").unwrap()),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        s.set_reg(r(&m, 0), 0x1000 - 1); // increments to 0x1000, page 16
        let opts = SimOptions {
            unmapped_pages: vec![16],
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.traps, 1);
        assert_eq!(st.restarts, 1);
        // The double increment: 0x0FFF + 2, not + 1.
        assert_eq!(s.reg(r(&m, 0)), 0x1001, "incremented twice after restart");
    }

    #[test]
    fn trap_charges_service_cycles() {
        let m = machine();
        let mar = m.special.mar.unwrap();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(mar)
                    .with_imm(0x2000),
                BoundOp::new(m.find_template("read").unwrap()),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            unmapped_pages: vec![0x20],
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert!(st.cycles >= m.trap_service_cycles);
        assert_eq!(st.traps, 1);
    }

    #[test]
    fn shift_sets_uf_and_carry() {
        let m = machine();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(r(&m, 0))
                    .with_imm(0b101),
                BoundOp::new(m.find_template("shr").unwrap())
                    .with_dst(r(&m, 0))
                    .with_src(r(&m, 0))
                    .with_imm(1),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        s.run(&SimOptions::default()).unwrap();
        assert!(s.flags().uf);
        assert!(s.flags().c, "shifted-out bit also lands in carry");
        assert_eq!(s.reg(r(&m, 0)), 0b10);
    }

    #[test]
    fn default_cycle_budget_is_finite() {
        // Regression: a runaway microprogram must never spin forever under
        // default options — the budget is a real, finite number.
        let opts = SimOptions::default();
        assert_eq!(opts.max_cycles, 1_000_000);
        let m = machine();
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("jmp").unwrap()).with_target(0),
            )],
        });
        let mut s = Simulator::new(m, &p);
        assert_eq!(s.run(&opts), Err(SimError::CycleLimit(1_000_000)));
    }

    #[test]
    fn control_bit_flip_is_detected_and_recovered() {
        let m = machine();
        let p = program(
            &m,
            vec![BoundOp::new(m.find_template("ldi").unwrap())
                .with_dst(r(&m, 0))
                .with_imm(7)],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            faults: FaultPlan::single(0, FaultKind::ControlBitFlip { addr: 0, bit: 3 }),
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.faults_injected, 1);
        assert_eq!(st.faults_detected, 1, "parity caught the flip");
        assert_eq!(st.fault_recoveries, 1, "scrub + restart recovered");
        assert_eq!(s.reg(r(&m, 0)), 7, "the rerun computed the right answer");
    }

    #[test]
    fn recovery_restores_a_page_first_written_after_the_checkpoint() {
        // mem[0x1234] += 1 on a page nothing wrote before the run; a flip
        // in the halt word then forces a restore and a rerun. The restore
        // must undo the first increment, so the word ends at 1, not 2.
        let m = machine();
        let mar = m.special.mar.unwrap();
        let mbr = m.special.mbr.unwrap();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(mar)
                    .with_imm(0x1234),
                BoundOp::new(m.find_template("read").unwrap()),
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(r(&m, 0))
                    .with_src(mbr),
                BoundOp::new(m.find_template("inc").unwrap())
                    .with_dst(r(&m, 0))
                    .with_src(r(&m, 0)),
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(mbr)
                    .with_src(r(&m, 0)),
                BoundOp::new(m.find_template("write").unwrap()),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            faults: FaultPlan::single(6, FaultKind::ControlBitFlip { addr: 6, bit: 3 }),
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.fault_recoveries, 1, "the flip was caught at the halt");
        assert_eq!(s.mem(0x1234), 1, "incremented exactly once");
    }

    #[test]
    fn persistent_stuck_field_escalates_to_machine_check() {
        let m = machine();
        let p = program(
            &m,
            vec![BoundOp::new(m.find_template("ldi").unwrap())
                .with_dst(r(&m, 0))
                .with_imm(7)],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            faults: FaultPlan::single(
                0,
                FaultKind::StuckField {
                    addr: 0,
                    lo: 120,
                    width: 8,
                    stuck_one: true,
                },
            ),
            ..Default::default()
        };
        match s.run(&opts) {
            Err(SimError::MachineCheck(_)) => {}
            other => panic!("expected machine check, got {other:?}"),
        }
        assert_eq!(
            s.stats().fault_recoveries,
            opts.max_fault_retries as u64,
            "every retry was spent before the machine check"
        );
    }

    #[test]
    fn watchdog_catches_a_hang() {
        let m = machine();
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("jmp").unwrap()).with_target(0),
            )],
        });
        let mut s = Simulator::new(m, &p);
        let opts = SimOptions {
            watchdog: Some(50),
            ..Default::default()
        };
        assert_eq!(s.run(&opts), Err(SimError::WatchdogExpired(50)));
    }

    #[test]
    fn watchdog_is_pet_by_polls() {
        let m = machine();
        // 30 polls in sequence: each resets the counter, so a watchdog of
        // 5 never trips even though the run is 30+ cycles long.
        let ops = (0..30)
            .map(|_| BoundOp::new(m.find_template("poll").unwrap()))
            .collect();
        let p = program(&m, ops);
        let mut s = Simulator::new(m, &p);
        let opts = SimOptions {
            watchdog: Some(5),
            ..Default::default()
        };
        s.run(&opts).unwrap();
    }

    #[test]
    fn register_upset_is_silent_data_corruption() {
        let m = machine();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(r(&m, 0))
                    .with_imm(7),
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(r(&m, 1))
                    .with_src(r(&m, 0)),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            faults: FaultPlan::single(
                1,
                FaultKind::RegisterUpset {
                    reg: r(&m, 0),
                    bit: 0,
                },
            ),
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(s.reg(r(&m, 1)), 6, "the upset value propagated");
        assert_eq!(st.faults_detected, 0, "registers carry no parity");
    }

    #[test]
    fn unmap_page_fault_takes_a_trap_mid_run() {
        let m = machine();
        let mar = m.special.mar.unwrap();
        let p = program(
            &m,
            vec![
                BoundOp::new(m.find_template("ldi").unwrap())
                    .with_dst(mar)
                    .with_imm(0x3000),
                BoundOp::new(m.find_template("read").unwrap()),
            ],
        );
        let mut s = Simulator::new(m.clone(), &p);
        let opts = SimOptions {
            faults: FaultPlan::single(1, FaultKind::UnmapPage { page: 0x30 }),
            ..Default::default()
        };
        let st = s.run(&opts).unwrap();
        assert_eq!(st.traps, 1);
        assert_eq!(st.restarts, 1);
    }

    #[test]
    fn unprotected_store_executes_or_halts_but_never_panics() {
        let m = machine();
        let p = program(
            &m,
            vec![BoundOp::new(m.find_template("ldi").unwrap())
                .with_dst(r(&m, 0))
                .with_imm(7)],
        );
        for bit in 0..m.control_word_bits() as u8 {
            let mut s = Simulator::new(m.clone(), &p);
            let opts = SimOptions {
                faults: FaultPlan::single(0, FaultKind::ControlBitFlip { addr: 0, bit }),
                protect_store: false,
                max_cycles: 10_000,
                ..Default::default()
            };
            let _ = s.run(&opts); // any Ok/Err is fine; panics are not
        }
    }

    #[test]
    fn off_end_is_an_error() {
        let m = machine();
        let p = program(&m, vec![]); // just a halt
        let mut s = Simulator::new(m.clone(), &p);
        s.run(&SimOptions::default()).unwrap();
        // Build a program with no halt.
        let mut p2 = MicroProgram::new();
        p2.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(
                BoundOp::new(m.find_template("mov").unwrap())
                    .with_dst(r(&m, 0))
                    .with_src(r(&m, 1)),
            )],
        });
        let mut s2 = Simulator::new(m, &p2);
        assert_eq!(s2.run(&SimOptions::default()), Err(SimError::OffEnd(1)));
    }
}
