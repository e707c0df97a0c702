//! Seeded fault-injection campaigns and dependability classification.
//!
//! The simulator ([`mcc-sim`](mcc_sim)) knows how to *apply* a
//! [`FaultPlan`] and how to detect and recover from what it hits; this
//! crate supplies the other half of a dependability study (§2.1.5's
//! concern that microcode must survive the machine misbehaving under it):
//!
//! * [`FaultSpace`] — the population of injectable sites for one program
//!   on one machine (control-store words and bits, architectural
//!   registers, memory, pages, injection cycles);
//! * [`FaultMix`] + [`sample_fault`] — seeded, reproducible sampling of
//!   single faults from that space;
//! * [`Outcome`] + [`classify`] — mapping each trial's result onto the
//!   classic dependability classes (masked, detected-and-recovered,
//!   silent data corruption, detected halt, hang);
//! * [`run_campaign`] — the driver: N independent single-fault trials,
//!   each executed by a caller-supplied closure, tallied into a
//!   [`CampaignReport`]. Same seed in, same report out.

use mcc_machine::{FileId, MachineDesc, RegRef};
use mcc_sim::{Fault, FaultKind, FaultPlan, SimError, SimStats, MEM_WORDS, PAGE_WORDS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The population of fault sites for one program on one machine.
#[derive(Debug, Clone)]
pub struct FaultSpace {
    /// Control store length in words (flattened program).
    pub store_len: u32,
    /// Used bits per control word.
    pub word_bits: u32,
    /// Architectural registers, each with its width in bits.
    pub regs: Vec<(RegRef, u16)>,
    /// Memory addresses eligible for upset (a workload's working set; an
    /// empty range falls back to low memory).
    pub mem_lo: u64,
    /// Exclusive upper bound of the memory target range.
    pub mem_hi: u64,
    /// Faults are injected at a cycle drawn from `[1, cycle_horizon]` —
    /// normally the fault-free run's cycle count, so every trial hits a
    /// *live* program.
    pub cycle_horizon: u64,
}

impl FaultSpace {
    /// Builds the space for a flattened program of `store_len` words on
    /// machine `m`, whose fault-free run takes `cycle_horizon` cycles.
    pub fn new(m: &MachineDesc, store_len: u32, cycle_horizon: u64) -> Self {
        let mut regs = Vec::new();
        for (i, f) in m.files.iter().enumerate() {
            for idx in 0..f.count {
                regs.push((RegRef::new(FileId(i as u16), idx), f.width));
            }
        }
        FaultSpace {
            store_len,
            word_bits: u32::from(m.control_word_bits()).min(128),
            regs,
            mem_lo: 0,
            mem_hi: MEM_WORDS,
            cycle_horizon: cycle_horizon.max(1),
        }
    }
}

/// Relative weights of the fault kinds a campaign draws from. A zero
/// weight excludes that kind entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix {
    /// Single-bit control store upsets.
    pub control: u32,
    /// Register-file upsets.
    pub register: u32,
    /// Main-memory upsets.
    pub memory: u32,
    /// Persistent stuck-at control fields.
    pub stuck: u32,
    /// Page unmappings (exercise the §2.1.5 restart microtrap).
    pub unmap: u32,
}

impl Default for FaultMix {
    /// Control-store upsets dominate (the paper's central store is the
    /// biggest cross-section), with a tail of register, memory, stuck-at
    /// and paging faults.
    fn default() -> Self {
        FaultMix {
            control: 50,
            register: 20,
            memory: 15,
            stuck: 10,
            unmap: 5,
        }
    }
}

impl FaultMix {
    fn total(&self) -> u32 {
        self.control + self.register + self.memory + self.stuck + self.unmap
    }
}

/// Draws one fault uniformly from `space` according to `mix`.
///
/// # Panics
///
/// Panics when every weight in `mix` is zero, or when `mix` asks for
/// register faults but `space.regs` is empty.
pub fn sample_fault(rng: &mut StdRng, space: &FaultSpace, mix: &FaultMix) -> Fault {
    let total = mix.total();
    assert!(total > 0, "fault mix has no enabled kinds");
    let at_cycle = rng.gen_range(1..=space.cycle_horizon);
    let pick = rng.gen_range(0..total);
    // Cumulative weight boundaries: [0, control) control flips,
    // [control, control+register) register upsets, and so on.
    let reg_hi = mix.control + mix.register;
    let mem_hi = reg_hi + mix.memory;
    let stuck_hi = mem_hi + mix.stuck;
    let kind = if pick < mix.control {
        FaultKind::ControlBitFlip {
            addr: rng.gen_range(0..space.store_len.max(1)),
            bit: rng.gen_range(0..space.word_bits.max(1)) as u8,
        }
    } else if pick < reg_hi {
        let (reg, width) = space.regs[rng.gen_range(0..space.regs.len())];
        FaultKind::RegisterUpset {
            reg,
            bit: rng.gen_range(0..u32::from(width.max(1))) as u8,
        }
    } else if pick < mem_hi {
        let (lo, hi) = if space.mem_lo < space.mem_hi {
            (space.mem_lo, space.mem_hi)
        } else {
            (0, PAGE_WORDS)
        };
        FaultKind::MemoryUpset {
            addr: rng.gen_range(lo..hi),
            bit: rng.gen_range(0..16u32) as u8,
        }
    } else if pick < stuck_hi {
        let lo = rng.gen_range(0..space.word_bits.max(1)) as u8;
        FaultKind::StuckField {
            addr: rng.gen_range(0..space.store_len.max(1)),
            lo,
            width: rng.gen_range(1..=8u32) as u8,
            stuck_one: rng.gen_bool(0.5),
        }
    } else {
        FaultKind::UnmapPage {
            page: rng.gen_range(0..(MEM_WORDS / PAGE_WORDS)),
        }
    };
    Fault { at_cycle, kind }
}

/// Dependability classes for one fault-injection trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The run completed with the correct result and no recovery was
    /// needed — the fault had no architectural effect.
    Masked,
    /// The run completed correctly *because* detection and
    /// restart-from-checkpoint recovery intervened.
    Recovered,
    /// The machine stopped in a defined error state (machine check,
    /// undecodable word, off-end, stack underflow) instead of producing
    /// wrong data.
    DetectedHalt,
    /// The watchdog (or the blunt cycle budget) caught a runaway — the
    /// program never reached its halt.
    Hang,
    /// Silent data corruption: the run "succeeded" with a wrong result.
    /// The class a dependable design must drive toward zero.
    Sdc,
}

impl Outcome {
    /// Table label.
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Recovered => "recovered",
            Outcome::DetectedHalt => "detected-halt",
            Outcome::Hang => "hang",
            Outcome::Sdc => "SDC",
        }
    }
}

/// Classifies one trial. `correct` reports whether the observable result
/// matched the fault-free reference (only consulted when the run
/// completed).
pub fn classify(result: &Result<SimStats, SimError>, correct: bool) -> Outcome {
    match result {
        Ok(stats) => {
            if !correct {
                Outcome::Sdc
            } else if stats.fault_recoveries > 0 {
                Outcome::Recovered
            } else {
                Outcome::Masked
            }
        }
        Err(SimError::WatchdogExpired(_)) | Err(SimError::CycleLimit(_)) => Outcome::Hang,
        Err(
            SimError::MachineCheck(_)
            | SimError::BadInstr(_)
            | SimError::OffEnd(_)
            | SimError::StackUnderflow,
        ) => Outcome::DetectedHalt,
    }
}

/// Per-class counts for a finished campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// No architectural effect.
    pub masked: u64,
    /// Detected and recovered to a correct result.
    pub recovered: u64,
    /// Stopped in a defined error state.
    pub detected_halt: u64,
    /// Caught looping by the watchdog or cycle budget.
    pub hang: u64,
    /// Completed with a wrong result.
    pub sdc: u64,
}

impl Tally {
    /// Adds one outcome.
    pub fn add(&mut self, o: Outcome) {
        match o {
            Outcome::Masked => self.masked += 1,
            Outcome::Recovered => self.recovered += 1,
            Outcome::DetectedHalt => self.detected_halt += 1,
            Outcome::Hang => self.hang += 1,
            Outcome::Sdc => self.sdc += 1,
        }
    }

    /// Total trials tallied.
    pub fn total(&self) -> u64 {
        self.masked + self.recovered + self.detected_halt + self.hang + self.sdc
    }

    /// Fraction of trials that did *not* end in silent data corruption —
    /// the headline dependability number.
    pub fn coverage(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            1.0
        } else {
            1.0 - (self.sdc as f64) / (t as f64)
        }
    }
}

/// One recorded trial.
#[derive(Debug, Clone)]
pub struct TrialRecord {
    /// Trial index (also the per-trial RNG offset).
    pub trial: usize,
    /// The fault injected.
    pub fault: Fault,
    /// How the run ended.
    pub outcome: Outcome,
}

/// A finished campaign: the tally plus every trial for drill-down.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Per-class counts.
    pub tally: Tally,
    /// All trials in injection order.
    pub trials: Vec<TrialRecord>,
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Master seed; the entire campaign is a pure function of it.
    pub seed: u64,
    /// Number of independent single-fault trials.
    pub trials: usize,
    /// Which faults to draw.
    pub mix: FaultMix,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            seed: 0xC0FFEE,
            trials: 1000,
            mix: FaultMix::default(),
        }
    }
}

/// Runs a campaign: for each trial, samples one fault, hands the
/// single-fault plan to `exec` (which compiles nothing — it just runs the
/// prepared simulator against the plan and reports the raw result plus
/// whether the observable answer was correct), and classifies.
///
/// Determinism: the sampler is seeded from `spec.seed` alone, and trials
/// are executed in order, so the same spec and the same `exec` behaviour
/// yield an identical report.
pub fn run_campaign<F>(spec: &CampaignSpec, space: &FaultSpace, mut exec: F) -> CampaignReport
where
    F: FnMut(FaultPlan) -> (Result<SimStats, SimError>, bool),
{
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut tally = Tally::default();
    let mut trials = Vec::with_capacity(spec.trials);
    for trial in 0..spec.trials {
        let fault = sample_fault(&mut rng, space, &spec.mix);
        let plan = FaultPlan {
            faults: vec![fault],
        };
        let (result, correct) = exec(plan);
        let outcome = classify(&result, correct);
        tally.add(outcome);
        trials.push(TrialRecord {
            trial,
            fault,
            outcome,
        });
    }
    CampaignReport { tally, trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;

    fn space() -> FaultSpace {
        FaultSpace::new(&hm1(), 32, 500)
    }

    #[test]
    fn sampling_is_deterministic() {
        let s = space();
        let mix = FaultMix::default();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| sample_fault(&mut rng, &s, &mix))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43), "different seeds, different faults");
    }

    #[test]
    fn sampled_faults_stay_in_bounds() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..500 {
            let f = sample_fault(&mut rng, &s, &FaultMix::default());
            assert!(f.at_cycle >= 1 && f.at_cycle <= s.cycle_horizon);
            match f.kind {
                FaultKind::ControlBitFlip { addr, bit } => {
                    assert!(addr < s.store_len);
                    assert!(u32::from(bit) < s.word_bits);
                }
                FaultKind::RegisterUpset { reg, bit } => {
                    let (_, w) = s.regs.iter().find(|(r, _)| *r == reg).expect("known reg");
                    assert!(u16::from(bit) < *w);
                }
                FaultKind::MemoryUpset { addr, bit } => {
                    assert!(addr < MEM_WORDS);
                    assert!(bit < 16);
                }
                FaultKind::StuckField { addr, lo, width, .. } => {
                    assert!(addr < s.store_len);
                    assert!(u32::from(lo) < s.word_bits);
                    assert!((1..=8).contains(&width));
                }
                FaultKind::UnmapPage { page } => {
                    assert!(page < MEM_WORDS / PAGE_WORDS);
                }
            }
        }
    }

    #[test]
    fn mix_weights_select_kinds() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(11);
        let control_only = FaultMix {
            control: 1,
            register: 0,
            memory: 0,
            stuck: 0,
            unmap: 0,
        };
        for _ in 0..100 {
            let f = sample_fault(&mut rng, &s, &control_only);
            assert!(matches!(f.kind, FaultKind::ControlBitFlip { .. }));
        }
    }

    #[test]
    fn classification_covers_every_ending() {
        let ok = |recoveries| {
            Ok(SimStats {
                fault_recoveries: recoveries,
                ..Default::default()
            })
        };
        assert_eq!(classify(&ok(0), true), Outcome::Masked);
        assert_eq!(classify(&ok(2), true), Outcome::Recovered);
        assert_eq!(classify(&ok(0), false), Outcome::Sdc);
        assert_eq!(
            classify(&Err(SimError::WatchdogExpired(64)), true),
            Outcome::Hang
        );
        assert_eq!(classify(&Err(SimError::CycleLimit(1000)), true), Outcome::Hang);
        assert_eq!(
            classify(&Err(SimError::MachineCheck("persistent".into())), true),
            Outcome::DetectedHalt
        );
        assert_eq!(
            classify(&Err(SimError::BadInstr("undecodable".into())), true),
            Outcome::DetectedHalt
        );
    }

    #[test]
    fn tally_totals_and_coverage() {
        let mut t = Tally::default();
        for o in [
            Outcome::Masked,
            Outcome::Masked,
            Outcome::Recovered,
            Outcome::Sdc,
        ] {
            t.add(o);
        }
        assert_eq!(t.total(), 4);
        assert!((t.coverage() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn campaign_is_reproducible_and_complete() {
        let s = space();
        let spec = CampaignSpec {
            seed: 99,
            trials: 50,
            ..Default::default()
        };
        // A fake executor keyed off the fault so outcomes vary: the report
        // must still be a pure function of the seed.
        let exec = |plan: FaultPlan| {
            let f = plan.faults[0];
            match f.kind {
                FaultKind::ControlBitFlip { bit, .. } if bit % 3 == 0 => {
                    (Err(SimError::MachineCheck("x".into())), false)
                }
                FaultKind::RegisterUpset { .. } => (Ok(SimStats::default()), false),
                _ => (Ok(SimStats::default()), true),
            }
        };
        let a = run_campaign(&spec, &s, exec);
        let b = run_campaign(&spec, &s, exec);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.tally.total(), 50);
        assert_eq!(a.trials.len(), 50);
        assert!(a
            .trials
            .iter()
            .zip(&b.trials)
            .all(|(x, y)| x.fault == y.fault && x.outcome == y.outcome));
    }
}
