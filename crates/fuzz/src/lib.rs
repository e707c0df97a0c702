//! mcc-fuzz: differential fuzzing for the whole compilation pipeline.
//!
//! Three cooperating pieces (§2.1.1's "the microprogrammer must be able
//! to trust the translator" turned into an executable criterion):
//!
//! * [`gen`] — seeded, grammar-directed generators that emit well-formed
//!   SIMPL, EMPL, S*, and YALLL programs, plus [`mutate`], which derives
//!   malformed byte-level variants from them.
//! * [`oracle`] — every program is compiled once per compaction
//!   algorithm with [`mcc_compact::Algorithm::Sequential`] as the
//!   reference, executed in `mcc-sim`, and the final architectural state
//!   compared. Divergence, a panic, a budget blowout, or a
//!   diagnostic-quality failure is a *finding*.
//! * [`shrink`] — findings are automatically reduced (line-, statement-,
//!   and token-level delta debugging) while they keep failing.
//!
//! Campaigns are fully deterministic: the per-trial RNG is derived from
//! `(seed, language, trial)` alone, so `mcc fuzz --seed N` reproduces
//! bit-identical findings and the E10 robustness table (`mcc campaign
//! e10`) is stable.

pub mod gen;
pub mod mutate;
pub mod oracle;
pub mod shrink;

use std::fmt;

use rand::{rngs::StdRng, SeedableRng};

pub use mcc_core::SourceLang;
use mcc_machine::MachineDesc;

/// What kind of robustness failure a trial exposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingClass {
    /// A panic escaped a frontend or pipeline pass (surfaced as
    /// `CompileError::Internal` by the containment boundary).
    Panic,
    /// A generated, guaranteed-terminating program hit the simulator's
    /// cycle budget under the sequential reference.
    Hang,
    /// A compaction algorithm disagreed with the sequential reference:
    /// accept/reject, stop class, or final architectural state.
    Mismatch,
    /// Diagnostic quality: a well-formed program was rejected, or a
    /// malformed one produced an empty message or an out-of-range span.
    Diagnostic,
    /// A resource limit tripped on a well-formed generated program.
    Budget,
}

impl FindingClass {
    /// Every class, in table-column order.
    pub const ALL: [FindingClass; 5] = [
        FindingClass::Panic,
        FindingClass::Hang,
        FindingClass::Mismatch,
        FindingClass::Diagnostic,
        FindingClass::Budget,
    ];

    /// Column label.
    pub fn name(self) -> &'static str {
        match self {
            FindingClass::Panic => "panic",
            FindingClass::Hang => "hang",
            FindingClass::Mismatch => "mismatch",
            FindingClass::Diagnostic => "diagnostic",
            FindingClass::Budget => "budget",
        }
    }

    fn index(self) -> usize {
        match self {
            FindingClass::Panic => 0,
            FindingClass::Hang => 1,
            FindingClass::Mismatch => 2,
            FindingClass::Diagnostic => 3,
            FindingClass::Budget => 4,
        }
    }
}

impl fmt::Display for FindingClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One reproducible robustness failure.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Failure class.
    pub class: FindingClass,
    /// Frontend under test.
    pub lang: SourceLang,
    /// Trial number within the language (re-derives the RNG).
    pub trial: u64,
    /// Human-readable description of the disagreement.
    pub detail: String,
    /// The program that triggered it.
    pub program: String,
    /// The shrunk program (equal to `program` when shrinking is off).
    pub shrunk: String,
}

/// Per-frontend finding counts.
#[derive(Debug, Clone)]
pub struct LangReport {
    /// Frontend.
    pub lang: SourceLang,
    /// Trials run.
    pub trials: u64,
    /// Findings per class, indexed like [`FindingClass::ALL`].
    pub counts: [u64; 5],
}

/// A whole campaign's results.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Seed the campaign ran under.
    pub seed: u64,
    /// One row per frontend.
    pub reports: Vec<LangReport>,
    /// Every finding, in discovery order.
    pub findings: Vec<Finding>,
}

impl FuzzReport {
    /// Total findings across all frontends and classes.
    pub fn total_findings(&self) -> u64 {
        self.reports.iter().map(|r| r.counts.iter().sum::<u64>()).sum()
    }

    /// Deterministic findings-per-class table (the E10 payload).
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:<10}", "frontend"));
        for c in FindingClass::ALL {
            out.push_str(&format!("{:>12}", c.name()));
        }
        out.push('\n');
        let mut totals = [0u64; 5];
        for r in &self.reports {
            out.push_str(&format!("{:<10}", r.lang.name()));
            for (i, n) in r.counts.iter().enumerate() {
                totals[i] += n;
                out.push_str(&format!("{n:>12}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<10}", "total"));
        for n in totals {
            out.push_str(&format!("{n:>12}"));
        }
        out.push('\n');
        out
    }
}

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every trial's RNG derives from it deterministically.
    pub seed: u64,
    /// Trials per frontend.
    pub trials: u64,
    /// Frontends to fuzz.
    pub langs: Vec<SourceLang>,
    /// Target machine.
    pub machine: MachineDesc,
    /// Whether to shrink findings (costs extra oracle runs per finding).
    pub shrink: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            trials: 100,
            langs: SourceLang::ALL.to_vec(),
            machine: mcc_machine::machines::hm1(),
            shrink: true,
        }
    }
}

/// Oracle checks per shrink attempt; bounds reduction cost per finding.
const SHRINK_BUDGET: usize = 300;

/// Strips digits so details differing only in positions, block ids, or
/// concrete values still count as "the same finding" while shrinking.
/// Without this a `Diagnostic` finding would happily shrink to the empty
/// program, which is also rejected — just not for the interesting reason.
fn normalized_detail(d: &str) -> String {
    d.chars().filter(|c| !c.is_ascii_digit()).collect()
}

fn trial_rng(seed: u64, lang: SourceLang, trial: u64) -> StdRng {
    // Golden-ratio mixing keeps per-(lang, trial) streams independent of
    // each other while staying a pure function of the inputs.
    let mix = seed
        ^ (lang.name().len() as u64 ^ (lang as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ trial.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    StdRng::seed_from_u64(mix)
}

/// Checks one input through the containment + differential oracle.
///
/// `expect_wellformed` selects the strict path (generated programs must
/// compile, halt, and agree) versus the containment path (mutants may
/// fail, but only with a clean, span-carrying diagnostic, and never
/// divergently).
fn check(
    m: &MachineDesc,
    lang: SourceLang,
    src: &str,
    expect_wellformed: bool,
) -> Option<(FindingClass, String)> {
    if !expect_wellformed {
        // Diagnostic-quality gate on the bare frontend first: a panic or
        // a malformed span here is a finding even if the driver's
        // containment boundary would have masked it.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            oracle::frontend_diag(lang, m, src)
        }));
        match r {
            Err(_) => {
                return Some((
                    FindingClass::Panic,
                    "frontend panicked on malformed input".to_string(),
                ));
            }
            Ok(Err(d)) => {
                if d.message.trim().is_empty() {
                    return Some((
                        FindingClass::Diagnostic,
                        "empty diagnostic message".to_string(),
                    ));
                }
                if d.span.start > d.span.end || d.span.end > src.len() {
                    return Some((
                        FindingClass::Diagnostic,
                        format!(
                            "span {}..{} out of range for {}-byte source",
                            d.span.start,
                            d.span.end,
                            src.len()
                        ),
                    ));
                }
            }
            Ok(Ok(())) => {}
        }
    }
    oracle::run_trial(m, lang, src, expect_wellformed)
}

/// Runs a campaign. Deterministic in `cfg`.
pub fn fuzz(cfg: &FuzzConfig) -> FuzzReport {
    fuzz_range(cfg, 0, cfg.trials)
}

/// Runs only the trial window `lo..hi` of the campaign `cfg` describes.
///
/// Because each trial's RNG is a pure function of `(seed, lang, trial)`,
/// the window executes exactly the trials the full campaign would, with
/// identical programs and findings — so a campaign can be chunked into
/// independent harness jobs and the per-class counts summed back together
/// without changing a single number. `cfg.trials` is ignored; the window
/// bounds it instead.
pub fn fuzz_range(cfg: &FuzzConfig, lo: u64, hi: u64) -> FuzzReport {
    let mut reports = Vec::new();
    let mut findings = Vec::new();
    for &lang in &cfg.langs {
        let mut counts = [0u64; 5];
        for trial in lo..hi {
            let mut rng = trial_rng(cfg.seed, lang, trial);
            // Even trials: strict differential check of a generated
            // program. Odd trials: containment check of a mutant derived
            // from a fresh generation or the example corpus.
            let (src, wellformed) = if trial % 2 == 0 {
                (gen::generate(lang, &cfg.machine, &mut rng), true)
            } else {
                let base = if trial % 4 == 1 {
                    let ex = gen::examples(lang);
                    ex[(trial as usize / 4) % ex.len()].to_string()
                } else {
                    gen::generate(lang, &cfg.machine, &mut rng)
                };
                (mutate::mutate(&base, &mut rng), false)
            };
            if let Some((class, detail)) = check(&cfg.machine, lang, &src, wellformed) {
                counts[class.index()] += 1;
                let shrunk = if cfg.shrink {
                    let want = normalized_detail(&detail);
                    shrink::shrink(
                        &src,
                        |s| {
                            check(&cfg.machine, lang, s, wellformed)
                                .map(|(c, d)| c == class && normalized_detail(&d) == want)
                                .unwrap_or(false)
                        },
                        SHRINK_BUDGET,
                    )
                } else {
                    src.clone()
                };
                findings.push(Finding {
                    class,
                    lang,
                    trial,
                    detail,
                    program: src,
                    shrunk,
                });
            }
        }
        reports.push(LangReport {
            lang,
            trials: hi.saturating_sub(lo),
            counts,
        });
    }
    FuzzReport {
        seed: cfg.seed,
        reports,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_campaign(seed: u64) -> FuzzReport {
        fuzz(&FuzzConfig {
            seed,
            trials: 20,
            ..FuzzConfig::default()
        })
    }

    #[test]
    fn healthy_tree_has_zero_findings() {
        let report = small_campaign(7);
        assert_eq!(
            report.total_findings(),
            0,
            "findings on a healthy tree:\n{}\nfirst: {:?}",
            report.table(),
            report.findings.first().map(|f| (&f.detail, &f.shrunk))
        );
    }

    #[test]
    fn campaigns_are_deterministic() {
        let a = small_campaign(42);
        let b = small_campaign(42);
        assert_eq!(a.table(), b.table());
        assert_eq!(a.findings.len(), b.findings.len());
        for (fa, fb) in a.findings.iter().zip(&b.findings) {
            assert_eq!(fa.program, fb.program);
            assert_eq!(fa.detail, fb.detail);
        }
    }

    #[test]
    fn different_seeds_generate_different_programs() {
        let m = mcc_machine::machines::hm1();
        let mut r1 = trial_rng(1, SourceLang::Simpl, 0);
        let mut r2 = trial_rng(2, SourceLang::Simpl, 0);
        assert_ne!(
            gen::generate(SourceLang::Simpl, &m, &mut r1),
            gen::generate(SourceLang::Simpl, &m, &mut r2)
        );
    }

    #[test]
    fn chunked_windows_sum_to_the_full_campaign() {
        let cfg = FuzzConfig {
            seed: 42,
            trials: 20,
            ..FuzzConfig::default()
        };
        let full = fuzz(&cfg);
        let a = fuzz_range(&cfg, 0, 8);
        let b = fuzz_range(&cfg, 8, 20);
        for (i, r) in full.reports.iter().enumerate() {
            let summed: Vec<u64> = (0..5)
                .map(|c| a.reports[i].counts[c] + b.reports[i].counts[c])
                .collect();
            assert_eq!(r.counts.to_vec(), summed, "{} counts", r.lang.name());
        }
        assert_eq!(full.findings.len(), a.findings.len() + b.findings.len());
    }

    #[test]
    fn table_is_well_formed() {
        let report = small_campaign(3);
        let table = report.table();
        assert!(table.contains("frontend"));
        assert!(table.contains("total"));
        for lang in SourceLang::ALL {
            assert!(table.contains(lang.name()));
        }
        for class in FindingClass::ALL {
            assert!(table.contains(class.name()));
        }
    }
}
