//! Experiment campaigns as supervised harness job lists.
//!
//! E9, E10, and the fuzz campaign each decompose into independent jobs —
//! one table row (or one trial window) per job — that `mcc-harness` fans
//! over a worker pool with deadlines, retries, circuit breakers, and a
//! crash-only journal. Every job is a pure function of its parameters, so
//! the assembled table is byte-identical whether the campaign ran on one
//! worker or eight, uninterrupted or killed-and-resumed; see the harness
//! crate docs for the contract. Rows stream into the journal as they
//! finish: a campaign killed at 50% has 50% of its rows fsync'd on disk,
//! and `--resume` completes the rest without re-running any of them.

use mcc_fuzz::{fuzz_range, FuzzConfig, SourceLang};
use mcc_harness::{Job, JobOutcome, JobStatus};
use mcc_machine::{machines, MachineDesc};

use crate::experiments::{
    e10_header, e10_notes, e10_row, e9_campaign, e9_compiler, e9_header, e9_notes, e9_row, Table,
};
use crate::kernels::suite;

/// A degraded table row: the label plus a `-` per data column, so a
/// failed or breaker-skipped job stays *visible* in the table instead of
/// silently shrinking it.
fn degraded_row(label: String, data_columns: usize) -> Vec<String> {
    let mut row = vec![label];
    row.extend((0..data_columns).map(|_| "-".to_string()));
    row
}

/// Strips the campaign prefix (`"e9/"`, `"e10/"`) off a job id to get the
/// row label, and rejoins the remaining path segments with `/`.
fn row_label(job_id: &str) -> String {
    match job_id.split_once('/') {
        Some((_, rest)) => rest.to_string(),
        None => job_id.to_string(),
    }
}

/// Appends one note per non-Ok outcome so degradation is reported, not
/// hidden. Returns how many outcomes were degraded.
fn degradation_notes(outcomes: &[JobOutcome], notes: &mut Vec<String>) -> usize {
    let mut degraded = 0;
    for o in outcomes {
        match o.status {
            JobStatus::Ok => {}
            JobStatus::Failed => {
                degraded += 1;
                notes.push(format!(
                    "DEGRADED {}: failed after {} attempts ({}).",
                    o.id, o.attempts, o.error
                ));
            }
            JobStatus::Skipped => {
                degraded += 1;
                notes.push(format!("DEGRADED {}: skipped ({}).", o.id, o.error));
            }
        }
    }
    degraded
}

// ----------------------------------------------------------------- E9 ----

/// The title E9's table prints under.
pub const E9_TITLE: &str =
    "E9: fault-injection dependability - raw vs parity-protected control store";

/// E9, dependability under seeded fault injection (§2.1.5 extended: the
/// microarchitecture must keep its promises when hardware misbehaves), as
/// a job list: one job per (kernel, store mode). The breaker key is the
/// kernel, so one pathological kernel is skipped instead of starving the
/// other rows.
pub fn e9_jobs(trials: usize) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (i, k) in suite().iter().enumerate() {
        for (label, protect) in [("raw", false), ("ecc", true)] {
            let id = format!("e9/{}/{label}", k.name);
            jobs.push(Job::new(id, k.name, move || {
                let ks = suite();
                let k = &ks[i];
                let c = e9_compiler();
                let t = e9_campaign(k, &c, protect, 1980 + i as u64, trials);
                Ok(e9_row(format!("{}/{label}", k.name), &t))
            }));
        }
    }
    jobs
}

/// Assembles the E9 table from campaign outcomes (in job order).
pub fn e9_table(outcomes: &[JobOutcome], trials: usize) -> Table {
    let rows = outcomes
        .iter()
        .map(|o| match o.status {
            JobStatus::Ok => o.cells.clone(),
            _ => degraded_row(row_label(&o.id), e9_header().len() - 1),
        })
        .collect();
    let mut notes = e9_notes(trials);
    degradation_notes(outcomes, &mut notes);
    Table {
        header: e9_header(),
        rows,
        notes,
    }
}

// ----------------------------------------------------------------- E10 ---

/// The title E10's table prints under.
pub const E10_TITLE: &str =
    "E10: differential fuzzing robustness - findings per class, all machines";

/// E10 as a job list: one job per (machine, frontend) — 16 jobs. Each is
/// one differential-fuzzing campaign at a fixed seed, and its row counts
/// findings per class, so a healthy tree is all-zero. Unlike E1–E9, which
/// measure *performance*, E10 measures *trustworthiness*: §2.1.1's
/// premise that the programmer must be able to rely on the translator,
/// made into a regenerable number. The breaker key is the frontend: a
/// frontend whose jobs keep dying is the pathological combination the
/// breaker exists to contain.
pub fn e10_jobs(trials: u64) -> Vec<Job> {
    let mut jobs = Vec::new();
    for m in machines::all() {
        for lang in SourceLang::ALL {
            let id = format!("e10/{}/{}", m.name, lang.name());
            let m = m.clone();
            jobs.push(Job::new(id, lang.name(), move || {
                let report = fuzz_range(
                    &FuzzConfig {
                        seed: 1,
                        trials,
                        langs: vec![lang],
                        machine: m.clone(),
                        ..FuzzConfig::default()
                    },
                    0,
                    trials,
                );
                let r = &report.reports[0];
                Ok(e10_row(format!("{}/{}", m.name, lang.name()), &r.counts))
            }));
        }
    }
    jobs
}

/// Assembles the E10 table from campaign outcomes (in job order).
pub fn e10_table(outcomes: &[JobOutcome], trials: u64) -> Table {
    let mut total = 0u64;
    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| match o.status {
            JobStatus::Ok => {
                total += o.cells[1..]
                    .iter()
                    .map(|c| c.parse::<u64>().unwrap_or(0))
                    .sum::<u64>();
                o.cells.clone()
            }
            _ => degraded_row(row_label(&o.id), e10_header().len() - 1),
        })
        .collect();
    let mut notes = e10_notes(trials, total);
    if degradation_notes(outcomes, &mut notes) > 0 {
        notes.push("Total excludes degraded rows.".to_string());
    }
    Table {
        header: e10_header(),
        rows,
        notes,
    }
}

// ----------------------------------------------------------------- fuzz --

/// Trials per fuzz job: small enough that a kill loses little work,
/// large enough that journal overhead stays negligible.
pub const FUZZ_CHUNK: u64 = 25;

/// A fuzz run as a job list: one job per (frontend, trial window), the
/// window small so progress journals frequently. Relies on
/// [`mcc_fuzz::fuzz_range`]'s per-trial RNG: chunked counts sum to
/// exactly the unchunked campaign's.
pub fn fuzz_jobs(seed: u64, trials: u64, machine: &MachineDesc) -> Vec<Job> {
    let mut jobs = Vec::new();
    for lang in SourceLang::ALL {
        let mut lo = 0u64;
        while lo < trials {
            let hi = (lo + FUZZ_CHUNK).min(trials);
            let id = format!("fuzz/{}/{lo}..{hi}", lang.name());
            let m = machine.clone();
            jobs.push(Job::new(id, lang.name(), move || {
                let report = fuzz_range(
                    &FuzzConfig {
                        seed,
                        trials,
                        langs: vec![lang],
                        machine: m.clone(),
                        ..FuzzConfig::default()
                    },
                    lo,
                    hi,
                );
                let r = &report.reports[0];
                let mut cells = vec![lang.name().to_string()];
                cells.extend(r.counts.iter().map(|n| n.to_string()));
                Ok(cells)
            }));
            lo = hi;
        }
    }
    jobs
}

/// Assembles the per-frontend findings table from fuzz-chunk outcomes.
pub fn fuzz_table(outcomes: &[JobOutcome], seed: u64, trials: u64) -> Table {
    use mcc_fuzz::FindingClass;
    let mut per_lang: Vec<(&'static str, [u64; 5])> = SourceLang::ALL
        .iter()
        .map(|l| (l.name(), [0u64; 5]))
        .collect();
    let mut totals = [0u64; 5];
    let mut notes = vec![format!(
        "{trials} trials per frontend, seed {seed}; chunked {FUZZ_CHUNK} trials per job."
    )];
    for o in outcomes {
        if o.status != JobStatus::Ok {
            continue;
        }
        if let Some((_, counts)) = per_lang.iter_mut().find(|(n, _)| *n == o.cells[0]) {
            for (i, c) in o.cells[1..].iter().enumerate() {
                let v = c.parse::<u64>().unwrap_or(0);
                counts[i] += v;
                totals[i] += v;
            }
        }
    }
    if degradation_notes(outcomes, &mut notes) > 0 {
        notes.push("Counts exclude degraded windows.".to_string());
    }
    let mut header = vec!["frontend"];
    header.extend(FindingClass::ALL.iter().map(|c| c.name()));
    let mut rows: Vec<Vec<String>> = per_lang
        .iter()
        .map(|(name, counts)| {
            let mut row = vec![name.to_string()];
            row.extend(counts.iter().map(|n| n.to_string()));
            row
        })
        .collect();
    let mut total_row = vec!["total".to_string()];
    total_row.extend(totals.iter().map(|n| n.to_string()));
    rows.push(total_row);
    Table {
        header,
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_harness::{run_campaign, HarnessConfig};
    use std::time::Duration;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("mcc-bench-campaign-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn hcfg(name: &str, workers: usize) -> HarnessConfig {
        HarnessConfig {
            campaign: name.to_string(),
            workers,
            deadline: Some(Duration::from_secs(120)),
            ..HarnessConfig::default()
        }
    }

    /// The acceptance pair for E9: a parity-protected store turns control
    /// corruption into detect → scrub → restart recoveries, and a raw
    /// store produces watchdog-caught hangs. Small trial count so the
    /// suite stays fast; `mcc campaign e9` runs the full 1000.
    #[test]
    fn e9_protected_store_recovers_and_raw_store_hangs() {
        const TRIALS: usize = 120;
        let p = tmp("e9-acceptance");
        let r = run_campaign(e9_jobs(TRIALS), &hcfg("e9", 4), &p, false).unwrap();
        std::fs::remove_file(&p).ok();
        let a = e9_table(&r.outcomes, TRIALS);
        let count = |suffix: &str, col: usize| -> u64 {
            a.rows
                .iter()
                .filter(|r| r[0].ends_with(suffix))
                .map(|r| r[col].parse::<u64>().unwrap())
                .sum()
        };
        // Columns: 1 masked, 2 recovered, 3 detected, 4 hang, 5 SDC.
        assert!(count("/ecc", 2) > 0, "no ECC recovery seen: {:?}", a.rows);
        assert!(count("/raw", 4) > 0, "no raw-store hang seen: {:?}", a.rows);
        // Protection must not lose ground on silent corruption overall.
        assert!(
            count("/ecc", 5) <= count("/raw", 5),
            "ECC store shows more SDC than raw: {:?}",
            a.rows
        );
    }

    /// Every job is a pure function of its parameters, so one worker and
    /// four render the identical E9 table.
    #[test]
    fn e9_table_is_identical_for_one_and_four_workers() {
        const TRIALS: usize = 10;
        let p1 = tmp("e9-w1");
        let p4 = tmp("e9-w4");
        let r1 = run_campaign(e9_jobs(TRIALS), &hcfg("e9", 1), &p1, false).unwrap();
        let r4 = run_campaign(e9_jobs(TRIALS), &hcfg("e9", 4), &p4, false).unwrap();
        let t1 = e9_table(&r1.outcomes, TRIALS);
        let t4 = e9_table(&r4.outcomes, TRIALS);
        assert_eq!(t1.rows.len(), 2 * suite().len());
        assert_eq!(t1.rows, t4.rows);
        assert_eq!(t1.notes, t4.notes);
        assert_eq!(t1.header, t4.header);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    /// The acceptance claim for E10: a healthy tree fuzzes clean on every
    /// machine × frontend cell. Small trial count so the suite stays
    /// fast; `mcc campaign e10` runs the full campaign.
    #[test]
    fn e10_healthy_tree_is_all_zero() {
        const TRIALS: u64 = 15;
        let p = tmp("e10-acceptance");
        let r = run_campaign(e10_jobs(TRIALS), &hcfg("e10", 4), &p, false).unwrap();
        std::fs::remove_file(&p).ok();
        let t = e10_table(&r.outcomes, TRIALS);
        assert_eq!(t.rows.len(), 16, "4 machines x 4 frontends");
        for row in &t.rows {
            for cell in &row[1..] {
                assert_eq!(cell, "0", "finding in {row:?}");
            }
        }
    }

    #[test]
    fn fuzz_chunks_assemble_the_full_table() {
        let p = tmp("fuzz-w2");
        let jobs = fuzz_jobs(1, 30, &machines::hm1());
        assert_eq!(jobs.len(), 4 * 2, "30 trials chunk into two jobs per frontend");
        let r = run_campaign(jobs, &hcfg("fuzz", 2), &p, false).unwrap();
        let t = fuzz_table(&r.outcomes, 1, 30);
        assert_eq!(t.rows.len(), 5, "four frontends plus the total row");
        let full = mcc_fuzz::fuzz(&FuzzConfig {
            seed: 1,
            trials: 30,
            ..FuzzConfig::default()
        });
        for (row, rep) in t.rows.iter().zip(full.reports.iter()) {
            assert_eq!(row[0], rep.lang.name());
            let got: Vec<u64> = row[1..].iter().map(|c| c.parse().unwrap()).collect();
            assert_eq!(got, rep.counts.to_vec(), "{} counts", rep.lang.name());
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn degraded_outcomes_render_visible_rows_and_notes() {
        let outcomes = vec![
            JobOutcome {
                id: "e9/sum/raw".into(),
                status: JobStatus::Ok,
                attempts: 1,
                error: String::new(),
                cells: vec![
                    "sum/raw".into(),
                    "1".into(),
                    "2".into(),
                    "3".into(),
                    "4".into(),
                    "5".into(),
                    "50.0%".into(),
                ],
            },
            JobOutcome {
                id: "e9/sum/ecc".into(),
                status: JobStatus::Failed,
                attempts: 3,
                error: "boom".into(),
                cells: vec![],
            },
            JobOutcome {
                id: "e9/qsort/raw".into(),
                status: JobStatus::Skipped,
                attempts: 0,
                error: "circuit breaker open for key `qsort`".into(),
                cells: vec![],
            },
        ];
        let t = e9_table(&outcomes, 10);
        assert_eq!(t.rows.len(), 3);
        assert_eq!(t.rows[1][0], "sum/ecc");
        assert!(t.rows[1][1..].iter().all(|c| c == "-"));
        assert_eq!(t.rows[2][0], "qsort/raw");
        assert!(t.notes.iter().any(|n| n.contains("DEGRADED e9/sum/ecc")));
        assert!(t
            .notes
            .iter()
            .any(|n| n.contains("DEGRADED e9/qsort/raw") && n.contains("skipped")));
    }
}
