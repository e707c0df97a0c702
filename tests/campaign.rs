//! End-to-end tests for the supervised campaign runner (ISSUE 3
//! acceptance criteria): worker-count independence of the rendered
//! tables, checkpoint/resume from a torn journal without re-executing
//! finished jobs, and chaos-mode degradation that stays visible instead
//! of wedging the campaign.

use std::fs;
use std::path::PathBuf;
use std::time::Duration;

use mcc::bench::campaign as bc;
use mcc::harness::{run_campaign, ChaosPlan, HarnessConfig, Job, JobStatus};

/// A scratch journal path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mcc-it-{}-{}.jsonl", std::process::id(), name))
}

#[test]
fn e10_table_is_identical_for_one_and_four_workers() {
    const TRIALS: u64 = 3;
    let mut tables = Vec::new();
    for workers in [1usize, 4] {
        let cfg = HarnessConfig {
            campaign: "e10".into(),
            workers,
            ..HarnessConfig::default()
        };
        let path = scratch(&format!("e10-w{workers}"));
        let report = run_campaign(bc::e10_jobs(TRIALS), &cfg, &path, false).unwrap();
        assert_eq!(report.stats.ok, 16);
        tables.push(bc::e10_table(&report.outcomes, TRIALS));
        fs::remove_file(&path).ok();
    }
    let (a, b) = (&tables[0], &tables[1]);
    assert_eq!(a.header, b.header);
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.notes, b.notes);
}

#[test]
fn resume_from_torn_journal_matches_fresh_without_rerunning_finished_jobs() {
    const TRIALS: u64 = 2;
    let cfg = HarnessConfig {
        campaign: "e10".into(),
        ..HarnessConfig::default()
    };

    let fresh_path = scratch("e10-fresh");
    let fresh = run_campaign(bc::e10_jobs(TRIALS), &cfg, &fresh_path, false).unwrap();
    assert_eq!(fresh.stats.ok, 16);

    // Simulate a mid-campaign kill: keep the header plus the first 8
    // records, then a torn half-record with no trailing newline.
    let text = fs::read_to_string(&fresh_path).unwrap();
    let mut lines = text.lines();
    let mut cut: String = lines.by_ref().take(9).collect::<Vec<_>>().join("\n");
    cut.push('\n');
    let tail = lines.next().unwrap();
    cut.push_str(&tail[..tail.len() / 2]);
    let cut_path = scratch("e10-cut");
    fs::write(&cut_path, &cut).unwrap();

    let resumed = run_campaign(bc::e10_jobs(TRIALS), &cfg, &cut_path, true).unwrap();
    assert_eq!(resumed.stats.resumed, 8, "8 journaled jobs must be replayed");
    assert_eq!(resumed.stats.executed, 8, "only the other 8 may execute");
    assert_eq!(resumed.outcomes, fresh.outcomes);

    let ta = bc::e10_table(&fresh.outcomes, TRIALS);
    let tb = bc::e10_table(&resumed.outcomes, TRIALS);
    assert_eq!(ta.rows, tb.rows);
    assert_eq!(ta.notes, tb.notes);
    fs::remove_file(&fresh_path).ok();
    fs::remove_file(&cut_path).ok();
}

#[test]
fn chaos_mode_degrades_visibly_and_still_finishes() {
    // 16 synthetic jobs over 4 breaker keys; chaos picks one key as the
    // always-failing victim, so its breaker must trip and the tail of
    // its jobs must surface as skipped/degraded rather than hang.
    let keys = ["k0", "k1", "k2", "k3"];
    let jobs: Vec<Job> = (0..16)
        .map(|i| {
            let key = keys[i % 4];
            Job::new(format!("chaos/{key}/{i}"), key, move || {
                Ok(vec![format!("cell-{i}")])
            })
        })
        .collect();
    let cfg = HarnessConfig {
        campaign: "chaos-it".into(),
        workers: 4,
        deadline: Some(Duration::from_millis(200)),
        attempts: 2,
        seed: 7,
        chaos: true,
        ..HarnessConfig::default()
    };
    let key_names: Vec<String> = keys.iter().map(|k| k.to_string()).collect();
    let victim = ChaosPlan::new(cfg.seed, &key_names)
        .victim()
        .expect("plan picks a victim key")
        .to_string();

    let path = scratch("chaos");
    let report = run_campaign(jobs, &cfg, &path, false).unwrap();

    assert_eq!(report.outcomes.len(), 16, "every job must resolve");
    assert!(report.stats.chaos_faults > 0, "chaos must inject faults");
    assert!(report.stats.retries > 0, "failed attempts must be retried");
    assert!(report.stats.breaker_trips >= 1, "victim key must trip its breaker");
    assert_eq!(report.degraded, vec![victim.clone()]);
    for o in &report.outcomes {
        let on_victim = o.id.contains(&format!("/{victim}/"));
        if on_victim {
            assert_ne!(o.status, JobStatus::Ok, "victim jobs always fail: {}", o.id);
        } else {
            assert_eq!(o.status, JobStatus::Ok, "non-victim job failed: {}", o.id);
        }
    }

    // The chaos epilogue tears the journal tail: the file must not end
    // in a newline, yet recovery must still replay every sealed record.
    let bytes = fs::read(&path).unwrap();
    assert_ne!(bytes.last(), Some(&b'\n'), "chaos must tear the journal tail");
    fs::remove_file(&path).ok();
}

/// Runs `mcc campaign <args>` with its journal in the temp directory.
fn campaign_cli(name: &str, args: &[&str]) -> std::process::Output {
    let journal = scratch(name);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_mcc"))
        .arg("campaign")
        .args(args)
        .args(["--jobs", "2", "--journal"])
        .arg(&journal)
        .output()
        .expect("mcc runs");
    let _ = fs::remove_file(&journal);
    out
}

#[test]
fn campaign_cli_resolves_the_machine_and_titles_tables_like_the_exp_binaries() {
    let out = campaign_cli("cli-fuzz", &["fuzz", "--machine", "vertica", "--trials", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("fuzz campaign on VM-1 (1 trials/frontend)"), "{stdout}");

    let out = campaign_cli("cli-bogus", &["fuzz", "--machine", "bogus", "--trials", "1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown machine `bogus`"), "{stderr}");

    let out = campaign_cli("cli-e10", &["e10", "--trials", "1"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains(bc::E10_TITLE), "{stdout}");
}
