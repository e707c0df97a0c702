//! Regenerates every experiment table in one run, fanning the jobs
//! across the `mcc-harness` worker pool with the content-addressed
//! compilation cache attached.
//!
//! Stdout carries *only* the tables, in catalog order, regardless of
//! worker count or cache temperature — `run_campaign` orders outcomes
//! by input job, and every byte a table can print is excluded from the
//! cache's volatile fields — so `exp_all | diff` against a warm rerun
//! must be empty (`tests/exp_all_cache.rs` checks it). Supervision and cache telemetry go
//! to stderr.
//!
//! ```text
//! exp_all [--jobs N] [--no-cache]
//!   EXP_ALL_JOBS        worker count        (default 4)
//!   EXP_ALL_E9_TRIALS   E9 trials per cell  (default 1000)
//!   EXP_ALL_E10_TRIALS  E10 trials per cell (default 250)
//!   MCC_CACHE_DIR       disk tier location  (default .mcc-cache)
//!   MCC_NO_CACHE        disable caching
//! ```

use mcc_bench::campaign as bc;
use mcc_bench::experiments as ex;
use mcc_harness::{run_campaign, HarnessConfig, Job, JobStatus};

fn env_num<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The worker count from `EXP_ALL_JOBS`: unset falls back to the
/// default, but a malformed or zero value is a hard error — silently
/// running an expensive batch on the wrong worker count (or deadlocking
/// on an empty pool) is worse than stopping.
fn jobs_from_env(default: usize) -> usize {
    match std::env::var("EXP_ALL_JOBS") {
        Err(_) => default,
        Ok(v) => match v.parse() {
            Ok(0) | Err(_) => {
                eprintln!("exp_all: EXP_ALL_JOBS must be a positive number, got `{v}`");
                std::process::exit(2);
            }
            Ok(n) => n,
        },
    }
}

fn main() {
    let mut workers: usize = jobs_from_env(4);
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--jobs" => {
                workers = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("exp_all: --jobs needs a number");
                    std::process::exit(2);
                });
                if workers == 0 {
                    eprintln!("exp_all: --jobs must be at least 1 (got 0)");
                    std::process::exit(2);
                }
            }
            "--no-cache" => mcc_cache::set_enabled(false),
            other => {
                eprintln!(
                    "exp_all: unknown argument `{other}` (usage: exp_all [--jobs N] [--no-cache])"
                );
                std::process::exit(2);
            }
        }
    }

    if mcc_cache::enabled() {
        if let Err(e) = mcc_cache::attach_default_disk() {
            eprintln!("exp_all: disk cache unavailable ({e}); continuing in-memory");
        }
    }

    let e9_trials: usize = env_num("EXP_ALL_E9_TRIALS", 1000);
    let e10_trials: u64 = env_num("EXP_ALL_E10_TRIALS", 250);

    // One campaign: a job per golden table, then E9's and E10's own job
    // lists, whose rows assemble into their tables after the run.
    let mut jobs: Vec<Job> = ex::GOLDEN_TABLES
        .iter()
        .map(|&(id, title, f)| Job::new(id, id, move || Ok(vec![f().render(title)])))
        .collect();
    let golden = jobs.len();
    jobs.extend(bc::e9_jobs(e9_trials));
    let e9_end = jobs.len();
    jobs.extend(bc::e10_jobs(e10_trials));

    let cfg = HarnessConfig::batch("exp_all", workers);
    let journal = std::env::temp_dir().join(format!("mcc-exp-all-{}.jsonl", std::process::id()));
    let report = run_campaign(jobs, &cfg, &journal, false).unwrap_or_else(|e| {
        eprintln!("exp_all: {e}");
        std::process::exit(1);
    });
    let _ = std::fs::remove_file(&journal);

    let mut failed = false;
    for (i, o) in report.outcomes.iter().enumerate() {
        if o.status == JobStatus::Ok {
            if i < golden {
                print!("{}", o.cells[0]);
            }
        } else {
            failed = true;
            eprintln!("exp_all: {} failed: {}", o.id, o.error);
        }
    }
    let (e9, e10) = report.outcomes[golden..].split_at(e9_end - golden);
    print!("{}", bc::e9_table(e9, e9_trials).render(bc::E9_TITLE));
    print!("{}", bc::e10_table(e10, e10_trials).render(bc::E10_TITLE));

    mcc_cache::flush_global_stats();
    let n = mcc_cache::global().counters();
    eprintln!(
        "exp_all: {} workers; cache {} hits ({} memory + {} disk), {} misses",
        cfg.workers,
        n.hits(),
        n.hits_memory,
        n.hits_disk,
        n.misses
    );
    if failed {
        std::process::exit(1);
    }
}
