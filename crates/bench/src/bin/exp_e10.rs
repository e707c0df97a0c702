//! Regenerates experiment E10's table (see EXPERIMENTS.md).
//!
//! Runs through the supervised campaign harness (`mcc-harness`): the same
//! table `mcc campaign e10` produces, byte-identical for any worker
//! count. Set `MCC_JOBS` to change the worker-pool size (default 4).

use mcc_harness::{run_campaign, HarnessConfig};

fn main() {
    mcc_bench::attach_cache("exp_e10");
    let trials = 250;
    let workers = std::env::var("MCC_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let cfg = HarnessConfig {
        campaign: "e10".into(),
        workers,
        ..HarnessConfig::default()
    };
    let journal = std::env::temp_dir().join("mcc-exp-e10.jsonl");
    let report = run_campaign(mcc_bench::campaign::e10_jobs(trials), &cfg, &journal, false)
        .expect("E10 campaign failed");
    mcc_bench::campaign::e10_table(&report.outcomes, trials)
        .print(mcc_bench::campaign::E10_TITLE);
    eprintln!("{}", report.summary());
    mcc_cache::flush_global_stats();
}
