//! Regenerates experiment E9's table (see EXPERIMENTS.md).
//!
//! Runs through the supervised campaign harness (`mcc-harness`): the same
//! table `mcc campaign e9` produces, byte-identical for any worker
//! count. Set `MCC_JOBS` to change the worker-pool size (default 4).

use mcc_harness::{run_campaign, HarnessConfig};

fn main() {
    mcc_bench::attach_cache("exp_e9");
    let trials = 1000;
    let workers = std::env::var("MCC_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let cfg = HarnessConfig {
        campaign: "e9".into(),
        workers,
        ..HarnessConfig::default()
    };
    let journal = std::env::temp_dir().join("mcc-exp-e9.jsonl");
    let report = run_campaign(mcc_bench::campaign::e9_jobs(trials), &cfg, &journal, false)
        .expect("E9 campaign failed");
    mcc_bench::campaign::e9_table(&report.outcomes, trials)
        .print(mcc_bench::campaign::E9_TITLE);
    eprintln!("{}", report.summary());
    mcc_cache::flush_global_stats();
}
