//! The chaos-net gauntlet through the real binary, at CI's seed and
//! size: `mcc bench-serve --chaos-net` routes a burst through seeded
//! fault-injection proxies on every hop and must answer every request
//! exactly once, accept no corrupt frame and inject all 11 fault kinds.
//! Its stdout (every proxy's schedule and the verdict) is a pure
//! function of the seed: byte-identical across `--clients`/`--jobs`
//! and pinned as `tests/golden/bench_serve/chaos_net.txt`.
//!
//! Single `#[test]` on purpose: each run owns a fleet of `mcc serve`
//! children and ~11 s of wall clock.

mod common;

use std::process::Command;

use mcc::harness::json::{get_num, get_str, parse_object};

fn chaos_net(json: &str, topology: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args([
            "bench-serve",
            "--chaos-net",
            "--rps",
            "60",
            "--duration-ms",
            "1500",
        ])
        .args(["--seed", "42", "--json", json])
        .args(topology)
        .output()
        .expect("bench-serve runs")
}

#[test]
fn chaos_net_is_exactly_once_over_every_fault_kind_with_seed_pure_stdout() {
    let json = std::env::temp_dir().join(format!("mcc-chaos-net-{}.json", std::process::id()));
    let json_str = json.to_str().expect("temp path is utf-8");

    let out = chaos_net(json_str, &[]);
    let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
    assert!(
        out.status.success(),
        "chaos-net exits 0\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(
            "chaos-net verdict: responses=90 dropped=0 corrupt_accepted=0 \
             double_executions=0 conformance=ok fault_kinds=11/11"
        ),
        "verdict line present and clean:\n{stdout}"
    );
    common::check_bench_golden("chaos_net", &stdout);

    let text = std::fs::read_to_string(&json).expect("JSON report written");
    let report = parse_object(text.trim_end()).expect("the report is one flat object");
    assert_eq!(
        get_str(&report, "mode").as_deref(),
        Some("chaos-net"),
        "{text}"
    );
    for zero in ["dropped", "double_executions", "corrupt_accepted"] {
        assert_eq!(get_num(&report, zero), Some(0), "{zero} in {text}");
    }
    assert!(
        get_num(&report, "injected").is_some_and(|n| n > 0),
        "faults injected: {text}"
    );

    // Same seed, different concurrency: byte-identical stdout.
    let again = chaos_net("/dev/null", &["--clients", "4", "--jobs", "4"]);
    assert!(again.status.success(), "second run exits 0");
    assert_eq!(
        stdout,
        String::from_utf8_lossy(&again.stdout),
        "chaos-net stdout is byte-identical across --clients/--jobs"
    );

    let _ = std::fs::remove_file(&json);
}
