//! Kill-one-backend-mid-burst, end to end through the real binary:
//! `mcc bench-serve --backends 3 --kill-at K` spawns a fleet of real
//! `mcc serve` children, SIGKILLs the seed-chosen victim when request K
//! is drawn, and must prove — deterministically — that no accepted
//! request was dropped, every checksum conformed, the victim's keys
//! moved to its ring successor, and overload still sheds structured
//! `503`s instead of queueing without bound.
//!
//! Single `#[test]` on purpose: the run is ~1s of wall clock and the
//! second half re-runs the identical schedule under a different client
//! count to assert the stdout contract (byte-identical across
//! `--clients` / `--jobs`). The first run's stdout is also pinned as
//! `tests/golden/bench_serve/kill.txt`.

mod common;

use std::process::Command;

fn bench_kill(dir: &std::path::Path, json: &str, topology: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args([
            "bench-serve",
            "--backends",
            "3",
            "--kill-at",
            "40",
            "--rps",
            "300",
            "--duration-ms",
            "600",
            "--json",
            json,
        ])
        .args(topology)
        .current_dir(dir)
        .output()
        .expect("bench-serve runs")
}

#[test]
fn kill_mode_is_lossless_conformant_and_deterministic() {
    let dir = std::env::temp_dir().join(format!("mcc-route-kill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let json1 = dir.join("kill1.json");
    let out1 = bench_kill(&dir, json1.to_str().unwrap(), &["--clients", "4"]);
    let stdout1 = String::from_utf8_lossy(&out1.stdout).to_string();
    assert!(
        out1.status.success(),
        "kill bench exits 0\nstdout: {stdout1}\nstderr: {}",
        String::from_utf8_lossy(&out1.stderr)
    );
    assert!(
        stdout1.contains(
            "dropped=0 conformance=ok victim_quiesced=ok successor_takeover=ok overload_shed=ok"
        ),
        "all kill invariants hold on stdout: {stdout1}"
    );
    common::check_bench_golden("kill", &stdout1);

    // The JSON report carries the timing-dependent side; the robustness
    // facts must agree with stdout.
    let report = std::fs::read_to_string(&json1).expect("JSON report written");
    assert!(report.contains("\"mode\":\"kill\""), "kill mode report: {report}");
    assert!(report.contains("\"dropped\":0"), "no dropped requests: {report}");
    assert!(report.contains("\"conformance\":\"ok\""), "conformant: {report}");
    let shed: u64 = report
        .split("\"shed\":")
        .nth(1)
        .and_then(|r| r.split(',').next())
        .and_then(|v| v.parse().ok())
        .expect("shed field parses");
    assert!(shed > 0, "overload probe shed structured 503s: {report}");

    // Same seed, different concurrency: stdout is a pure function of the
    // schedule, so it must be byte-identical.
    let json2 = dir.join("kill2.json");
    let out2 = bench_kill(&dir, json2.to_str().unwrap(), &["--clients", "1", "--jobs", "3"]);
    assert!(out2.status.success(), "second run exits 0");
    let stdout2 = String::from_utf8_lossy(&out2.stdout).to_string();
    assert_eq!(
        stdout1, stdout2,
        "kill-mode stdout is byte-identical across --clients/--jobs"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
