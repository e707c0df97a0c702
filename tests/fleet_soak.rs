//! The chaos soak as a subprocess conformance test: `mcc bench-serve
//! --chaos-soak` must pass its own gates (zero drops, rejoin after
//! every kill, quarantine of the sabotaged shard) AND print a stdout
//! that is a pure function of the seed — byte-identical across client
//! and worker counts.
//!
//! Single `#[test]` on purpose: each soak run owns a supervised fleet
//! of child processes. The first run's stdout is also pinned as
//! `tests/golden/bench_serve/soak.txt`.

mod common;

use std::process::Command;

fn run_soak(clients: &str, jobs: &str, json: &str) -> (String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
        .args([
            "bench-serve",
            "--chaos-soak",
            "--backends",
            "2",
            "--bursts",
            "4",
            "--rps",
            "75",
            "--duration-ms",
            "800",
            "--seed",
            "42",
            "--clients",
            clients,
            "--jobs",
            jobs,
            "--json",
            json,
        ])
        .output()
        .expect("bench-serve runs");
    (
        String::from_utf8(out.stdout).expect("stdout is utf-8"),
        out.status.success(),
    )
}

#[test]
fn chaos_soak_passes_its_gates_with_seed_determined_stdout() {
    let json = std::env::temp_dir().join(format!("mcc-soak-test-{}.json", std::process::id()));
    let json_str = json.to_str().expect("temp path is utf-8");

    let (stdout_a, ok_a) = run_soak("4", "2", json_str);
    assert!(ok_a, "soak run exits 0; stdout:\n{stdout_a}");
    common::check_bench_golden("soak", &stdout_a);

    // The gates, as printed verdicts.
    assert!(
        stdout_a.contains(
            "chaos-soak verdict: dropped=ok conformance=ok rejoins=ok quarantined=[bx] \
             healthy_quarantined=none restart_budget=ok"
        ),
        "verdict line present and clean:\n{stdout_a}"
    );
    // A seeded schedule with at least three kills, sabotage included.
    assert_eq!(
        stdout_a.matches("schedule burst=").count(),
        3,
        "three kill bursts scheduled:\n{stdout_a}"
    );
    assert!(stdout_a.contains("victim=bx"), "the sabotage shard is on the schedule");
    assert!(
        stdout_a.contains("rejoined=ok rejoin_served=ok"),
        "a killed healthy shard served again after rejoin:\n{stdout_a}"
    );
    assert!(
        stdout_a.contains("quarantined=ok"),
        "the sabotaged shard was quarantined:\n{stdout_a}"
    );

    // The report carries the soak shape and the quarantine outcome.
    let report = std::fs::read_to_string(&json).expect("JSON report written");
    assert!(report.contains("\"mode\":\"chaos-soak\""), "report mode:\n{report}");
    assert!(report.contains("\"dropped\":0"), "report drops nothing:\n{report}");
    assert!(report.contains("\"quarantined\":[\"bx\"]"), "report quarantine:\n{report}");
    assert!(report.contains("\"p99_inflation_pct\":"), "report p99 inflation:\n{report}");

    // Determinism: different client and worker counts, identical stdout.
    let (stdout_b, ok_b) = run_soak("8", "4", json_str);
    assert!(ok_b, "second soak run exits 0");
    assert_eq!(
        stdout_a, stdout_b,
        "soak stdout is a pure function of the seed (diffed across --clients/--jobs)"
    );

    let _ = std::fs::remove_file(&json);
}
