//! `mcc bench-serve` transcripts pinned byte for byte. stdout of every
//! mode is a pure function of the seed, so the in-process overload burst,
//! scaling table and diurnal QoS run are compared with
//! `tests/golden/bench_serve/<mode>.txt`, each twice: at the pinned
//! `--clients`/`--jobs`, and again at other counts, which must print the
//! same bytes. The first run of each also checks its `--json` report: the
//! overload burst shed and degraded requests, the scaling run wrote a
//! scaling report, and the diurnal run wrote its own report with nothing
//! dropped and the abuser shed at its quota. The kill, soak and chaos-net
//! transcripts live in the same directory and are checked by
//! `tests/route_kill.rs`, `tests/fleet_soak.rs` and `tests/chaos_net.rs`.
//!
//! The diurnal golden holds its six verdicts, so a run that misses any
//! gate fails here; its WFQ share is read from a held backlog and is the
//! same at every seed and in either build.
//!
//! One `#[test]` for all runs on purpose: each paces its own burst, so
//! they run one after another rather than competing for the CPUs.
//!
//! To regenerate after an intentional transcript change (a run rewrites
//! its golden only after it exits 0, so the diurnal golden's verdicts
//! all read `ok`):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test bench_serve_golden --test route_kill \
//!     --test fleet_soak --test chaos_net
//! ```

mod common;

use std::process::Command;

use mcc::harness::json::{get_num, get_str, parse_object};

/// Every golden under `tests/golden/bench_serve/`, one per mode.
const GOLDENS: [&str; 6] = ["overload", "scaling", "diurnal", "kill", "soak", "chaos_net"];

/// The overload burst engaged the shedding tiers.
fn sheds_and_degrades(report: &str) {
    let r = parse_object(report.trim_end()).expect("the overload report is one flat object");
    assert!(
        get_num(&r, "shed").is_some_and(|n| n > 0),
        "nothing shed: {report}"
    );
    assert!(
        get_num(&r, "degraded").is_some_and(|n| n > 0),
        "nothing degraded: {report}"
    );
}

/// The routed burst wrote a scaling report.
fn is_scaling_report(report: &str) {
    assert!(
        report.contains("\"mode\":\"scaling\""),
        "not a scaling report: {report}"
    );
}

/// The diurnal run wrote its report, dropped no well-behaved request and
/// shed the abuser at its queue quota.
fn is_diurnal_report(report: &str) {
    let r = parse_object(report.trim_end()).expect("the diurnal report is one flat object");
    assert_eq!(get_str(&r, "bench").as_deref(), Some("serve-diurnal"), "{report}");
    assert_eq!(get_num(&r, "dropped"), Some(0), "{report}");
    assert!(
        get_num(&r, "quota_shed").is_some_and(|n| n > 0),
        "the abuser was never quota-shed: {report}"
    );
}

/// One in-process mode: its golden, the flags whose `--json` report is
/// checked, and a rerun at other `--clients`/`--jobs` that must print the
/// same stdout.
struct Mode {
    golden: &'static str,
    args: &'static str,
    rerun: &'static str,
    check_report: fn(&str),
}

const MODES: [Mode; 3] = [
    Mode {
        golden: "overload",
        args: "--clients 16 --rps 2000 --duration-ms 1000 --seed 42 --jobs 1 --queue-bound 4",
        rerun: "--clients 4 --rps 2000 --duration-ms 1000 --seed 42 --jobs 3 --queue-bound 4",
        check_report: sheds_and_degrades,
    },
    Mode {
        golden: "scaling",
        args: "--backends 4 --clients 8 --rps 500 --duration-ms 1000 --seed 42",
        rerun: "--backends 4 --clients 2 --rps 500 --duration-ms 1000 --seed 42 --jobs 3",
        check_report: is_scaling_report,
    },
    Mode {
        golden: "diurnal",
        args: "--diurnal --seed 42",
        rerun: "--diurnal --seed 42 --clients 2 --jobs 4",
        check_report: is_diurnal_report,
    },
];

#[test]
fn in_process_modes_match_their_goldens() {
    let json = std::env::temp_dir().join(format!("mcc-bench-golden-{}.json", std::process::id()));
    for mode in &MODES {
        for (i, args) in [mode.args, mode.rerun].into_iter().enumerate() {
            let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
                .arg("bench-serve")
                .args(args.split_whitespace())
                .arg("--json")
                .arg(&json)
                .output()
                .expect("bench-serve runs");
            let stdout = String::from_utf8(out.stdout).expect("stdout is utf-8");
            assert!(
                out.status.success(),
                "{args} exits 0\nstdout: {stdout}\nstderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            common::check_bench_golden(mode.golden, &stdout);
            if i == 0 {
                (mode.check_report)(&std::fs::read_to_string(&json).expect("JSON report written"));
            }
        }
    }
    let _ = std::fs::remove_file(&json);
}

/// The directory must not accumulate stale transcripts.
#[test]
fn no_orphan_bench_serve_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bench_serve");
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        assert!(
            GOLDENS.iter().any(|g| name == format!("{g}.txt")),
            "tests/golden/bench_serve/{name} does not match any bench-serve mode"
        );
    }
}
