//! The chaos-net gauntlet over v2 frames alone, at both of the seeds CI
//! ran it with: `mcc bench-serve --chaos-net --proto v2 --rps 60
//! --duration-ms 1500` must exit 0 and print the clean v2 verdict at seed
//! 42 and at seed 7, a second fault order on every hop. The v1 passes of
//! the same gauntlet run in CI's `wire-proto` job until the v1 transport
//! goes.
//!
//! Single `#[test]` on purpose: each run owns a fleet of `mcc serve`
//! children, so the two seeds run one after the other.

use std::process::Command;

const VERDICT: &str = "chaos-net verdict: responses=90 dropped=0 corrupt_accepted=0 \
                       double_executions=0 conformance=ok fault_kinds=11/11 proto=v2";

#[test]
fn chaos_net_over_v2_is_exactly_once_at_seeds_42_and_7() {
    for seed in ["42", "7"] {
        let out = Command::new(env!("CARGO_BIN_EXE_mcc"))
            .args(["bench-serve", "--chaos-net", "--proto", "v2", "--rps", "60"])
            .args(["--duration-ms", "1500", "--seed", seed, "--json", "/dev/null"])
            .output()
            .expect("bench-serve runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "seed {seed} exits 0\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            stdout.lines().any(|line| line == VERDICT),
            "seed {seed} prints the clean v2 verdict:\n{stdout}"
        );
    }
}
