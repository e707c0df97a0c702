//! The golden conformance suite: every deterministic experiment table
//! (E1–E8, including E6b) is pinned byte-for-byte against a committed
//! golden file under `tests/golden/`.
//!
//! Each table is rendered **twice** in the same process — the second
//! render is served by the compilation cache — and both renders must
//! equal the golden bytes. Together with `crates/bench/tests/exp_all_cache.rs`
//! (which diffs a cold-process `exp_all` against a warm-process rerun) this
//! pins the cache's core contract: a hit is indistinguishable from a compile.
//!
//! E9 and E10 are excluded: they are seeded campaigns whose tables are
//! covered by `tests/campaign.rs` and that `exp_all` diff, and their
//! trial counts make them too slow for a table-per-commit golden.
//!
//! To regenerate after an intentional table change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden
//! ```

use std::fs;
use std::path::PathBuf;

fn golden_path(id: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{id}.txt"))
}

fn update_requested() -> bool {
    std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Points at the first differing line so a regression report is readable
/// without an external diff tool.
fn first_divergence(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!("line {}: expected `{w}`, got `{g}`", i + 1);
        }
    }
    format!(
        "line counts differ: expected {}, got {}",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn tables_match_goldens_cold_and_warm() {
    let update = update_requested();
    let before = mcc::cache::global().counters();
    let mut failures = Vec::new();

    for &(id, title, f) in mcc::bench::experiments::GOLDEN_TABLES.iter() {
        let cold = f().render(title);
        // Second render: every compile behind the table is now a cache
        // hit. Any byte the cache fails to reproduce shows up here.
        let warm = f().render(title);
        if cold != warm {
            failures.push(format!(
                "{id}: warm render diverges from cold ({})",
                first_divergence(&cold, &warm)
            ));
            continue;
        }

        let path = golden_path(id);
        if update {
            fs::create_dir_all(path.parent().unwrap()).unwrap();
            fs::write(&path, &cold).unwrap();
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(want) if want == cold => {}
            Ok(want) => failures.push(format!(
                "{id}: table diverges from {} ({}); run UPDATE_GOLDEN=1 if intentional",
                path.display(),
                first_divergence(&want, &cold)
            )),
            Err(e) => failures.push(format!(
                "{id}: cannot read {} ({e}); run UPDATE_GOLDEN=1 to create it",
                path.display()
            )),
        }
    }

    let after = mcc::cache::global().counters();
    assert!(
        after.hits() > before.hits(),
        "warm renders produced no cache hits — the cache is not wired \
         through the experiment tables"
    );
    assert!(
        failures.is_empty(),
        "golden conformance failures:\n  {}",
        failures.join("\n  ")
    );
}

/// The golden directory must not accumulate stale files: every committed
/// golden corresponds to a table in the catalog.
#[test]
fn no_orphan_golden_files() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let Ok(entries) = fs::read_dir(&dir) else {
        // Directory appears once goldens are generated; the main test
        // reports the missing files themselves.
        return;
    };
    let known: Vec<String> = mcc::bench::experiments::GOLDEN_TABLES
        .iter()
        .map(|&(id, _, _)| format!("{id}.txt"))
        .collect();
    for e in entries {
        let name = e.unwrap().file_name().to_string_lossy().into_owned();
        // The wire-protocol frame fixtures and the bench-serve
        // transcripts live in their own subdirectories with their own
        // orphan guards (tests/golden_wire.rs, tests/bench_serve_golden.rs).
        if name == "wire" || name == "bench_serve" {
            continue;
        }
        assert!(
            known.contains(&name),
            "tests/golden/{name} does not match any table in GOLDEN_TABLES"
        );
    }
}
