//! The cache's contract across processes, on the full experiment run: a
//! warm `exp_all` prints the exact bytes of a cold one, and the store's
//! lifetime counters show that it served hits.
//!
//! Both runs are separate `exp_all` processes sharing one fresh
//! `MCC_CACHE_DIR`, with E9 at 100 trials per cell and E10 at 50: this
//! measures the cache, not the campaigns, which other tests and CI run at
//! full size. The goldens check cold and warm within one process only.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// One `exp_all` run against the store in `cache`; its stdout.
fn exp_all(cache: &Path) -> String {
    let started = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_exp_all"))
        .env("MCC_CACHE_DIR", cache)
        .env("EXP_ALL_E9_TRIALS", "100")
        .env("EXP_ALL_E10_TRIALS", "50")
        .env_remove("MCC_NO_CACHE")
        .env_remove("EXP_ALL_JOBS")
        .output()
        .expect("exp_all starts");
    assert!(
        out.status.success(),
        "exp_all failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    eprintln!("exp_all took {:?}", started.elapsed());
    String::from_utf8(out.stdout).expect("tables are UTF-8")
}

#[test]
fn warm_exp_all_prints_the_cold_bytes_from_cache_hits() {
    let cache = std::env::temp_dir().join(format!("mcc-exp-all-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    let cold = exp_all(&cache);
    let after_cold = mcc_cache::read_stats(&cache);
    let warm = exp_all(&cache);
    let lifetime = mcc_cache::read_stats(&cache);
    let _ = std::fs::remove_dir_all(&cache);

    assert!(cold.contains("E9") && cold.contains("E10"), "{cold}");
    assert!(cold == warm, "the warm run printed different tables");
    assert!(lifetime.hits() > 0, "no lifetime cache hits: {lifetime:?}");
    assert!(
        lifetime.hits_disk > after_cold.hits_disk,
        "the warm run served nothing from disk: {after_cold:?} then {lifetime:?}"
    );
}
