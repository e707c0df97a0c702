//! # `mcc-cache` — the content-addressed compilation cache
//!
//! Compiled microcode artifacts are pure, deterministic functions of
//! `(source bytes, frontend, machine, pass configuration, toolkit
//! version)`. This crate memoizes them behind a stable 128-bit FNV-1a
//! content address with two tiers:
//!
//! * an **in-memory tier** — a process-wide map, always on, shared by
//!   every harness worker thread;
//! * an **on-disk tier** — `.mcc-cache/` holding one checksummed record
//!   per artifact with the same torn-tail-recovery discipline as the
//!   harness journal (see [`disk`]), attached explicitly by the
//!   experiment binaries and the CLI.
//!
//! The cache is required to be *invisible*: a warm hit returns an
//! artifact whose canonical serialisation ([`serial`]) is byte-identical
//! to a cold compile's. The only observable differences live in
//! diagnostic fields excluded from that serialisation —
//! `CompileStats::cached` names the serving tier and
//! `CompileStats::pass_nanos` carries per-pass wall-clock time — so
//! hits and misses can be measured without perturbing any table.
//!
//! Compile *errors* are never cached: a failing compile is re-run on
//! every request, which keeps diagnostics (and their source excerpts)
//! exactly as fresh as an uncached pipeline.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use mcc_core::{Artifact, CompileError, Compiler, CompilerOptions, SourceLang};
use mcc_machine::{ConflictModel, MachineDesc};
use mcc_regalloc::Strategy;

pub mod disk;
pub mod lock;
pub mod serial;

pub use disk::{read_stats, DiskTier};
pub use lock::ExclusiveLock;
pub use serial::{deserialize_artifact, serialize_artifact};

/// Bump to invalidate every existing cache: the salt participates in
/// every key and the on-disk header, so stale formats self-evict.
pub const FORMAT_VERSION: u32 = 1;

/// The toolkit version salt mixed into every cache key. Contains no
/// whitespace (it is written verbatim into the on-disk header line).
pub fn toolkit_salt() -> String {
    format!("mcc-{}-cachev{}", env!("CARGO_PKG_VERSION"), FORMAT_VERSION)
}

// ------------------------------------------------------------ hashing ----

/// 128-bit FNV-1a (offset basis / prime from the reference parameters).
struct Fnv128(u128);

impl Fnv128 {
    const BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

    fn new() -> Self {
        Fnv128(Self::BASIS)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one labelled, length-prefixed section, so concatenation
    /// ambiguity between adjacent sections cannot alias two keys.
    fn section(&mut self, tag: &str, bytes: &[u8]) {
        self.write(tag.as_bytes());
        self.write(&(bytes.len() as u64).to_le_bytes());
        self.write(bytes);
    }
}

/// A stable 128-bit content address over everything that can change the
/// compiled artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u128);

impl std::fmt::Display for CacheKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Renders every [`CompilerOptions`] field that can alter the artifact
/// into one canonical line. Exhaustive by construction: destructuring
/// here means a new options field fails to compile until it is keyed.
pub fn canonical_options(o: &CompilerOptions) -> String {
    fn opt<T: std::fmt::Display>(v: Option<T>) -> String {
        v.map_or_else(|| "-".to_string(), |v| v.to_string())
    }
    let CompilerOptions {
        algorithm,
        model,
        alloc,
        poll_interval,
        bb_budget,
        limits,
    } = o;
    let model = match model {
        ConflictModel::Coarse => "coarse",
        ConflictModel::Fine => "fine",
    };
    let strategy = match alloc.strategy {
        Strategy::Coloring => "coloring",
        Strategy::LinearScan => "linearscan",
    };
    format!(
        "algo={};model={};alloc={};budget={};spread={};poll={};bb={};fe_src={};fe_tok={};fe_depth={};mir={};blocks={}",
        algorithm.name(),
        model,
        strategy,
        opt(alloc.budget),
        alloc.spread,
        opt(*poll_interval),
        bb_budget,
        limits.frontend.max_source_bytes,
        limits.frontend.max_tokens,
        limits.frontend.max_depth,
        limits.max_mir_ops,
        limits.max_blocks,
    )
}

/// The FNV-128 state after every key section *except* the source: the
/// per-(machine, lang, options) constant part of a [`CacheKey`].
///
/// Rendering a machine to MDL and hashing it dominates key derivation
/// (tens of microseconds against a sub-microsecond source hash), yet it
/// is identical for every request a [`Compiler`] serves in one language:
/// [`key_for`] derives it once per (compiler, language).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KeyPrefix(u128);

/// Computes the constant prefix of [`key_of`] — everything but the
/// source section.
fn key_prefix(m: &MachineDesc, lang: SourceLang, opts: &CompilerOptions) -> KeyPrefix {
    let mut h = Fnv128::new();
    h.section("salt", toolkit_salt().as_bytes());
    h.section("lang", lang.name().as_bytes());
    h.section("machine", mcc_machine::mdl::to_mdl(m).as_bytes());
    h.section("options", canonical_options(opts).as_bytes());
    KeyPrefix(h.0)
}

/// Finishes a key from a prefix: identical to [`key_of`] on the same
/// (machine, lang, options, source) by construction — the prefix *is*
/// the hash state at the source section boundary.
fn key_from_prefix(prefix: KeyPrefix, src: &str) -> CacheKey {
    let mut h = Fnv128(prefix.0);
    h.section("source", src.as_bytes());
    CacheKey(h.0)
}

/// Derives the content address of one compilation request. The machine
/// is identified by its canonical MDL rendering — total over every
/// semantic field of a [`MachineDesc`] — so structurally different
/// machines can never alias.
pub fn key_of(m: &MachineDesc, lang: SourceLang, opts: &CompilerOptions, src: &str) -> CacheKey {
    key_from_prefix(key_prefix(m, lang, opts), src)
}

/// The content address of compiling `src` as `lang` through `compiler`:
/// `key_of(compiler.machine(), lang, compiler.options(), src)`, with the
/// prefix derived on the compiler's first request in `lang` and memoized
/// in the compiler ([`Compiler::key_prefix`]).
pub fn key_for(compiler: &Compiler, lang: SourceLang, src: &str) -> CacheKey {
    let prefix = compiler.key_prefix(lang, || {
        key_prefix(compiler.machine(), lang, compiler.options()).0
    });
    key_from_prefix(KeyPrefix(prefix), src)
}

/// The routing address of a wire-level compile request: the same 128-bit
/// content address a backend's [`compile_cached`] computes for it under
/// default options, derived from the wire names. `None` when a name does
/// not resolve (the router then falls back to a raw-bytes hash and lets
/// the chosen backend answer the structured `400`).
///
/// Placement only needs *agreement*, not exact key equality: a request
/// served at a degraded pressure tier compiles under tightened options
/// (a different full cache key), but it still lands on the shard that
/// owns every tier of that source — which is what keeps per-shard cache
/// locality intact.
pub fn key_for_wire(machine: &str, lang: &str, src: &str) -> Option<CacheKey> {
    /// One default-options compiler per reference machine, indexed by
    /// [`mcc_machine::machines::index_of`].
    static WIRE: OnceLock<Vec<Compiler>> = OnceLock::new();
    let lang = SourceLang::from_name(lang)?;
    let machine = mcc_machine::machines::index_of(machine)?;
    let compilers =
        WIRE.get_or_init(|| mcc_machine::machines::all().into_iter().map(Compiler::new).collect());
    Some(key_for(&compilers[machine], lang, src))
}

// -------------------------------------------------------------- cache ----

/// Whether a freshly compiled artifact is persisted to the disk tier
/// (when one is attached) or kept in memory only. `Disk` is a no-op for
/// processes that never attach the tier — which is how `mcc fuzz` keeps
/// arbitrary user corpora off disk while `exp_all`'s fixed-seed E10
/// corpus persists and is served from disk on warm runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Persist {
    /// In-memory tier only.
    Memory,
    /// Both tiers (disk write is skipped when no tier is attached).
    Disk,
}

/// A snapshot of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Hits served by the in-memory tier.
    pub hits_memory: u64,
    /// Hits served by the on-disk tier.
    pub hits_disk: u64,
    /// Lookups that fell through to a real compile.
    pub misses: u64,
    /// Artifacts stored after a miss (failed compiles are not stored).
    pub stores: u64,
    /// Disk-tier records evicted (or refused) by the byte cap.
    pub evictions: u64,
}

impl Counters {
    /// Total hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.hits_memory + self.hits_disk
    }
}

/// A two-tier content-addressed artifact cache.
#[derive(Default)]
pub struct Cache {
    mem: Mutex<HashMap<u128, Artifact>>,
    disk: Mutex<Option<DiskTier>>,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    /// Counters already persisted by `flush_stats`, so repeated flushes
    /// append deltas instead of double counting.
    flushed: Mutex<Counters>,
}

impl Cache {
    /// An empty memory-only cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches (creating if necessary) the on-disk tier under `dir`,
    /// recovering from any torn tail. Returns the number of artifacts
    /// loaded from disk.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from creating or reading the store.
    pub fn attach_disk(&self, dir: &Path) -> io::Result<usize> {
        let tier = DiskTier::open(dir)?;
        let loaded = tier.len();
        *self.disk.lock().unwrap() = Some(tier);
        Ok(loaded)
    }

    /// Compiles `src` through `compiler`, serving from the cache when the
    /// content address matches. Hits are marked in
    /// `artifact.stats.cached` (`"memory"` or `"disk"`); everything that
    /// participates in the artifact's canonical serialisation is
    /// byte-identical to a cold compile. Whichever tier answers, the
    /// artifact holds `compiler`'s own [`Compiler::shared_machine`].
    ///
    /// # Errors
    ///
    /// See [`CompileError`]; errors are never cached.
    pub fn compile(
        &self,
        compiler: &Compiler,
        lang: SourceLang,
        src: &str,
        persist: Persist,
    ) -> Result<Artifact, CompileError> {
        let key = key_for(compiler, lang, src);
        if let Some(mut hit) = self.mem.lock().unwrap().get(&key.0).cloned() {
            hit.machine = Arc::clone(compiler.shared_machine());
            hit.stats.cached = Some("memory");
            self.hits_memory.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }

        let payload = self
            .disk
            .lock()
            .unwrap()
            .as_ref()
            .and_then(|t| t.lookup(key).cloned());
        if let Some(payload) = payload {
            // A record that fails to deserialize is treated as a miss:
            // the checksum made corruption overwhelmingly unlikely, but
            // recompiling is always a safe answer.
            let machine = Arc::clone(compiler.shared_machine());
            if let Ok(mut art) = serial::deserialize_artifact(&payload, machine) {
                self.mem.lock().unwrap().insert(key.0, art.clone());
                art.stats.cached = Some("disk");
                self.hits_disk.fetch_add(1, Ordering::Relaxed);
                return Ok(art);
            }
        }

        self.misses.fetch_add(1, Ordering::Relaxed);
        let art = compiler.compile_contained(lang, src)?;
        self.stores.fetch_add(1, Ordering::Relaxed);
        if persist == Persist::Disk {
            if let Some(tier) = self.disk.lock().unwrap().as_mut() {
                // Best effort: a full disk must not fail the compile.
                let _ = tier.store(key, &serial::serialize_artifact(&art));
            }
        }
        self.mem.lock().unwrap().insert(key.0, art.clone());
        Ok(art)
    }

    /// Current counter values. Disk-tier evictions are folded in when a
    /// tier is attached.
    pub fn counters(&self) -> Counters {
        let mut c = self.counters_unlocked();
        if let Some(tier) = self.disk.lock().unwrap().as_ref() {
            c.evictions = tier.evictions();
        }
        c
    }

    /// The atomic counters alone, without touching the disk mutex — for
    /// callers (like [`Cache::flush_stats`]) that already hold it.
    fn counters_unlocked(&self) -> Counters {
        Counters {
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            evictions: 0,
        }
    }

    /// Whether `key` is present in the in-memory tier, counting a hit
    /// when it is — see [`memory_hit_keyed`] for the intended caller.
    pub fn note_memory_hit(&self, key: CacheKey) -> bool {
        if self.mem.lock().unwrap().contains_key(&key.0) {
            self.hits_memory.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Number of artifacts in the in-memory tier.
    pub fn len_memory(&self) -> usize {
        self.mem.lock().unwrap().len()
    }

    /// Appends this process's not-yet-flushed counter deltas to the disk
    /// tier's stats log, so `mcc cache stats` reports lifetime totals
    /// across processes. No-op without a disk tier.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the stats log append.
    pub fn flush_stats(&self) -> io::Result<()> {
        let mut disk = self.disk.lock().unwrap();
        let Some(tier) = disk.as_mut() else {
            return Ok(());
        };
        // `counters()` would re-lock the disk mutex (not reentrant); read
        // the tier's eviction count directly under the lock we hold.
        let mut now = self.counters_unlocked();
        now.evictions = tier.evictions();
        let mut flushed = self.flushed.lock().unwrap();
        let delta = Counters {
            hits_memory: now.hits_memory - flushed.hits_memory,
            hits_disk: now.hits_disk - flushed.hits_disk,
            misses: now.misses - flushed.misses,
            stores: now.stores - flushed.stores,
            // Saturating: the eviction count restarts with each tier
            // attach, unlike the process-monotonic atomics above.
            evictions: now.evictions.saturating_sub(flushed.evictions),
        };
        if delta == Counters::default() {
            return Ok(());
        }
        tier.append_stats(delta)?;
        *flushed = now;
        Ok(())
    }
}

// ------------------------------------------------------------- global ----

static GLOBAL: OnceLock<Cache> = OnceLock::new();

/// The process-wide cache used by [`compile_cached`].
pub fn global() -> &'static Cache {
    GLOBAL.get_or_init(Cache::new)
}

/// 0 = take the `MCC_NO_CACHE` environment default, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether the global cache is enabled. Defaults to on; disabled by
/// `MCC_NO_CACHE` (any non-empty value other than `0`) or
/// [`set_enabled(false)`](set_enabled), which takes precedence.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => !matches!(
            std::env::var("MCC_NO_CACHE").ok().as_deref(),
            Some(v) if !v.is_empty() && v != "0"
        ),
    }
}

/// Force the global cache on or off (the CLI's `--no-cache`).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// The default on-disk tier location: `MCC_CACHE_DIR` or `.mcc-cache`.
pub fn default_dir() -> PathBuf {
    match std::env::var("MCC_CACHE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => PathBuf::from(".mcc-cache"),
    }
}

/// Attaches the default disk tier to the global cache. Returns `false`
/// (and leaves the cache memory-only) when caching is disabled.
///
/// # Errors
///
/// Propagates I/O errors from opening the store.
pub fn attach_default_disk() -> io::Result<bool> {
    if !enabled() {
        return Ok(false);
    }
    global().attach_disk(&default_dir())?;
    Ok(true)
}

/// The cached counterpart of [`Compiler::compile_contained`]: serves
/// from the global cache, or passes straight through when caching is
/// disabled.
///
/// # Errors
///
/// See [`CompileError`].
pub fn compile_cached(
    compiler: &Compiler,
    lang: SourceLang,
    src: &str,
    persist: Persist,
) -> Result<Artifact, CompileError> {
    if !enabled() {
        return compiler.compile_contained(lang, src);
    }
    global().compile(compiler, lang, src, persist)
}

/// Memory-tier membership probe that counts as a hit when present —
/// the synchronous fast path a server uses to answer a known-warm key
/// without a worker round trip. Always `false` when caching is
/// disabled, sending the caller down the full compile path.
pub fn memory_hit_keyed(key: CacheKey) -> bool {
    enabled() && global().note_memory_hit(key)
}

/// Flushes the global cache's stats to its disk tier, ignoring errors —
/// call at process exit from binaries that attached a disk tier.
pub fn flush_global_stats() {
    let _ = global().flush_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_compact::Algorithm;
    use mcc_machine::machines::{hm1, vm1};

    const SRC: &str = "reg a = R0\nconst a, 7\nadd a, a, 1\nexit a\n";

    #[test]
    fn memory_tier_hits_and_is_invisible() {
        let cache = Cache::new();
        let c = Compiler::new(hm1());
        let cold = cache.compile(&c, SourceLang::Yalll, SRC, Persist::Memory).unwrap();
        assert_eq!(cold.stats.cached, None);
        let warm = cache.compile(&c, SourceLang::Yalll, SRC, Persist::Memory).unwrap();
        assert_eq!(warm.stats.cached, Some("memory"));
        assert_eq!(serialize_artifact(&cold), serialize_artifact(&warm));
        let n = cache.counters();
        assert_eq!((n.hits_memory, n.misses, n.stores), (1, 1, 1));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = Cache::new();
        let c = Compiler::new(hm1());
        for _ in 0..2 {
            assert!(cache
                .compile(&c, SourceLang::Yalll, "reg a = NOPE\n", Persist::Memory)
                .is_err());
        }
        let n = cache.counters();
        assert_eq!((n.misses, n.stores, n.hits()), (2, 0, 0));
    }

    #[test]
    fn prefixed_keys_match_direct_derivation() {
        let tuned = CompilerOptions {
            algorithm: Algorithm::BranchBound,
            poll_interval: Some(4),
            ..Default::default()
        };
        for opts in [CompilerOptions::default(), tuned] {
            for m in [hm1(), vm1()] {
                let c = Compiler::with_options(m.clone(), opts.clone());
                for lang in SourceLang::ALL {
                    let p = key_prefix(&m, lang, &opts);
                    for src in [SRC, "reg a = R0\nexit a\n", ""] {
                        let direct = key_of(&m, lang, &opts, src);
                        assert_eq!(key_from_prefix(p, src), direct, "{} {lang} {src:?}", m.name);
                        assert_eq!(key_for(&c, lang, src), direct, "{} {lang} {src:?}", m.name);
                    }
                    let memoized = c.key_prefix(lang, || unreachable!("key_for memoized it"));
                    assert_eq!(memoized, p.0, "{} {lang}", m.name);
                }
            }
        }
    }

    #[test]
    fn canonical_prefix_memo_agrees_with_by_name() {
        // `key_for_wire`'s table of default-option compilers, by alias.
        let opts = CompilerOptions::default();
        for name in ["hm1", "Horizon", "vm-1", "BAROQUE", "wide"] {
            let m = mcc_machine::machines::by_name(name).unwrap();
            for lang in SourceLang::ALL {
                // Twice: the second call takes the memoized prefix.
                for _ in 0..2 {
                    assert_eq!(
                        key_for_wire(name, lang.name(), SRC),
                        Some(key_of(&m, lang, &opts, SRC)),
                        "{name} {lang}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_answers_with_the_compilers_machine() {
        let dir = std::env::temp_dir()
            .join(format!("mcc-cache-test-shared-machine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::new();
        cache.attach_disk(&dir).unwrap();
        let first = Compiler::new(hm1());
        let cold = cache.compile(&first, SourceLang::Yalll, SRC, Persist::Disk).unwrap();
        assert_eq!(cold.stats.cached, None);
        assert!(Arc::ptr_eq(&cold.machine, first.shared_machine()));

        // Another compiler with the same inputs: the same key, its machine.
        let second = Compiler::new(hm1());
        let warm = cache.compile(&second, SourceLang::Yalll, SRC, Persist::Disk).unwrap();
        assert_eq!(warm.stats.cached, Some("memory"));
        assert!(Arc::ptr_eq(&warm.machine, second.shared_machine()));

        // A freshly attached tier has an empty memory tier, so it reads disk.
        let fresh = Cache::new();
        fresh.attach_disk(&dir).unwrap();
        let third = Compiler::new(hm1());
        let disk = fresh.compile(&third, SourceLang::Yalll, SRC, Persist::Disk).unwrap();
        assert_eq!(disk.stats.cached, Some("disk"));
        assert!(Arc::ptr_eq(&disk.machine, third.shared_machine()));
        assert_eq!(serialize_artifact(&disk), serialize_artifact(&cold));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn keys_separate_every_input() {
        let m = hm1();
        let opts = CompilerOptions::default();
        let base = key_of(&m, SourceLang::Yalll, &opts, SRC);
        // Source byte.
        assert_ne!(base, key_of(&m, SourceLang::Yalll, &opts, "reg a = R0\nconst a, 8\nadd a, a, 1\nexit a\n"));
        // Frontend.
        assert_ne!(base, key_of(&m, SourceLang::Simpl, &opts, SRC));
        // Machine.
        assert_ne!(base, key_of(&vm1(), SourceLang::Yalll, &opts, SRC));
        // Pass config.
        let mut o2 = opts.clone();
        o2.algorithm = Algorithm::Linear;
        assert_ne!(base, key_of(&m, SourceLang::Yalll, &o2, SRC));
    }

    #[test]
    fn wire_key_matches_the_compile_key_and_rejects_bad_names() {
        let m = hm1();
        assert_eq!(
            key_for_wire("hm1", "yalll", SRC),
            Some(key_of(&m, SourceLang::Yalll, &CompilerOptions::default(), SRC)),
            "the router and the backend must derive the same address"
        );
        assert_ne!(key_for_wire("hm1", "yalll", SRC), key_for_wire("vm1", "yalll", SRC));
        assert_eq!(key_for_wire("not-a-machine", "yalll", SRC), None);
        assert_eq!(key_for_wire("hm1", "klingon", SRC), None);
    }

    #[test]
    fn canonical_options_is_stable() {
        let o = CompilerOptions::default();
        assert_eq!(canonical_options(&o), canonical_options(&o.clone()));
        assert!(canonical_options(&o).starts_with("algo=critpath;model=fine;alloc=coloring;"));
    }
}
