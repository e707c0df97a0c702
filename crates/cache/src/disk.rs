//! The on-disk cache tier — an append-only, checksummed record log
//! sealed and recovered by the harness's sealed-log codec
//! ([`mcc_harness::sealed`]).
//!
//! `.mcc-cache/cache.log` holds one header line plus one line per
//! artifact:
//!
//! ```text
//! H <salt>
//! A <key:032x> <payload> <sum:016x>
//! ```
//!
//! where `sum` is the 64-bit FNV-1a of `"<key:032x> <payload>"`, as
//! exactly 16 lowercase hex digits. Records are append-only and
//! fsynced; recovery on open keeps the log's intact prefix and
//! **truncates at the first line that is torn** (no trailing newline),
//! is not UTF-8, fails its checksum, or fails to parse — the journal's
//! prefix-only recovery rule. A header whose salt does not match the
//! running toolkit invalidates the whole store (the file is reset), so
//! format or version bumps self-evict.
//!
//! `.mcc-cache/stats.log` accumulates per-process counter deltas
//! (`S <hits_mem> <hits_disk> <misses> <stores> <evictions> <sum:016x>`;
//! older four-field records still parse) so `mcc cache stats` can report
//! lifetime hit rates across processes; torn, corrupt or non-UTF-8
//! stats lines are simply skipped.
//!
//! The store is **bounded**: a configurable byte cap
//! (`MCC_CACHE_MAX_BYTES`, default 256 MiB, `0` = unbounded) triggers
//! oldest-first eviction on insert. Eviction re-scans the log under the
//! directory's advisory lock ([`crate::lock`]) — so records appended by
//! concurrent processes are aged out, not silently lost — drops records
//! from the front (append order *is* age order), and atomically replaces
//! the log via a tmp-file rename. Cross-process writers take the same
//! lock around every append, closing the torn-counter interleaving that
//! unlocked concurrent `exp_all --jobs N` runs could produce.
//!
//! Eviction frees a quarter of the cap (or the new record's length, if
//! that is larger), not just room for the one record. Each eviction
//! re-reads, re-verifies and rewrites the whole log, with the cache's
//! disk mutex held, so it must buy many appends: evicting down to
//! `cap − line` would leave the log full again after the next append and
//! rewrite it on every store. With the watermark a full store rewrites
//! at most three log bytes per byte appended.

use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use mcc_harness::sealed;

use crate::lock::ExclusiveLock;
use crate::{toolkit_salt, CacheKey, Counters};

/// 64-bit FNV-1a, the harness's sealed-log checksum, which the cache's
/// record and stats lines share. Re-exported under this path because
/// `perfbench` imports it from here.
pub use mcc_harness::sealed::fnv1a;

const CACHE_LOG: &str = "cache.log";
const STATS_LOG: &str = "stats.log";
const LOCK_FILE: &str = "lock";

/// Default byte cap for the artifact log when `MCC_CACHE_MAX_BYTES` is
/// unset.
pub const DEFAULT_MAX_BYTES: u64 = 256 * 1024 * 1024;

/// An eviction frees at least `cap / EVICT_FRACTION` bytes: the
/// low-water mark that keeps a full log from being rewritten per store.
const EVICT_FRACTION: u64 = 4;

/// Bytes an artifact record adds around its payload:
/// `A <key:032x> <payload> <sum:016x>\n`.
const RECORD_OVERHEAD: u64 = 53;

/// The configured byte cap: `MCC_CACHE_MAX_BYTES` (`0` = unbounded,
/// malformed values fall back to the default), else
/// [`DEFAULT_MAX_BYTES`].
pub fn configured_cap() -> Option<u64> {
    match std::env::var("MCC_CACHE_MAX_BYTES") {
        Ok(v) if !v.is_empty() => match v.parse::<u64>() {
            Ok(0) => None,
            Ok(n) => Some(n),
            Err(_) => Some(DEFAULT_MAX_BYTES),
        },
        _ => Some(DEFAULT_MAX_BYTES),
    }
}

/// The log's first line, naming the salt its records were written under.
fn header_line() -> String {
    format!("H {}\n", toolkit_salt())
}

/// Renders a `<tag> <body> <sum:016x>` line, `sum` being the FNV-1a of
/// `body`.
fn sum_line(tag: char, body: &str) -> String {
    format!("{tag} {body} {:016x}\n", fnv1a(body.as_bytes()))
}

/// The body of a `<tag> <body> <sum:016x>` line (without its newline)
/// whose sum checks.
fn checked_body(line: &str, tag: char) -> Option<&str> {
    // The sum is the last field: a payload may itself hold spaces.
    let (body, sum_hex) = line
        .strip_prefix(tag)?
        .strip_prefix(' ')?
        .rsplit_once(' ')?;
    sealed::verify(body.as_bytes(), sum_hex).then_some(body)
}

/// Renders one artifact record line (checksummed, newline-terminated)
/// into one buffer, copying the payload once.
fn record_line(key: u128, payload: &str) -> String {
    let mut line = String::with_capacity(record_len(payload) as usize);
    let _ = write!(line, "A {key:032x} {payload}");
    let sum = fnv1a(&line.as_bytes()[2..]);
    let _ = writeln!(line, " {sum:016x}");
    debug_assert_eq!(line.len() as u64, record_len(payload));
    line
}

/// The length of a payload's record line, without rendering it.
fn record_len(payload: &str) -> u64 {
    payload.len() as u64 + RECORD_OVERHEAD
}

/// The distinct records of the log's intact prefix, in append (= age)
/// order, and the prefix's byte length; `(empty, 0)` when the header is
/// not `header`.
fn scan_records(log: &[u8], header: &str) -> (VecDeque<(u128, String)>, usize) {
    let Some(rest) = log.strip_prefix(header.as_bytes()) else {
        return (VecDeque::new(), 0);
    };
    let (records, len) = sealed::prefix(rest, |line, _| parse_record(line));
    let mut seen = HashSet::new();
    let distinct = records.into_iter().filter(|(key, _)| seen.insert(*key));
    (distinct.collect(), header.len() + len)
}

/// The artifact store under one cache directory.
pub struct DiskTier {
    dir: PathBuf,
    log: File,
    /// The advisory cross-process lock, a stable-inode file in the cache
    /// directory (locking `cache.log` itself would break across the
    /// eviction rename).
    lockfile: File,
    /// The log's first line ([`header_line`]), rendered once at open.
    header: String,
    index: HashMap<u128, String>,
    /// Live keys in append order — the eviction queue, oldest first.
    order: VecDeque<u128>,
    /// Byte cap for `cache.log`; `None` = unbounded.
    cap: Option<u64>,
    /// Records evicted (or refused) by the cap since open.
    evictions: u64,
}

impl DiskTier {
    /// Opens (creating if necessary) the store under `dir` with the
    /// environment-configured byte cap, recovering from a torn tail by
    /// truncating to the last valid record.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption is never an error, only
    /// truncation.
    pub fn open(dir: &Path) -> io::Result<DiskTier> {
        Self::open_with_cap(dir, configured_cap())
    }

    /// Opens the store with an explicit byte cap (`None` = unbounded).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; corruption is never an error, only
    /// truncation.
    pub fn open_with_cap(dir: &Path, cap: Option<u64>) -> io::Result<DiskTier> {
        std::fs::create_dir_all(dir)?;
        let lockfile = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(dir.join(LOCK_FILE))?;
        let _guard = ExclusiveLock::acquire(&lockfile);
        let path = dir.join(CACHE_LOG);
        let mut log = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        // Keep the intact prefix: a torn, corrupt or non-UTF-8 line ends
        // it, and only a missing or stale header resets the store.
        let mut raw = Vec::new();
        log.read_to_end(&mut raw)?;

        let header = header_line();
        let (records, valid) = scan_records(&raw, &header);
        let order = records.iter().map(|(key, _)| *key).collect();
        let index = records.into_iter().collect();

        if valid != raw.len() || valid == 0 {
            // Reset to the valid prefix (or to a fresh header).
            log.set_len(valid as u64)?;
            if valid == 0 {
                log.seek(SeekFrom::Start(0))?;
                log.write_all(header.as_bytes())?;
            }
            log.sync_data()?;
        }
        log.seek(SeekFrom::End(0))?;

        drop(_guard);
        Ok(DiskTier {
            dir: dir.to_path_buf(),
            log,
            lockfile,
            header,
            index,
            order,
            cap,
            evictions: 0,
        })
    }

    /// Number of artifacts in the store.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// The cache directory this tier lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured byte cap (`None` = unbounded).
    pub fn cap(&self) -> Option<u64> {
        self.cap
    }

    /// Records evicted (or refused) by the byte cap since open.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Looks up a serialised artifact by content address.
    pub fn lookup(&self, key: CacheKey) -> Option<&String> {
        self.index.get(&key.0)
    }

    /// Appends one record (idempotent per key) and fsyncs, evicting
    /// oldest-first when the byte cap would be exceeded, until a quarter
    /// of the cap is free. A record that cannot fit even an empty log is
    /// refused (counted as an eviction) rather than thrashing the store.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append.
    pub fn store(&mut self, key: CacheKey, payload: &str) -> io::Result<()> {
        debug_assert!(!payload.contains('\n'));
        if self.index.contains_key(&key.0) {
            return Ok(());
        }
        let line = record_line(key.0, payload);
        let header_len = self.header.len() as u64;
        // Lock through a duplicated handle (same open file description,
        // so the same flock) to leave `self` free for `evict_to_fit`.
        let lockf = self.lockfile.try_clone()?;
        let _guard = ExclusiveLock::acquire(&lockf);
        if let Some(cap) = self.cap {
            if header_len + line.len() as u64 > cap {
                self.evictions += 1;
                return Ok(());
            }
            // Seek reports the *real* size, which may exceed our view
            // when other processes appended since open.
            let size = self.log.seek(SeekFrom::End(0))?;
            if size + line.len() as u64 > cap {
                let free = (line.len() as u64).max(cap / EVICT_FRACTION);
                self.evict_to_fit(cap.saturating_sub(free))?;
            }
        } else {
            // Append at the true end even if another process grew the
            // file since our last write.
            self.log.seek(SeekFrom::End(0))?;
        }
        self.log.write_all(line.as_bytes())?;
        self.log.sync_data()?;
        if self.index.insert(key.0, payload.to_string()).is_none() {
            self.order.push_back(key.0);
        }
        Ok(())
    }

    /// Oldest-first eviction: re-scan the log under the lock (so records
    /// appended by concurrent processes age out instead of vanishing),
    /// drop records from the front until the rewritten log fits
    /// `budget`, then atomically replace `cache.log` via a tmp-file
    /// rename.
    fn evict_to_fit(&mut self, budget: u64) -> io::Result<()> {
        let header = &self.header;
        self.log.seek(SeekFrom::Start(0))?;
        let mut raw = Vec::new();
        self.log.read_to_end(&mut raw)?;
        let (mut keep, _) = scan_records(&raw, header);
        let mut total = header.len() as u64 + keep.iter().map(|(_, p)| record_len(p)).sum::<u64>();
        while total > budget {
            let Some((_, payload)) = keep.pop_front() else {
                break;
            };
            total -= record_len(&payload);
            self.evictions += 1;
        }

        let tmp_path = self.dir.join(format!("{CACHE_LOG}.tmp-{}", std::process::id()));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(header.as_bytes())?;
            for (key, payload) in &keep {
                tmp.write_all(record_line(*key, payload).as_bytes())?;
            }
            tmp.sync_data()?;
        }
        std::fs::rename(&tmp_path, self.dir.join(CACHE_LOG))?;

        // Rebuild the in-memory view from what survived and reopen the
        // handle onto the new inode, positioned for appends.
        self.order = keep.iter().map(|(key, _)| *key).collect();
        self.index = keep.into_iter().collect();
        self.log = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.dir.join(CACHE_LOG))?;
        self.log.seek(SeekFrom::End(0))?;
        Ok(())
    }

    /// Appends one counter-delta record to the stats log and fsyncs,
    /// under the directory's advisory lock so concurrent processes
    /// cannot interleave torn deltas.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the append.
    pub fn append_stats(&self, delta: Counters) -> io::Result<()> {
        let line = sum_line(
            'S',
            &format!(
                "{} {} {} {} {}",
                delta.hits_memory, delta.hits_disk, delta.misses, delta.stores, delta.evictions
            ),
        );
        let _guard = ExclusiveLock::acquire(&self.lockfile);
        let mut f = OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.dir.join(STATS_LOG))?;
        f.write_all(line.as_bytes())?;
        f.sync_data()
    }
}

/// Parses one `A <key:032x> <payload> <sum:016x>` record line (without
/// its trailing newline).
fn parse_record(line: &str) -> Option<(u128, String)> {
    let (key_hex, payload) = checked_body(line, 'A')?.split_once(' ')?;
    let key = u128::from_str_radix(key_hex, 16).ok()?;
    (key_hex.len() == 32).then(|| (key, payload.to_string()))
}

/// Sums every valid record in a cache directory's stats log. Missing
/// files read as zero; torn, corrupt or non-UTF-8 lines are skipped.
pub fn read_stats(dir: &Path) -> Counters {
    let mut total = Counters::default();
    let Ok(log) = std::fs::read(dir.join(STATS_LOG)) else {
        return total;
    };
    for line in log.split(|&b| b == b'\n') {
        let Some(body) = std::str::from_utf8(line)
            .ok()
            .and_then(|l| checked_body(l, 'S'))
        else {
            continue;
        };
        // Four numbers (pre-eviction format) or five.
        let nums: Option<Vec<u64>> = body.split(' ').map(|n| n.parse::<u64>().ok()).collect();
        let Some(nums) = nums else { continue };
        let [hm, hd, mi, st, ev] = match nums[..] {
            [hm, hd, mi, st] => [hm, hd, mi, st, 0],
            [hm, hd, mi, st, ev] => [hm, hd, mi, st, ev],
            _ => continue,
        };
        total.hits_memory += hm;
        total.hits_disk += hd;
        total.misses += mi;
        total.stores += st;
        total.evictions += ev;
    }
    total
}

/// Size of the artifact log in bytes (0 when absent) — reporting only.
pub fn log_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(CACHE_LOG)).map(|m| m.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mcc-cache-test-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn store_and_reopen() {
        let dir = tmp("reopen");
        let k1 = CacheKey(42);
        let k2 = CacheKey(7);
        {
            let mut t = DiskTier::open(&dir).unwrap();
            t.store(k1, "payload one with spaces").unwrap();
            t.store(k2, "two").unwrap();
            t.store(k1, "ignored duplicate").unwrap();
            assert_eq!(t.len(), 2);
        }
        let t = DiskTier::open(&dir).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup(k1).unwrap(), "payload one with spaces");
        assert_eq!(t.lookup(k2).unwrap(), "two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_store_recovers() {
        let dir = tmp("torn");
        {
            let mut t = DiskTier::open(&dir).unwrap();
            t.store(CacheKey(1), "alpha").unwrap();
            t.store(CacheKey(2), "beta").unwrap();
        }
        // Tear the tail: append a partial record with no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(CACHE_LOG))
            .unwrap();
        f.write_all(b"A 00000000000000000000000000000003 half-writ").unwrap();
        drop(f);

        let mut t = DiskTier::open(&dir).unwrap();
        assert_eq!(t.len(), 2, "torn record dropped, valid prefix kept");
        t.store(CacheKey(3), "gamma").unwrap();
        drop(t);
        let t = DiskTier::open(&dir).unwrap();
        assert_eq!(t.len(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_truncates_from_there() {
        let dir = tmp("corrupt");
        {
            let mut t = DiskTier::open(&dir).unwrap();
            t.store(CacheKey(1), "alpha").unwrap();
            t.store(CacheKey(2), "beta").unwrap();
            t.store(CacheKey(3), "gamma").unwrap();
        }
        // Flip a byte in the middle record's payload.
        let path = dir.join(CACHE_LOG);
        let text = std::fs::read_to_string(&path).unwrap();
        let mangled = text.replacen("beta", "bXta", 1);
        std::fs::write(&path, mangled).unwrap();

        let t = DiskTier::open(&dir).unwrap();
        // Prefix-only recovery: the corrupt record *and everything after
        // it* are dropped, exactly like the journal.
        assert_eq!(t.len(), 1);
        assert!(t.lookup(CacheKey(1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn salt_mismatch_resets_the_store() {
        let dir = tmp("salt");
        {
            let mut t = DiskTier::open(&dir).unwrap();
            t.store(CacheKey(1), "alpha").unwrap();
        }
        let path = dir.join(CACHE_LOG);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen("cachev", "cachev9", 1)).unwrap();
        let t = DiskTier::open(&dir).unwrap();
        assert_eq!(t.len(), 0, "stale salt evicts the whole store");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_accumulate_across_appends() {
        let dir = tmp("stats");
        let t = DiskTier::open(&dir).unwrap();
        t.append_stats(Counters {
            hits_memory: 1,
            hits_disk: 2,
            misses: 3,
            stores: 4,
            evictions: 5,
        })
        .unwrap();
        t.append_stats(Counters {
            hits_memory: 10,
            ..Counters::default()
        })
        .unwrap();
        // A four-field record from an older toolkit still parses.
        let old_line = sum_line('S', "2 0 0 1");
        // A torn stats line is skipped, not fatal.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(STATS_LOG))
            .unwrap();
        f.write_all(old_line.as_bytes()).unwrap();
        f.write_all(b"S 9 9 9").unwrap();
        drop(f);
        let s = read_stats(&dir);
        assert_eq!(
            (s.hits_memory, s.hits_disk, s.misses, s.stores, s.evictions),
            (13, 2, 3, 5, 5)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_stats_line_is_skipped_not_fatal() {
        let dir = tmp("stats-utf8");
        let t = DiskTier::open(&dir).unwrap();
        let one = Counters {
            misses: 1,
            ..Counters::default()
        };
        t.append_stats(one).unwrap();
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(STATS_LOG))
            .unwrap();
        f.write_all(b"S 9 \xff 9\n").unwrap();
        drop(f);
        t.append_stats(one).unwrap();
        assert_eq!(read_stats(&dir).misses, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_rescan_keeps_the_prefix_before_a_non_utf8_tail() {
        let dir = tmp("evict-utf8");
        let payload = "é".repeat(32);
        let line_len = record_line(0, &payload).len() as u64;
        let header_len = header_line().len() as u64;
        let cap = header_len + 3 * line_len;
        let mut t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        t.store(CacheKey(1), &payload).unwrap();
        t.store(CacheKey(2), &payload).unwrap();
        // Another process tore an append inside a multi-byte character.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(CACHE_LOG))
            .unwrap();
        f.write_all(&record_line(9, &payload).as_bytes()[..40])
            .unwrap();
        drop(f);
        // The third store overflows the cap and re-scans the log: the two
        // intact records survive, the torn tail does not.
        t.store(CacheKey(3), &payload).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions(), 0);
        drop(t);
        let t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        assert!((1..=3).all(|k| t.lookup(CacheKey(k)) == Some(&payload)));
        assert_eq!(log_bytes(&dir), cap);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_oldest_first() {
        let dir = tmp("cap");
        let payload = "x".repeat(64);
        let line_len = record_line(0, &payload).len() as u64;
        let header_len = header_line().len() as u64;
        // Room for exactly three records.
        let cap = header_len + 3 * line_len;
        let mut t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        for i in 1..=3u128 {
            t.store(CacheKey(i), &payload).unwrap();
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions(), 0);
        // The fourth insert evicts the oldest record (key 1).
        t.store(CacheKey(4), &payload).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.evictions(), 1);
        assert!(t.lookup(CacheKey(1)).is_none(), "oldest evicted");
        assert!(t.lookup(CacheKey(2)).is_some());
        assert!(t.lookup(CacheKey(4)).is_some());
        assert!(log_bytes(&dir) <= cap, "log never exceeds the cap");
        drop(t);
        // The rewritten log reopens cleanly with the survivors.
        let t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        assert_eq!(t.len(), 3);
        assert!(t.lookup(CacheKey(1)).is_none());
        assert!(t.lookup(CacheKey(4)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn a_full_log_is_rewritten_once_per_quarter_cap_not_per_store() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmp("watermark");
        let payload = "w".repeat(64);
        let line_len = record_line(0, &payload).len() as u64;
        let cap = header_line().len() as u64 + 40 * line_len;
        let mut t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        for i in 0..40u128 {
            t.store(CacheKey(i), &payload).unwrap();
        }
        assert_eq!(t.evictions(), 0, "forty records fill the cap exactly");
        // Every rewrite renames a new file over `cache.log`, so its inode
        // changes exactly across the stores that rewrote it.
        let inode = || std::fs::metadata(dir.join(CACHE_LOG)).unwrap().ino();
        let mut rewrites = 0;
        for i in 40..80u128 {
            let before = inode();
            t.store(CacheKey(i), &payload).unwrap();
            rewrites += u64::from(inode() != before);
            assert!(log_bytes(&dir) <= cap, "log never exceeds the cap");
        }
        let allowed = (40 * line_len).div_ceil(cap / 4) + 1;
        assert!(
            rewrites <= allowed,
            "{rewrites} rewrites over 40 stores past the cap; at most {allowed}"
        );
        // Oldest first: the survivors are the newest keys, 79 among them.
        let kept: Vec<u128> = (0..80)
            .filter(|&k| t.lookup(CacheKey(k)).is_some())
            .collect();
        assert_eq!(kept.len(), t.len());
        assert_eq!(kept, (80 - kept.len() as u128..80).collect::<Vec<_>>());
        drop(t);
        let t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        assert_eq!(t.len(), kept.len(), "the rewritten log reopens whole");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_record_is_refused_not_thrashed() {
        let dir = tmp("oversize");
        let header_len = header_line().len() as u64;
        let cap = header_len + record_line(0, "small").len() as u64;
        let mut t = DiskTier::open_with_cap(&dir, Some(cap)).unwrap();
        t.store(CacheKey(1), "small").unwrap();
        assert_eq!(t.len(), 1);
        // A record too big for even an empty log is refused outright —
        // it must not evict everything and still fail to fit.
        t.store(CacheKey(2), &"y".repeat(512)).unwrap();
        assert_eq!(t.len(), 1, "oversized record not stored");
        assert!(t.lookup(CacheKey(1)).is_some(), "existing record survives");
        assert!(t.lookup(CacheKey(2)).is_none());
        assert_eq!(t.evictions(), 1, "refusal counted as an eviction");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_cap_never_evicts() {
        let dir = tmp("unbounded");
        let mut t = DiskTier::open_with_cap(&dir, None).unwrap();
        for i in 0..64u128 {
            t.store(CacheKey(i), &"z".repeat(128)).unwrap();
        }
        assert_eq!(t.len(), 64);
        assert_eq!(t.evictions(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
