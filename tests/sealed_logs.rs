//! One truncation and bit-flip test for the three sealed logs: the
//! campaign journal, the serve trace and the cache's artifact log.
//!
//! Each log holds multi-byte characters (`é`, `⊕`). It is cut at every
//! byte offset and, separately, has every single bit flipped. Its reader
//! must then return exactly the intact records before the damage, and
//! the journal and the cache log must be truncated to that prefix so the
//! next append extends it. No reader may fail or drop an intact record.
//! The one exception is damage to a header line: the journal refuses an
//! unreadable header with `BadHeader`, and the cache resets a store whose
//! salt line no longer matches. Both are the documented rule for a header.

use std::path::{Path, PathBuf};

use mcc::cache::{CacheKey, DiskTier};
use mcc::harness::journal::{Header, JobRecord, JobStatus, Journal, JournalError};
use mcc::serve::trace::{self, TraceRecord, TraceWriter};
use mcc::serve::Class;

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcc-sealed-logs-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Every damaged copy of `full`, with the offset of its first damaged
/// byte: cut at each offset, then each bit of each byte flipped.
fn damaged(full: &[u8]) -> impl Iterator<Item = (usize, Vec<u8>)> + '_ {
    let cuts = (0..=full.len()).map(move |cut| (cut, full[..cut].to_vec()));
    let flips = (0..full.len() * 8).map(move |bit| {
        let mut copy = full.to_vec();
        copy[bit / 8] ^= 1 << (bit % 8);
        (bit / 8, copy)
    });
    cuts.chain(flips)
}

/// How many whole lines of `full` end at or before offset `at`, and the
/// byte length of those lines.
fn intact(full: &[u8], at: usize) -> (usize, usize) {
    let ends: Vec<usize> = (0..full.len())
        .filter(|&i| full[i] == b'\n')
        .map(|i| i + 1)
        .collect();
    let lines = ends.iter().take_while(|&&end| end <= at).count();
    (lines, if lines == 0 { 0 } else { ends[lines - 1] })
}

fn job(id: &str, cells: &[&str]) -> JobRecord {
    JobRecord {
        seq: 0,
        id: id.into(),
        status: JobStatus::Ok,
        attempts: 1,
        error: String::new(),
        cells: cells.iter().map(|c| c.to_string()).collect(),
    }
}

#[test]
fn journal_recovers_exactly_the_intact_prefix() {
    let dir = fresh_dir("journal");
    let path = dir.join("campaign.jsonl");
    let header = Header {
        campaign: "sealed-é".into(),
        seed: 3,
        jobs: 3,
        fingerprint: 0xfeed,
    };
    let mut jobs = [
        job("e9/é", &["1"]),
        job("e9/⊕", &["q\"é", "⊕"]),
        job("e9/c", &["é⊕é"]),
    ];
    let mut j = Journal::create(&path, &header).unwrap();
    for (seq, r) in jobs.iter_mut().enumerate() {
        r.seq = j.append(r.clone()).unwrap();
        assert_eq!(r.seq, seq as u64);
    }
    drop(j);
    let full = std::fs::read(&path).unwrap();
    assert!(String::from_utf8_lossy(&full).contains('⊕'));

    for (at, bytes) in damaged(&full) {
        std::fs::write(&path, &bytes).unwrap();
        let (lines, len) = intact(&full, at);
        if lines == 0 {
            match Journal::recover(&path, &header) {
                Err(JournalError::BadHeader(_)) => continue,
                other => panic!("damage at {at} in the header: {other:?}"),
            }
        }
        let (_, records) =
            Journal::recover(&path, &header).unwrap_or_else(|e| panic!("damage at {at}: {e}"));
        assert_eq!(records, jobs[..lines - 1], "damage at {at}");
        assert_eq!(std::fs::read(&path).unwrap(), full[..len], "damage at {at}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_replays_exactly_the_intact_prefix() {
    let dir = fresh_dir("trace");
    let path = dir.join("trace.jsonl");
    let records: Vec<TraceRecord> = ["é", "⊕", "é⊕"]
        .iter()
        .zip(1u64..)
        .map(|(name, seq)| TraceRecord {
            seq,
            client: format!("c{name}"),
            tenant: format!("t{name}"),
            class: Class::Interactive,
            id: format!("r\"{name}"),
            code: 200,
            tier: 0,
            us: seq * 100,
        })
        .collect();
    let mut w = TraceWriter::create(&path).unwrap();
    for r in &records {
        w.record(r);
    }
    drop(w);
    let full = std::fs::read(&path).unwrap();

    for (at, bytes) in damaged(&full) {
        std::fs::write(&path, &bytes).unwrap();
        let (lines, len) = intact(&full, at);
        let (got, torn) = trace::replay(&path).unwrap_or_else(|e| panic!("damage at {at}: {e}"));
        assert_eq!(got, records[..lines], "damage at {at}");
        assert_eq!(torn, len < bytes.len(), "damage at {at}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

fn cache_log(dir: &Path) -> PathBuf {
    dir.join("cache.log")
}

#[test]
fn cache_log_keeps_exactly_the_intact_prefix() {
    let dir = fresh_dir("cache");
    let stored = [
        (CacheKey(1), "é"),
        (CacheKey(2), "a ⊕ b"),
        (CacheKey(3), "\"é⊕\""),
    ];
    let mut t = DiskTier::open_with_cap(&dir, None).unwrap();
    for (key, payload) in stored {
        t.store(key, payload).unwrap();
    }
    drop(t);
    let full = std::fs::read(cache_log(&dir)).unwrap();
    let header_len = full.iter().position(|&b| b == b'\n').unwrap() + 1;

    for (at, bytes) in damaged(&full) {
        std::fs::write(cache_log(&dir), &bytes).unwrap();
        let (lines, len) = intact(&full, at);
        let t =
            DiskTier::open_with_cap(&dir, None).unwrap_or_else(|e| panic!("damage at {at}: {e}"));
        let kept = lines.saturating_sub(1);
        assert_eq!(t.len(), kept, "damage at {at}");
        for (i, (key, payload)) in stored.iter().enumerate() {
            let want = (i < kept).then_some(*payload);
            assert_eq!(t.lookup(*key).map(String::as_str), want, "damage at {at}");
        }
        drop(t);
        let want = &full[..len.max(header_len)];
        assert_eq!(
            std::fs::read(cache_log(&dir)).unwrap(),
            want,
            "damage at {at}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
