//! The exact bytes of every sealed log line the toolkit writes: the
//! campaign journal, the serve trace, and the cache's artifact and
//! stats logs. Each literal is also read back through its own reader,
//! so a codec change that moves one byte, or that stops reading a line
//! it used to write, fails here.

use std::path::PathBuf;

use mcc::cache::{read_stats, CacheKey, Counters, DiskTier};
use mcc::harness::fingerprint;
use mcc::harness::journal::{Header, JobRecord, JobStatus, Journal};
use mcc::serve::trace::{self, TraceRecord, TraceWriter};
use mcc::serve::Class;

const JOURNAL_HEADER: &str = concat!(
    r#"{"v":1,"kind":"header","campaign":"pin","seed":7,"jobs":2,"fingerprint":"d2b371819297f98a","sum":"caed92616688cb5d"}"#,
    "\n"
);
const JOURNAL_RECORD: &str = concat!(
    r#"{"kind":"job","seq":0,"id":"e9/é","status":"ok","attempts":2,"error":"","cells":["say \"é\"","⊕"],"sum":"db451e43bee737c4"}"#,
    "\n"
);
const TRACE_RECORD: &str = concat!(
    r#"{"seq":1,"client":"c1","tenant":"acmé","class":"batch","id":"r\"1","code":200,"tier":1,"us":412,"sum":"8be89d4db68d7a92"}"#,
    "\n"
);
const CACHE_LOG: &str = concat!(
    "H mcc-0.1.0-cachev1\n",
    r#"A 0123456789abcdeffedcba9876543210 mccart1 "é" ⊕ ed86fe32900b9b27"#,
    "\n"
);
const STATS_LINE: &str = "S 1 2 3 4 5 94bbc6cc4212d93c\n";

fn fresh_dir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mcc-log-formats-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn fingerprint_is_pinned() {
    assert_eq!(fingerprint(["a", "b"].into_iter()), 0xd2b3_7181_9297_f98a);
}

#[test]
fn journal_lines_are_pinned() {
    let dir = fresh_dir("journal");
    let path = dir.join("campaign.jsonl");
    let header = Header {
        campaign: "pin".into(),
        seed: 7,
        jobs: 2,
        fingerprint: fingerprint(["a", "b"].into_iter()),
    };
    let record = JobRecord {
        seq: 0,
        id: "e9/é".into(),
        status: JobStatus::Ok,
        attempts: 2,
        error: String::new(),
        cells: vec!["say \"é\"".into(), "⊕".into()],
    };
    let mut j = Journal::create(&path, &header).unwrap();
    j.append(record.clone()).unwrap();
    drop(j);
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        format!("{JOURNAL_HEADER}{JOURNAL_RECORD}")
    );
    let (_, records) = Journal::recover(&path, &header).unwrap();
    assert_eq!(records, vec![record]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_line_is_pinned() {
    let dir = fresh_dir("trace");
    let path = dir.join("trace.jsonl");
    let record = TraceRecord {
        seq: 1,
        client: "c1".into(),
        tenant: "acmé".into(),
        class: Class::Batch,
        id: "r\"1".into(),
        code: 200,
        tier: 1,
        us: 412,
    };
    let mut w = TraceWriter::create(&path).unwrap();
    w.record(&record);
    drop(w);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), TRACE_RECORD);
    assert_eq!(trace::replay(&path).unwrap(), (vec![record], false));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cache_log_and_stats_lines_are_pinned() {
    let dir = fresh_dir("cache");
    let key = CacheKey(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
    let payload = "mccart1 \"é\" ⊕";
    let counters = Counters {
        hits_memory: 1,
        hits_disk: 2,
        misses: 3,
        stores: 4,
        evictions: 5,
    };
    let mut t = DiskTier::open_with_cap(&dir, None).unwrap();
    t.store(key, payload).unwrap();
    t.append_stats(counters).unwrap();
    drop(t);
    assert_eq!(
        std::fs::read_to_string(dir.join("cache.log")).unwrap(),
        CACHE_LOG
    );
    assert_eq!(
        std::fs::read_to_string(dir.join("stats.log")).unwrap(),
        STATS_LINE
    );
    let t = DiskTier::open_with_cap(&dir, None).unwrap();
    assert_eq!(t.len(), 1);
    assert_eq!(t.lookup(key).map(String::as_str), Some(payload));
    assert_eq!(read_stats(&dir), counters);
    std::fs::remove_dir_all(&dir).ok();
}
