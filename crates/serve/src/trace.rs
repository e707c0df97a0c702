//! Structured per-request trace records: a JSONL append log sealed and
//! replayed by the harness's sealed-log codec
//! ([`mcc_harness::sealed`]), the campaign journal's discipline — every
//! line carries an FNV-1a seal over its body and a dense sequence
//! number, so a torn tail (a crash mid-append, a truncated copy) is
//! detectable and replay recovers exactly the durable prefix.
//!
//! One record per resolved compile request:
//!
//! ```text
//! {"seq":1,"client":"c1","tenant":"acme","class":"interactive",
//!  "id":"r1","code":200,"tier":0,"us":412,"sum":"<fnv1a:016x>"}
//! ```
//!
//! Unlike the campaign journal the trace is *observability, not
//! recovery*: records are buffered and flushed per record but not
//! fsync'd (the serve path must not pay an fsync per request), so a
//! power loss can lose buffered lines — but never corrupt the readable
//! prefix, which is the property [`replay`] checks and the diurnal
//! bench gates on.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use mcc_harness::json::{esc, get_num, get_str, parse_object};
use mcc_harness::sealed;

use crate::qos::Class;

/// One per-request trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Dense 1-based sequence number.
    pub seq: u64,
    /// Transport client identity the frame arrived under.
    pub client: String,
    /// Resolved tenant (defaults to the client id on bare frames).
    pub tenant: String,
    /// Priority class the request ran at.
    pub class: Class,
    /// Request id echoed from the frame.
    pub id: String,
    /// Response code.
    pub code: u16,
    /// Pressure tier (meaningful for admitted requests; 0 otherwise).
    pub tier: u8,
    /// Latency in microseconds, intake to resolution.
    pub us: u64,
}

impl TraceRecord {
    /// Renders the sealed JSONL line.
    fn to_line(&self, seq: u64) -> String {
        sealed::seal(&format!(
            "{{\"seq\":{seq},\"client\":\"{}\",\"tenant\":\"{}\",\"class\":\"{}\",\"id\":\"{}\",\"code\":{},\"tier\":{},\"us\":{}}}",
            esc(&self.client),
            esc(&self.tenant),
            self.class.name(),
            esc(&self.id),
            self.code,
            self.tier,
            self.us
        ))
    }

    /// Parses and verifies one sealed line (without its newline). `None`
    /// for anything torn: missing seal, bad checksum, missing fields.
    fn from_line(line: &str) -> Option<TraceRecord> {
        let m = parse_object(&sealed::unseal(line)?)?;
        Some(TraceRecord {
            seq: get_num(&m, "seq")?,
            client: get_str(&m, "client")?,
            tenant: get_str(&m, "tenant")?,
            class: Class::parse(Some(&get_str(&m, "class")?)).ok()?,
            id: get_str(&m, "id")?,
            code: u16::try_from(get_num(&m, "code")?).ok()?,
            tier: u8::try_from(get_num(&m, "tier")?).ok()?,
            us: get_num(&m, "us")?,
        })
    }
}

/// The append-side writer. One per server, behind the server's mutex.
pub struct TraceWriter {
    out: BufWriter<File>,
    seq: u64,
}

impl TraceWriter {
    /// Creates (truncating) the trace at `path`. Each server run owns
    /// its trace file; replay is for post-mortems, not resume.
    pub fn create(path: &Path) -> std::io::Result<TraceWriter> {
        Ok(TraceWriter {
            out: BufWriter::new(File::create(path)?),
            seq: 0,
        })
    }

    /// Appends one sealed record, stamping the next sequence number.
    pub fn record(&mut self, rec: &TraceRecord) {
        self.seq += 1;
        let line = rec.to_line(self.seq);
        // A full disk degrades tracing, never the serve path.
        let _ = self.out.write_all(line.as_bytes());
        let _ = self.out.flush();
    }

    /// Records written so far.
    pub fn written(&self) -> u64 {
        self.seq
    }
}

/// Replays a trace file: the sealed, sequence-dense records of its
/// intact prefix ([`sealed::prefix`]), plus whether anything after that
/// prefix (a torn, corrupt or out-of-sequence tail) was dropped.
pub fn replay(path: &Path) -> std::io::Result<(Vec<TraceRecord>, bool)> {
    let log = std::fs::read(path)?;
    let (records, len) = sealed::prefix(&log, |line, seen: &[TraceRecord]| {
        TraceRecord::from_line(line).filter(|r| r.seq == seen.len() as u64 + 1)
    });
    Ok((records, len < log.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> TraceRecord {
        TraceRecord {
            seq: i,
            client: format!("c{i}"),
            tenant: "acme".to_string(),
            class: Class::Batch,
            id: format!("r{i}"),
            code: 200,
            tier: (i % 4) as u8,
            us: i * 37,
        }
    }

    #[test]
    fn records_round_trip_through_the_seal() {
        let r = rec(1);
        let line = r.to_line(1);
        let back = TraceRecord::from_line(line.trim_end_matches('\n')).expect("sealed line parses");
        assert_eq!(back, r);
    }

    #[test]
    fn any_single_byte_flip_is_detected() {
        let line = rec(1).to_line(1);
        let line = line.trim_end_matches('\n');
        for i in 0..line.len() {
            let mut bytes = line.as_bytes().to_vec();
            bytes[i] ^= 0x20;
            let flipped = String::from_utf8_lossy(&bytes).into_owned();
            if flipped == line {
                continue;
            }
            assert!(
                TraceRecord::from_line(&flipped).is_none(),
                "flip at {i} accepted: {flipped}"
            );
        }
    }

    #[test]
    fn replay_recovers_the_prefix_and_drops_the_torn_tail() {
        let dir = std::env::temp_dir().join(format!("mcc-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");

        let mut w = TraceWriter::create(&path).unwrap();
        for i in 1..=5 {
            w.record(&rec(i));
        }
        drop(w);

        // Clean file: everything replays, nothing torn.
        let (recs, torn) = replay(&path).unwrap();
        assert_eq!(recs.len(), 5);
        assert!(!torn);
        assert_eq!(recs[4].client, "c5");

        // Tear the tail: append half a record (no newline, no seal).
        let mut raw = std::fs::read(&path).unwrap();
        raw.extend_from_slice(b"{\"seq\":6,\"client\":\"c6\",\"tena");
        std::fs::write(&path, &raw).unwrap();
        let (recs, torn) = replay(&path).unwrap();
        assert_eq!(recs.len(), 5, "prefix survives the torn tail");
        assert!(torn);

        // Corrupt a middle record: replay stops there.
        let text = std::fs::read_to_string(&path).unwrap();
        let corrupted = text.replacen("\"code\":200", "\"code\":500", 1);
        std::fs::write(&path, corrupted).unwrap();
        let (recs, torn) = replay(&path).unwrap();
        assert_eq!(recs.len(), 0, "corruption in record 1 drops the rest");
        assert!(torn);

        std::fs::remove_dir_all(&dir).ok();
    }
}
