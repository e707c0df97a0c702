//! The crash-only campaign journal: a JSONL append log with an fsync'd
//! header and per-record seals ([`crate::sealed`]).
//!
//! Every completed job appends exactly one line, flushed and fsync'd
//! before the supervisor considers the job finished. A kill — SIGKILL,
//! panic, power loss — can therefore lose at most the record being
//! written, and that torn tail is detectable: recovery keeps the sealed
//! log's intact prefix, so a record whose line is incomplete, is not
//! UTF-8, fails its seal, or breaks the sequence chain is dropped along
//! with everything after it, and the file is truncated back to the last
//! durable record before new appends. Resume is a pure replay:
//! recovered `ok`/`failed`/`skipped` records are final, and only jobs
//! absent from the journal execute.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::json::{esc, get_num, get_str, parse_object, Val};
use crate::sealed::{self, seal, unseal};

/// Journal format version; bumped on any incompatible record change.
pub const JOURNAL_VERSION: u64 = 1;

/// How a journaled job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Completed with a payload row.
    Ok,
    /// Exhausted its attempt budget.
    Failed,
    /// Never executed: its circuit breaker was open.
    Skipped,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Ok => "ok",
            JobStatus::Failed => "failed",
            JobStatus::Skipped => "skipped",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        match s {
            "ok" => Some(JobStatus::Ok),
            "failed" => Some(JobStatus::Failed),
            "skipped" => Some(JobStatus::Skipped),
            _ => None,
        }
    }
}

/// The journal's first line: campaign identity, so a resume cannot
/// silently replay the wrong campaign's records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Campaign name (`"e9"`, `"e10"`, `"fuzz"`, ...).
    pub campaign: String,
    /// Campaign seed; a resume must present the same one.
    pub seed: u64,
    /// Total jobs in the campaign.
    pub jobs: u64,
    /// FNV of the ordered job-id list: the job set must match exactly.
    pub fingerprint: u64,
}

/// One completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRecord {
    /// Sequence number: dense, ascending from 0 after the header.
    pub seq: u64,
    /// The job's stable identifier.
    pub id: String,
    /// Final status.
    pub status: JobStatus,
    /// Attempts consumed (0 for skipped jobs).
    pub attempts: u32,
    /// Failure/skip reason (empty on success).
    pub error: String,
    /// Result payload: the job's table-row cells.
    pub cells: Vec<String>,
}

/// Journal I/O and integrity errors.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The file exists but its header is torn or unreadable.
    BadHeader(String),
    /// The header describes a different campaign/seed/job set.
    Mismatch(String),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o: {e}"),
            JournalError::BadHeader(s) => write!(f, "journal header unreadable: {s}"),
            JournalError::Mismatch(s) => write!(f, "journal mismatch: {s}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

// ------------------------------------------------------------ encoding ----

fn header_body(h: &Header) -> String {
    format!(
        "{{\"v\":{JOURNAL_VERSION},\"kind\":\"header\",\"campaign\":\"{}\",\"seed\":{},\"jobs\":{},\"fingerprint\":\"{:016x}\"}}",
        esc(&h.campaign),
        h.seed,
        h.jobs,
        h.fingerprint,
    )
}

fn record_body(r: &JobRecord) -> String {
    let cells: Vec<String> = r.cells.iter().map(|c| format!("\"{}\"", esc(c))).collect();
    format!(
        "{{\"kind\":\"job\",\"seq\":{},\"id\":\"{}\",\"status\":\"{}\",\"attempts\":{},\"error\":\"{}\",\"cells\":[{}]}}",
        r.seq,
        esc(&r.id),
        r.status.name(),
        r.attempts,
        esc(&r.error),
        cells.join(","),
    )
}

// ------------------------------------------------------------- parsing ----

fn parse_header(line: &str) -> Option<Header> {
    let m = parse_object(&unseal(line)?)?;
    if get_num(&m, "v")? != JOURNAL_VERSION || get_str(&m, "kind")?.as_str() != "header" {
        return None;
    }
    Some(Header {
        campaign: get_str(&m, "campaign")?,
        seed: get_num(&m, "seed")?,
        jobs: get_num(&m, "jobs")?,
        fingerprint: u64::from_str_radix(&get_str(&m, "fingerprint")?, 16).ok()?,
    })
}

fn parse_record(line: &str) -> Option<JobRecord> {
    let m = parse_object(&unseal(line)?)?;
    if get_str(&m, "kind")?.as_str() != "job" {
        return None;
    }
    let cells = match m.get("cells")? {
        Val::Arr(v) => v.clone(),
        _ => return None,
    };
    Some(JobRecord {
        seq: get_num(&m, "seq")?,
        id: get_str(&m, "id")?,
        status: JobStatus::from_name(&get_str(&m, "status")?)?,
        attempts: get_num(&m, "attempts")? as u32,
        error: get_str(&m, "error")?,
        cells,
    })
}

// ------------------------------------------------------------- journal ----

/// An open, append-only journal. All writes go through
/// [`append`](Journal::append), which fsyncs before returning: once it
/// returns, the record survives any kill.
#[derive(Debug)]
pub struct Journal {
    file: File,
    next_seq: u64,
}

impl Journal {
    /// Creates a fresh journal at `path` (truncating any existing file)
    /// and durably writes the header.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem trouble.
    pub fn create(path: &Path, header: &Header) -> Result<Journal, JournalError> {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(seal(&header_body(header)).as_bytes())?;
        file.sync_data()?;
        Ok(Journal { file, next_seq: 0 })
    }

    /// Recovers a journal for resume: validates the header against
    /// `expect`, replays every intact record, drops the torn tail (if
    /// any), truncates the file back to the durable prefix, and returns
    /// the recovered records plus the journal reopened for append.
    ///
    /// Recovery is prefix-only by construction ([`sealed::prefix`]): the
    /// first line that is incomplete, not UTF-8, fails its seal, or
    /// breaks the dense sequence terminates the replay — everything
    /// before it was fsync'd in order, so nothing durable is ever
    /// dropped.
    ///
    /// # Errors
    ///
    /// [`JournalError::BadHeader`] when the file's first line is
    /// unreadable, [`JournalError::Mismatch`] when it describes a
    /// different campaign, seed, or job set, [`JournalError::Io`] on
    /// filesystem trouble.
    pub fn recover(path: &Path, expect: &Header) -> Result<(Journal, Vec<JobRecord>), JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut log = Vec::new();
        file.read_to_end(&mut log)?;

        // The header is the first line, and only the first.
        let (mut head, head_len) = sealed::prefix(&log, |line, seen: &[Header]| match seen {
            [] => parse_header(line),
            _ => None,
        });
        let header = head
            .pop()
            .ok_or_else(|| JournalError::BadHeader("torn or malformed first line".into()))?;
        if header != *expect {
            return Err(JournalError::Mismatch(format!(
                "journal is for campaign `{}` (seed {}, {} jobs, fingerprint {:016x}); \
                 expected `{}` (seed {}, {} jobs, fingerprint {:016x})",
                header.campaign,
                header.seed,
                header.jobs,
                header.fingerprint,
                expect.campaign,
                expect.seed,
                expect.jobs,
                expect.fingerprint,
            )));
        }
        let (records, body_len) = sealed::prefix(&log[head_len..], |line, seen: &[JobRecord]| {
            parse_record(line).filter(|r| r.seq == seen.len() as u64)
        });

        // Truncate away the torn tail so future appends extend a clean
        // prefix (a torn record must only ever be the last thing in the
        // file).
        file.set_len((head_len + body_len) as u64)?;
        file.seek(SeekFrom::End(0))?;
        let next_seq = records.len() as u64;
        Ok((Journal { file, next_seq }, records))
    }

    /// Appends one record, assigning the next sequence number, and fsyncs.
    /// When this returns, the record is durable.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem trouble.
    pub fn append(&mut self, mut rec: JobRecord) -> Result<u64, JournalError> {
        rec.seq = self.next_seq;
        self.file.write_all(seal(&record_body(&rec)).as_bytes())?;
        self.file.sync_data()?;
        self.next_seq += 1;
        Ok(rec.seq)
    }

    /// Deliberately appends the first half of a record *without* a
    /// trailing newline or fsync — the torn tail a crash mid-append
    /// leaves behind. Chaos mode uses this to prove recovery drops it.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] on filesystem trouble.
    pub fn append_torn(&mut self, rec: &JobRecord) -> Result<(), JournalError> {
        let line = seal(&record_body(rec));
        self.file.write_all(&line.as_bytes()[..line.len() / 2])?;
        self.file.flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("mcc-harness-journal-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn hdr() -> Header {
        Header {
            campaign: "test".into(),
            seed: 7,
            jobs: 3,
            fingerprint: 0xabcd,
        }
    }

    fn rec(id: &str, cells: &[&str]) -> JobRecord {
        JobRecord {
            seq: 0,
            id: id.into(),
            status: JobStatus::Ok,
            attempts: 1,
            error: String::new(),
            cells: cells.iter().map(|s| s.to_string()).collect(),
        }
    }

    #[test]
    fn round_trips_records_with_nasty_strings() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path, &hdr()).unwrap();
        j.append(rec("a/b", &["x", "quote\"back\\slash", "tab\tnl\nend"])).unwrap();
        j.append(JobRecord {
            seq: 0,
            id: "unicode-é-⊕".into(),
            status: JobStatus::Failed,
            attempts: 3,
            error: "boom: {\"json\"}".into(),
            cells: vec![],
        })
        .unwrap();
        drop(j);
        let (_, recs) = Journal::recover(&path, &hdr()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].cells[2], "tab\tnl\nend");
        assert_eq!(recs[1].id, "unicode-é-⊕");
        assert_eq!(recs[1].status, JobStatus::Failed);
        assert_eq!(recs[1].error, "boom: {\"json\"}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn recover_rejects_wrong_campaign() {
        let path = tmp("mismatch");
        Journal::create(&path, &hdr()).unwrap();
        let mut other = hdr();
        other.seed = 8;
        match Journal::recover(&path, &other) {
            Err(JournalError::Mismatch(_)) => {}
            o => panic!("expected mismatch, got {o:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated() {
        let path = tmp("torn");
        let mut j = Journal::create(&path, &hdr()).unwrap();
        j.append(rec("one", &["1"])).unwrap();
        j.append_torn(&rec("two", &["2"])).unwrap();
        drop(j);
        let len_with_tear = std::fs::metadata(&path).unwrap().len();
        let (mut j, recs) = Journal::recover(&path, &hdr()).unwrap();
        assert_eq!(recs.len(), 1, "torn record must be dropped");
        assert!(std::fs::metadata(&path).unwrap().len() < len_with_tear);
        // Appending after recovery continues the clean sequence.
        let seq = j.append(rec("two", &["2"])).unwrap();
        assert_eq!(seq, 1);
        drop(j);
        let (_, recs) = Journal::recover(&path, &hdr()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].id, "two");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_any_record_is_caught() {
        let path = tmp("bitflip");
        let mut j = Journal::create(&path, &hdr()).unwrap();
        j.append(rec("one", &["11"])).unwrap();
        j.append(rec("two", &["22"])).unwrap();
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the first record's cells.
        let off = String::from_utf8(bytes.clone())
            .unwrap()
            .find("11")
            .unwrap();
        bytes[off] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recs) = Journal::recover(&path, &hdr()).unwrap();
        // Prefix recovery: the corrupt record and everything after go.
        assert_eq!(recs.len(), 0);
        std::fs::remove_file(&path).ok();
    }
}
