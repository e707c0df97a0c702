//! # mcc-harness — supervised campaign runner
//!
//! The toolkit's experiment campaigns (fault-injection sweeps,
//! differential fuzzing trees, benchmark tables) are long, embarrassingly
//! parallel job lists whose *results* must be deterministic even when
//! their *execution* is not: jobs run on a worker pool, jobs can panic,
//! hang, or fail transiently, and the whole campaign can be killed at any
//! byte. This crate supplies the supervision layer that makes those
//! campaigns robust:
//!
//! * a configurable [`std::thread`] worker pool fed from a shared queue,
//!   every job behind a panic-containment boundary;
//! * per-job wall-clock **deadlines** enforced by the supervisor — an
//!   overdue attempt is condemned, a replacement worker is spawned, and
//!   the stalled thread is left to die quietly;
//! * **retry with exponential backoff + deterministic jitter**
//!   ([`backoff`]) up to a bounded attempt budget;
//! * a per-key **circuit breaker** ([`breaker`]) so one pathological
//!   (frontend, algorithm) combination is skipped-and-recorded instead of
//!   starving the campaign;
//! * a crash-only **journal** ([`journal`]): every resolved job is
//!   fsync'd to a JSONL log before it counts, and `--resume` replays the
//!   log, skips finished jobs, and completes to a bit-identical table;
//!   its seal and torn-tail walk ([`sealed`]) are shared with the cache
//!   log and the serve trace;
//! * **chaos mode** ([`chaos`]): seeded injection of worker panics,
//!   deadline stalls, and a persistently failing victim key, plus a torn
//!   journal tail, to prove all of the above under fire.
//!
//! Determinism contract: the final [`CampaignReport::outcomes`] vector is
//! ordered by job index, and each job's cells are a pure function of the
//! job itself — so `--jobs 1` and `--jobs N` produce byte-identical
//! tables, and a killed-and-resumed campaign matches an uninterrupted
//! one. Scheduling noise (retries, kills, trips) lands only in
//! [`HarnessStats`], which is reported on stderr, never in the table.

pub mod backoff;
pub mod breaker;
pub mod chaos;
pub mod journal;
pub mod json;
pub mod pool;
pub mod restart;
pub mod sealed;

use std::collections::{HashMap, HashSet, VecDeque};
use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

pub use backoff::BackoffConfig;
pub use breaker::{Admit, Breaker, BreakerBank, BreakerConfig};
pub use chaos::{ChaosPlan, Fault};
pub use journal::{Header, JobRecord, JobStatus, Journal, JournalError};
pub use pool::{ReadyQueue, Task, TaskOutcome, WorkerPool};
pub use restart::{RestartDecision, RestartPolicy, RestartTracker};

/// SplitMix64 — the toolkit's standard seedable mixer, shared by backoff
/// jitter, chaos decisions, the load generator, and the routing ring.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The shared hash behind backoff jitter and chaos decisions: a pure
/// function of `(campaign seed, job id, attempt)`.
pub(crate) fn backoff_hash(seed: u64, job_id: &str, attempt: u32) -> u64 {
    splitmix64(seed ^ sealed::fnv1a(job_id.as_bytes()) ^ u64::from(attempt))
}

/// Fingerprint of an ordered job-id list, stored in the journal header so
/// a resume against a different job set is rejected instead of replayed.
/// It is the FNV-1a of the ids, each followed by a `0xff` byte.
pub fn fingerprint<'a>(ids: impl Iterator<Item = &'a str>) -> u64 {
    let fold = |h: sealed::Fnv1a, id: &str| h.write(id.as_bytes()).write(&[0xff]);
    ids.fold(sealed::Fnv1a::default(), fold).finish()
}

/// One unit of campaign work.
///
/// The closure must be a *pure* function of the job (plus whatever it
/// captured at construction): the harness may run it on any worker, may
/// run it more than once (retries), and relies on every successful run
/// returning the same cells.
pub struct Job {
    /// Stable identifier, unique within the campaign (`"e9/qsort/ecc"`).
    pub id: String,
    /// Circuit-breaker key: jobs sharing a key share a breaker
    /// (`"simpl"`, `"qsort"`, ...).
    pub key: String,
    /// The work: returns the job's table-row cells, or an error message.
    pub run: Box<dyn Fn() -> Result<Vec<String>, String> + Send + Sync>,
}

impl Job {
    /// Convenience constructor.
    pub fn new(
        id: impl Into<String>,
        key: impl Into<String>,
        run: impl Fn() -> Result<Vec<String>, String> + Send + Sync + 'static,
    ) -> Job {
        Job {
            id: id.into(),
            key: key.into(),
            run: Box::new(run),
        }
    }
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Campaign-wide supervision tuning.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Campaign name; written to the journal header.
    pub campaign: String,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Per-attempt wall-clock deadline; `None` disables condemnation.
    pub deadline: Option<Duration>,
    /// Attempt budget per job (retries + 1; clamped to at least 1).
    pub attempts: u32,
    /// Retry backoff tuning.
    pub backoff: BackoffConfig,
    /// Circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Campaign seed: drives backoff jitter and the chaos plan.
    pub seed: u64,
    /// Inject harness-level faults (see [`chaos`]).
    pub chaos: bool,
}

impl HarnessConfig {
    /// A configuration for plain in-process batch fan-out (the `exp_all`
    /// driver): trusted local jobs, so no deadline condemnation and a
    /// single attempt — a failure is a bug to report, not to retry.
    pub fn batch(campaign: &str, workers: usize) -> Self {
        HarnessConfig {
            campaign: campaign.to_string(),
            workers,
            deadline: None,
            attempts: 1,
            ..Default::default()
        }
    }
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            campaign: "campaign".to_string(),
            workers: 4,
            deadline: Some(Duration::from_secs(30)),
            attempts: 3,
            backoff: BackoffConfig::default(),
            breaker: BreakerConfig::default(),
            seed: 1,
            chaos: false,
        }
    }
}

/// One job's final, journaled outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutcome {
    /// The job's id.
    pub id: String,
    /// How it ended.
    pub status: JobStatus,
    /// Attempts consumed (0 when skipped).
    pub attempts: u32,
    /// Failure/skip reason (empty on success).
    pub error: String,
    /// Table-row cells (empty unless `status == Ok`).
    pub cells: Vec<String>,
}

/// Supervision counters — stderr material, never table material.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Attempts dispatched to workers this run.
    pub executed: u64,
    /// Outcomes recovered from the journal instead of executed.
    pub resumed: u64,
    /// Jobs resolved Ok this run.
    pub ok: u64,
    /// Jobs resolved Failed this run.
    pub failed: u64,
    /// Jobs resolved Skipped (open breaker) this run.
    pub skipped: u64,
    /// Retries scheduled after failed attempts.
    pub retries: u64,
    /// Attempts condemned for exceeding the deadline.
    pub deadline_kills: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Worker panics contained (includes chaos-injected ones).
    pub worker_panics: u64,
    /// Chaos faults injected.
    pub chaos_faults: u64,
}

/// A finished campaign: outcomes in job-index order plus the counters.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// One outcome per input job, in input order — the determinism
    /// anchor: identical regardless of worker count or resume history.
    pub outcomes: Vec<JobOutcome>,
    /// Supervision counters for this run.
    pub stats: HarnessStats,
    /// Breaker keys with skipped jobs — the degraded combinations.
    pub degraded: Vec<String>,
}

impl CampaignReport {
    /// A human-readable supervision summary (for stderr).
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let mut out = format!(
            "campaign: {} ok, {} failed, {} skipped ({} resumed from journal)\n\
             supervision: {} attempts, {} retries, {} deadline kills, {} panics contained, {} breaker trips",
            s.ok, s.failed, s.skipped, s.resumed,
            s.executed, s.retries, s.deadline_kills, s.worker_panics, s.breaker_trips,
        );
        if s.chaos_faults > 0 {
            out.push_str(&format!("\nchaos: {} faults injected", s.chaos_faults));
        }
        if !self.degraded.is_empty() {
            out.push_str(&format!(
                "\ndegraded keys (breaker open): {}",
                self.degraded.join(", ")
            ));
        }
        out
    }
}

/// Campaign-level errors.
#[derive(Debug)]
pub enum HarnessError {
    /// Journal I/O or integrity trouble.
    Journal(JournalError),
    /// Invalid campaign setup (duplicate job ids, ...).
    Config(String),
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Journal(e) => write!(f, "{e}"),
            HarnessError::Config(s) => write!(f, "campaign config: {s}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<JournalError> for HarnessError {
    fn from(e: JournalError) -> Self {
        HarnessError::Journal(e)
    }
}

// ------------------------------------------------------ the supervisor ----

/// An attempt in flight.
#[derive(Debug, Clone, Copy)]
struct Flight {
    job_idx: usize,
    attempt: u32,
    started: Instant,
}

/// Runs a campaign to completion under full supervision.
///
/// Jobs execute on `cfg.workers` threads; each resolved job is fsync'd to
/// the journal at `journal_path` before it counts. With `resume` set and
/// an existing journal, recovered outcomes are final and only the
/// remaining jobs execute; the returned table is identical to an
/// uninterrupted run. See the crate docs for the determinism contract.
///
/// # Errors
///
/// [`HarnessError::Config`] on duplicate job ids;
/// [`HarnessError::Journal`] when the journal cannot be created, fails
/// integrity checks, or describes a different campaign.
pub fn run_campaign(
    jobs: Vec<Job>,
    cfg: &HarnessConfig,
    journal_path: &Path,
    resume: bool,
) -> Result<CampaignReport, HarnessError> {
    let jobs = Arc::new(jobs);
    let mut index_of: HashMap<String, usize> = HashMap::new();
    for (i, j) in jobs.iter().enumerate() {
        if index_of.insert(j.id.clone(), i).is_some() {
            return Err(HarnessError::Config(format!("duplicate job id `{}`", j.id)));
        }
    }
    let header = Header {
        campaign: cfg.campaign.clone(),
        seed: cfg.seed,
        jobs: jobs.len() as u64,
        fingerprint: fingerprint(jobs.iter().map(|j| j.id.as_str())),
    };

    let mut stats = HarnessStats::default();
    let mut outcomes: Vec<Option<JobOutcome>> = (0..jobs.len()).map(|_| None).collect();

    let (mut journal, recovered) = if resume && journal_path.exists() {
        Journal::recover(journal_path, &header)?
    } else {
        (Journal::create(journal_path, &header)?, Vec::new())
    };
    for rec in recovered {
        let Some(&idx) = index_of.get(&rec.id) else {
            return Err(HarnessError::Journal(JournalError::Mismatch(format!(
                "journaled job `{}` is not in this campaign",
                rec.id
            ))));
        };
        if outcomes[idx].is_none() {
            outcomes[idx] = Some(JobOutcome {
                id: rec.id,
                status: rec.status,
                attempts: rec.attempts,
                error: rec.error,
                cells: rec.cells,
            });
            stats.resumed += 1;
        }
    }

    let waiting: VecDeque<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();
    let chaos_plan = cfg.chaos.then(|| {
        Arc::new(ChaosPlan::new(
            cfg.seed,
            &jobs.iter().map(|j| j.key.clone()).collect::<Vec<_>>(),
        ))
    });

    if !waiting.is_empty() {
        supervise(
            Arc::clone(&jobs),
            cfg,
            chaos_plan,
            waiting,
            &mut journal,
            &mut outcomes,
            &mut stats,
        )?;
    }

    // Chaos epilogue: leave a torn half-record at the tail, exactly what
    // a kill mid-append produces, so the next resume proves recovery.
    if cfg.chaos {
        journal.append_torn(&JobRecord {
            seq: u64::MAX,
            id: "chaos/torn-tail".to_string(),
            status: JobStatus::Failed,
            attempts: 0,
            error: "simulated crash mid-append".to_string(),
            cells: vec![],
        })?;
    }

    let mut degraded: Vec<String> = outcomes
        .iter()
        .flatten()
        .zip(jobs.iter())
        .filter(|(o, _)| o.status == JobStatus::Skipped)
        .map(|(_, j)| j.key.clone())
        .collect();
    degraded.sort();
    degraded.dedup();

    Ok(CampaignReport {
        outcomes: outcomes.into_iter().map(|o| o.unwrap()).collect(),
        stats,
        degraded,
    })
}

/// How often the supervisor wakes to promote retries and scan deadlines.
const SUPERVISOR_TICK: Duration = Duration::from_millis(5);

/// The supervisor proper: owns the journal, the breaker bank, the retry
/// schedule, and the deadline scan. Single-threaded by design — workers
/// compute, the supervisor decides and records.
fn supervise(
    jobs: Arc<Vec<Job>>,
    cfg: &HarnessConfig,
    chaos_plan: Option<Arc<ChaosPlan>>,
    mut waiting: VecDeque<usize>,
    journal: &mut Journal,
    outcomes: &mut [Option<JobOutcome>],
    stats: &mut HarnessStats,
) -> Result<(), HarnessError> {
    let workers = cfg.workers.max(1).min(waiting.len().max(1));
    let attempts_budget = cfg.attempts.max(1);
    let stall = match cfg.deadline {
        Some(d) => d + d / 2 + Duration::from_millis(100),
        None => Duration::from_millis(50),
    };

    let (result_tx, results) = mpsc::channel();
    let pool = WorkerPool::new(workers, VecDeque::new(), move |token, outcome| {
        let _ = result_tx.send((token, outcome));
    });

    let mut breakers = BreakerBank::new(cfg.breaker);
    let mut tick: u64 = 0; // logical time: one tick per attempt resolution
    let mut next_token: u64 = 0;
    let mut in_flight: HashMap<u64, Flight> = HashMap::new();
    // Tokens whose dispatched attempt carries a chaos-injected fault.
    let mut chaos_tokens: HashSet<u64> = HashSet::new();
    // Retries waiting out their backoff: (due, job index, next attempt).
    let mut retry_at: Vec<(Instant, usize, u32)> = Vec::new();
    let mut remaining = waiting.len();

    // Resolves one job: record the outcome, fsync the journal, advance
    // logical time.
    macro_rules! resolve {
        ($idx:expr, $status:expr, $attempts:expr, $error:expr, $cells:expr) => {{
            let idx: usize = $idx;
            let outcome = JobOutcome {
                id: jobs[idx].id.clone(),
                status: $status,
                attempts: $attempts,
                error: $error,
                cells: $cells,
            };
            journal.append(JobRecord {
                seq: 0,
                id: outcome.id.clone(),
                status: outcome.status,
                attempts: outcome.attempts,
                error: outcome.error.clone(),
                cells: outcome.cells.clone(),
            })?;
            outcomes[idx] = Some(outcome);
            remaining -= 1;
        }};
    }

    // Handles one failed attempt: count it against the breaker, then
    // either schedule a retry or resolve the job as failed.
    macro_rules! attempt_failed {
        ($idx:expr, $attempt:expr, $msg:expr) => {{
            let idx: usize = $idx;
            let attempt: u32 = $attempt;
            let msg: String = $msg;
            tick += 1;
            if breakers.on_failure(&jobs[idx].key, tick) {
                stats.breaker_trips += 1;
            }
            if attempt < attempts_budget {
                let wait = backoff::delay(&cfg.backoff, cfg.seed, &jobs[idx].id, attempt);
                retry_at.push((Instant::now() + wait, idx, attempt + 1));
                stats.retries += 1;
            } else {
                stats.failed += 1;
                resolve!(idx, JobStatus::Failed, attempt, msg, Vec::new());
            }
        }};
    }

    while remaining > 0 {
        // Dispatch: due retries first (they have waited), then fresh
        // jobs, gated per key by the breaker.
        loop {
            if in_flight.len() >= workers {
                break;
            }
            let now = Instant::now();
            let due = retry_at
                .iter()
                .position(|(at, _, _)| *at <= now)
                .map(|i| retry_at.remove(i));
            let (idx, attempt) = match due {
                Some((_, idx, attempt)) => (idx, attempt),
                None => match waiting.pop_front() {
                    Some(idx) => (idx, 1),
                    None => break,
                },
            };
            match breakers.admit(&jobs[idx].key, tick) {
                Admit::Execute | Admit::Probe => {
                    let token = next_token;
                    next_token += 1;
                    in_flight.insert(
                        token,
                        Flight {
                            job_idx: idx,
                            attempt,
                            started: Instant::now(),
                        },
                    );
                    stats.executed += 1;
                    // Chaos faults are a pure function of (seed, id, key,
                    // attempt), so deciding them here at dispatch — and
                    // baking them into the task — keeps the pool itself
                    // policy-free.
                    let fault = chaos_plan
                        .as_ref()
                        .and_then(|p| p.fault_for(&jobs[idx].id, &jobs[idx].key, attempt));
                    if fault.is_some() {
                        chaos_tokens.insert(token);
                    }
                    let task: Task<Result<Vec<String>, String>> = match fault {
                        Some(Fault::Panic) => {
                            Box::new(|| panic!("chaos: injected worker panic"))
                        }
                        Some(Fault::Stall) => Box::new(move || {
                            std::thread::sleep(stall);
                            Err("chaos: stalled past the deadline".to_string())
                        }),
                        Some(Fault::Fail) => {
                            Box::new(|| Err("chaos: injected failure on victim key".to_string()))
                        }
                        None => {
                            let jobs = Arc::clone(&jobs);
                            Box::new(move || (jobs[idx].run)())
                        }
                    };
                    pool.submit(|q| q.push_back((token, task)));
                }
                Admit::Reject => {
                    tick += 1;
                    stats.skipped += 1;
                    resolve!(
                        idx,
                        JobStatus::Skipped,
                        attempt - 1,
                        format!("circuit breaker open for key `{}`", jobs[idx].key),
                        Vec::new()
                    );
                }
            }
        }

        // Collect one result (or time out and fall through to the
        // deadline scan / retry promotion).
        match results.recv_timeout(SUPERVISOR_TICK) {
            Ok((token, outcome)) => {
                // An outcome for an attempt the deadline scan already
                // resolved without condemning it is dropped.
                if let Some(f) = in_flight.remove(&token) {
                    let was_chaos = chaos_tokens.remove(&token);
                    match outcome {
                        TaskOutcome::Done(Ok(cells)) => {
                            tick += 1;
                            breakers.on_success(&jobs[f.job_idx].key);
                            stats.ok += 1;
                            resolve!(
                                f.job_idx,
                                JobStatus::Ok,
                                f.attempt,
                                String::new(),
                                cells
                            );
                        }
                        TaskOutcome::Done(Err(msg)) => {
                            if was_chaos {
                                stats.chaos_faults += 1;
                            }
                            attempt_failed!(f.job_idx, f.attempt, msg);
                        }
                        TaskOutcome::Panicked(text) => {
                            stats.worker_panics += 1;
                            if was_chaos {
                                stats.chaos_faults += 1;
                            }
                            attempt_failed!(
                                f.job_idx,
                                f.attempt,
                                format!("panic contained: {text}")
                            );
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // All workers died without reporting — should be
                // impossible (panics are contained), but fail loudly
                // rather than spin forever.
                return Err(HarnessError::Config(
                    "worker pool disconnected mid-campaign".to_string(),
                ));
            }
        }

        // Deadline scan: condemn overdue attempts. The stalled worker
        // keeps running (threads cannot be safely killed); it will see
        // its token condemned when it finally finishes and exit without
        // reporting. A fresh worker replaces it now. An attempt no worker
        // is running is not condemned; its outcome is dropped above.
        if let Some(deadline) = cfg.deadline {
            let now = Instant::now();
            let overdue: Vec<u64> = in_flight
                .iter()
                .filter(|(_, f)| now.duration_since(f.started) > deadline)
                .map(|(t, _)| *t)
                .collect();
            for token in overdue {
                let f = in_flight.remove(&token).unwrap();
                chaos_tokens.remove(&token);
                stats.deadline_kills += 1;
                if chaos_plan.is_some() {
                    // Chaos stalls are injected faults; count them here
                    // because the condemned worker never reports.
                    stats.chaos_faults += 1;
                }
                pool.condemn(token);
                attempt_failed!(
                    f.job_idx,
                    f.attempt,
                    format!("deadline exceeded ({}ms): attempt condemned", deadline.as_millis())
                );
            }
        }
    }

    // Shutdown: wake everyone; idle workers exit on the flag. Condemned
    // workers may still be inside a stalled job — the pool drops their
    // handles rather than join, so shutdown never inherits the stall.
    pool.shutdown();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join("mcc-harness-lib-tests");
        std::fs::create_dir_all(&d).unwrap();
        d.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn ok_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                Job::new(format!("job/{i}"), format!("key{}", i % 3), move || {
                    Ok(vec![format!("cell-{i}"), format!("{}", i * i)])
                })
            })
            .collect()
    }

    fn cfg(name: &str, workers: usize) -> HarnessConfig {
        HarnessConfig {
            campaign: name.to_string(),
            workers,
            deadline: Some(Duration::from_secs(5)),
            attempts: 3,
            backoff: BackoffConfig {
                base: Duration::from_millis(1),
                cap: Duration::from_millis(8),
            },
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn outcomes_are_in_job_order_regardless_of_worker_count() {
        let p1 = tmp("order-1");
        let p4 = tmp("order-4");
        let r1 = run_campaign(ok_jobs(12), &cfg("t", 1), &p1, false).unwrap();
        let r4 = run_campaign(ok_jobs(12), &cfg("t", 4), &p4, false).unwrap();
        assert_eq!(r1.outcomes, r4.outcomes, "worker count must not affect the table");
        assert_eq!(r1.outcomes[5].cells, vec!["cell-5".to_string(), "25".to_string()]);
        assert_eq!(r4.stats.ok, 12);
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p4).ok();
    }

    #[test]
    fn flaky_job_is_retried_to_success() {
        let p = tmp("flaky");
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let jobs = vec![Job::new("flaky", "k", move || {
            if t.fetch_add(1, Ordering::SeqCst) < 2 {
                Err("transient".to_string())
            } else {
                Ok(vec!["survived".to_string()])
            }
        })];
        let r = run_campaign(jobs, &cfg("t", 2), &p, false).unwrap();
        assert_eq!(r.outcomes[0].status, JobStatus::Ok);
        assert_eq!(r.outcomes[0].attempts, 3);
        assert_eq!(r.stats.retries, 2);
        assert_eq!(tries.load(Ordering::SeqCst), 3);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let p = tmp("budget");
        let tries = Arc::new(AtomicU32::new(0));
        let t = Arc::clone(&tries);
        let jobs = vec![Job::new("doomed", "k", move || {
            t.fetch_add(1, Ordering::SeqCst);
            Err("always".to_string())
        })];
        let r = run_campaign(jobs, &cfg("t", 2), &p, false).unwrap();
        assert_eq!(r.outcomes[0].status, JobStatus::Failed);
        assert_eq!(r.outcomes[0].error, "always");
        assert_eq!(tries.load(Ordering::SeqCst), 3, "attempts = retries + 1");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn panicking_job_is_contained_and_fails_cleanly() {
        let p = tmp("panic");
        let jobs = vec![
            Job::new("boom", "k", || panic!("kaboom")),
            Job::new("fine", "k2", || Ok(vec!["ok".to_string()])),
        ];
        let r = run_campaign(jobs, &cfg("t", 2), &p, false).unwrap();
        assert_eq!(r.outcomes[0].status, JobStatus::Failed);
        assert!(r.outcomes[0].error.contains("kaboom"));
        assert_eq!(r.outcomes[1].status, JobStatus::Ok);
        assert_eq!(r.stats.worker_panics, 3, "every attempt panicked");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn pathological_key_trips_breaker_and_skips_rest() {
        let p = tmp("breaker");
        // 8 jobs on one bad key, attempts=2, threshold=3: the first few
        // jobs burn through the threshold, the tail is skipped.
        let mut c = cfg("t", 1);
        c.attempts = 2;
        c.breaker = BreakerConfig {
            threshold: 3,
            cooldown: 1_000_000, // never half-opens within this run
        };
        let jobs: Vec<Job> = (0..8)
            .map(|i| Job::new(format!("bad/{i}"), "badkey", || Err("broken".to_string())))
            .collect();
        let r = run_campaign(jobs, &c, &p, false).unwrap();
        assert!(r.stats.breaker_trips >= 1);
        assert!(r.stats.skipped >= 1, "tail jobs must be skipped, not retried");
        assert_eq!(r.stats.skipped + r.stats.failed, 8);
        assert_eq!(r.degraded, vec!["badkey".to_string()]);
        let skipped: Vec<&JobOutcome> = r
            .outcomes
            .iter()
            .filter(|o| o.status == JobStatus::Skipped)
            .collect();
        assert!(skipped.iter().all(|o| o.error.contains("circuit breaker open")));
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn deadline_condemns_stalled_attempt_and_campaign_finishes() {
        let p = tmp("deadline");
        let mut c = cfg("t", 2);
        c.deadline = Some(Duration::from_millis(40));
        c.attempts = 2;
        let stalls = Arc::new(AtomicU32::new(0));
        let s = Arc::clone(&stalls);
        let jobs = vec![
            Job::new("slow", "k", move || {
                if s.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(400));
                }
                Ok(vec!["eventually".to_string()])
            }),
            Job::new("fast", "k2", || Ok(vec!["quick".to_string()])),
        ];
        let r = run_campaign(jobs, &c, &p, false).unwrap();
        assert!(r.stats.deadline_kills >= 1, "first attempt must be condemned");
        assert_eq!(r.outcomes[0].status, JobStatus::Ok, "retry succeeds");
        assert_eq!(r.outcomes[0].cells, vec!["eventually".to_string()]);
        assert_eq!(r.outcomes[1].status, JobStatus::Ok);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn resume_skips_journaled_jobs_and_matches_fresh_run() {
        let p_fresh = tmp("resume-fresh");
        let p_resumed = tmp("resume-cut");
        let c = cfg("t", 2);
        let fresh = run_campaign(ok_jobs(10), &c, &p_fresh, false).unwrap();

        // Simulate a kill at ~50%: journal with only the first half of
        // the records (plus a torn tail byte-slice of the next line).
        let full = std::fs::read_to_string(&p_fresh).unwrap();
        let lines: Vec<&str> = full.split_inclusive('\n').collect();
        let keep = 1 + 5; // header + 5 records
        let mut cut: String = lines[..keep].concat();
        cut.push_str(&lines[keep][..lines[keep].len() / 2]); // torn tail
        std::fs::write(&p_resumed, &cut).unwrap();

        let ran = Arc::new(AtomicU32::new(0));
        let jobs: Vec<Job> = (0..10)
            .map(|i| {
                let ran = Arc::clone(&ran);
                Job::new(format!("job/{i}"), format!("key{}", i % 3), move || {
                    ran.fetch_add(1, Ordering::SeqCst);
                    Ok(vec![format!("cell-{i}"), format!("{}", i * i)])
                })
            })
            .collect();
        let resumed = run_campaign(jobs, &c, &p_resumed, true).unwrap();
        assert_eq!(resumed.stats.resumed, 5, "torn record dropped, 5 kept");
        assert_eq!(
            ran.load(Ordering::SeqCst),
            5,
            "journaled jobs must not re-execute"
        );
        assert_eq!(resumed.outcomes, fresh.outcomes, "resumed == fresh");
        std::fs::remove_file(&p_fresh).ok();
        std::fs::remove_file(&p_resumed).ok();
    }

    #[test]
    fn resume_against_different_job_set_is_rejected() {
        let p = tmp("resume-mismatch");
        let c = cfg("t", 1);
        run_campaign(ok_jobs(4), &c, &p, false).unwrap();
        let other: Vec<Job> = (0..4)
            .map(|i| Job::new(format!("other/{i}"), "k", || Ok(vec![])))
            .collect();
        match run_campaign(other, &c, &p, true) {
            Err(HarnessError::Journal(JournalError::Mismatch(_))) => {}
            o => panic!("expected fingerprint mismatch, got {o:?}"),
        }
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn chaos_campaign_completes_with_faults_counted_and_tail_torn() {
        let p = tmp("chaos");
        let mut c = cfg("t", 4);
        c.chaos = true;
        c.deadline = Some(Duration::from_millis(60));
        c.attempts = 2;
        c.breaker = BreakerConfig {
            threshold: 4,
            cooldown: 1_000_000,
        };
        let jobs: Vec<Job> = (0..12)
            .map(|i| {
                Job::new(format!("job/{i}"), format!("key{}", i % 3), move || {
                    Ok(vec![format!("v{i}")])
                })
            })
            .collect();
        let r = run_campaign(jobs, &c, &p, false).unwrap();
        assert!(r.stats.chaos_faults > 0, "chaos must inject something");
        assert!(
            r.stats.failed + r.stats.skipped > 0,
            "the victim key must degrade"
        );
        assert!(!r.degraded.is_empty() || r.stats.breaker_trips > 0);
        // The torn tail is present and a resume recovers cleanly past it.
        let text = std::fs::read_to_string(&p).unwrap();
        assert!(!text.ends_with('\n'), "chaos leaves a torn final line");
        let ids: Vec<String> = (0..12).map(|i| format!("job/{i}")).collect();
        let header = Header {
            campaign: c.campaign.clone(),
            seed: c.seed,
            jobs: 12,
            fingerprint: fingerprint(ids.iter().map(|s| s.as_str())),
        };
        let (_, recs) = Journal::recover(&p, &header).unwrap();
        assert_eq!(recs.len(), 12, "all real records survive the torn tail");
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn duplicate_job_ids_are_rejected() {
        let p = tmp("dup");
        let jobs = vec![
            Job::new("same", "k", || Ok(vec![])),
            Job::new("same", "k", || Ok(vec![])),
        ];
        match run_campaign(jobs, &cfg("t", 1), &p, false) {
            Err(HarnessError::Config(msg)) => assert!(msg.contains("duplicate")),
            o => panic!("expected config error, got {o:?}"),
        }
        std::fs::remove_file(&p).ok();
    }
}
