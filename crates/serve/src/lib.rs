//! # `mcc-serve` — the compile-as-a-service daemon
//!
//! A long-running server accepting compile requests over newline-
//! delimited JSON ([`proto`]) on TCP ([`tcp`]) or through the in-process
//! client API ([`Server::handle_line`]). An admitted compile waits in one
//! queue, the weighted-fair queue ([`qos`]), which the shared worker
//! pool's workers ([`mcc_harness::pool`]) pop directly; the worker that
//! ran a compile through the content-addressed cache also answers it. The
//! robustness machinery is the point:
//!
//! * **bounded admission** — at most `queue_bound` compile requests are
//!   in flight; the rest are shed with a structured `503`, so memory is
//!   bounded by construction ([`admission`]);
//! * **load-shedding tiers** — rising queue depth shrinks compaction
//!   budgets, then skips disk persistence, then forces sequential-only
//!   compaction, before anything is shed;
//! * **per-request deadlines** — the supervisor thread's deadline scan
//!   unqueues an overdue request or condemns its running attempt
//!   ([`mcc_harness::WorkerPool::condemn`]), answers `504`, and a
//!   replacement worker keeps the pool at capacity;
//! * **per-client rate limiting** — a token bucket per client id
//!   (`429` when dry);
//! * **per-machine circuit breakers** — a machine whose compiles keep
//!   panicking or timing out is rejected-fast (`503`) for a cool-down,
//!   reusing the campaign breaker bank verbatim;
//! * **panic containment** — every compile runs behind the pool's
//!   `catch_unwind`; a panicking request answers `500` and the daemon
//!   (and the connection) live on;
//! * **graceful drain** — [`Server::drain`] stops admission, lets the
//!   in-flight finish (or deadline out), flushes the cache stats
//!   journal, and joins the supervisor; every admitted request still
//!   gets exactly one response.
//!
//! The invariant the tests enforce end to end: **every admitted request
//! resolves to exactly one structured response** — success, compile
//! error, panic, deadline, or drain — and nothing is ever silently
//! dropped. Whichever of the worker and the deadline scan takes a
//! request out of the pending map answers it; the other finds it gone.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mcc_cache::Persist;
use mcc_compact::Algorithm;
use mcc_core::{Compiler, CompilerOptions, SourceLang};
use mcc_harness::{BreakerBank, BreakerConfig, ReadyQueue, Task, TaskOutcome, WorkerPool};
use metrics::Series;

pub mod admission;
pub mod buf;
pub mod dedup;
pub mod metrics;
pub mod proto;
pub mod proto2;
pub mod qos;
pub mod tcp;
pub mod trace;

pub use admission::{tier_for_depth, RateLimiter, ServeCounters};
pub use dedup::{Claim, DedupWindow};
pub use proto::{parse_request, CompileReq, Ident, Request, Response};
pub use qos::{tier_for_class, Class, WfqQueue};

use tcp::WireSubmission;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads compiling requests.
    pub workers: usize,
    /// Maximum admitted-but-unresolved compile requests; everything past
    /// this is shed with a `503`.
    pub queue_bound: usize,
    /// Default per-request deadline (a request's `deadline_ms` may only
    /// tighten it).
    pub deadline: Duration,
    /// Per-client token-bucket rate (requests/second); `None` = off.
    pub rate_per_client: Option<u32>,
    /// TCP connections idle longer than this are reaped (`None` = never);
    /// reaped connections bump the `idle_reaped` counter.
    pub idle_timeout: Option<Duration>,
    /// Per-tenant WFQ weight overrides (`(tenant, weight)`).
    pub tenant_weights: Vec<(String, u32)>,
    /// Maximum *queued* (admitted but not yet dispatched) requests one
    /// tenant may hold; excess is shed `503`. `0` disables the quota.
    pub tenant_quota: usize,
    /// Per-request trace journal path (`None` = tracing off). The file
    /// is truncated at start; records are FNV-sealed JSONL ([`trace`]).
    pub trace_path: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_bound: 64,
            deadline: Duration::from_millis(10_000),
            rate_per_client: None,
            idle_timeout: Some(Duration::from_millis(30_000)),
            tenant_weights: Vec::new(),
            tenant_quota: 0,
            trace_path: None,
        }
    }
}

/// How often the supervisor wakes to scan deadlines and the drain flag.
const SUPERVISOR_TICK: Duration = Duration::from_millis(2);

/// Capacity of the idempotency window: how many `(client, request_id)`
/// keys the server remembers for exactly-once retries.
const DEDUP_WINDOW: usize = 4096;

/// What a worker returns for one compile request.
type CompileResult = Result<CompileOk, String>;

/// The success payload of one compile.
struct CompileOk {
    instrs: usize,
    ops: usize,
    spills: usize,
    algorithm: String,
    cached: Option<&'static str>,
    checksum: u64,
    /// The content address, so the answering worker can memoize the
    /// response constants for the synchronous fast path.
    key: u128,
}

/// The deterministic part of a `200` response, memoized per content
/// address once a compile resolves. Everything here is a pure function
/// of the cache key; only `cached` and `tier` vary per request.
#[derive(Clone)]
struct RespConsts {
    instrs: usize,
    ops: usize,
    spills: usize,
    algorithm: String,
    checksum: u64,
}

/// One admitted request awaiting its answer. It sits in the pending map
/// from admission until the worker that ran it or the deadline scan
/// removes it; whichever does sends the one response.
struct Pending {
    id: String,
    machine: String,
    /// The pressure tier the request was admitted at (echoed in the
    /// `200` so clients can group conformance checks by tier).
    tier: u8,
    deadline: Instant,
    responder: mpsc::Sender<Response>,
    /// QoS accounting identity for the metrics/trace layer.
    client: String,
    tenant: String,
    class: Class,
    /// Intake timestamp: the latency histograms measure from here.
    enqueued: Instant,
    /// The identity the request arrived with: its dedup key resolves
    /// with the response.
    ident: Option<Ident>,
}

impl Pending {
    /// Sends the request's one response. It is recorded in the metrics
    /// and the trace, and the queue slot is freed before the send, so a
    /// client that reacts to its response observes the freed slot. The
    /// dedup key resolves first, so a parked duplicate is answered
    /// alongside it.
    fn answer(self, inner: &Inner, response: Response) {
        let us = us_since(self.enqueued);
        observe(inner, &self.client, &self.tenant, self.class, &self.id, response.code, self.tier, us);
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        if let Some(ident) = &self.ident {
            inner.dedup.resolve(ident, response.code, &response.to_line());
        }
        let _ = self.responder.send(response);
    }
}

/// One compile job in the weighted-fair queue, exactly what a worker
/// runs.
type Job = Task<CompileResult>;

/// A free worker pops the fair queue's head: the smallest virtual finish.
impl ReadyQueue<CompileResult> for WfqQueue<Job> {
    fn pop(&mut self) -> Option<(u64, Job)> {
        WfqQueue::pop(self)
    }
}

struct Inner {
    cfg: ServeConfig,
    counters: ServeCounters,
    limiter: RateLimiter,
    /// Admitted-but-unresolved compile requests (the bounded queue).
    inflight: AtomicUsize,
    /// Token generator for pool submissions.
    next_token: AtomicU64,
    draining: AtomicBool,
    pending: Mutex<HashMap<u64, Pending>>,
    /// (bank, logical now): one tick per resolution, like the campaign
    /// supervisor, so breaker behaviour is deterministic under test.
    breakers: Mutex<(BreakerBank, u64)>,
    /// The exactly-once window for requests that carry an identity.
    dedup: DedupWindow,
    /// One compiler per (reference machine by
    /// [`mcc_machine::machines::index_of`], algorithm, pressure tier),
    /// built on first use. Each binds its machine once and memoizes its
    /// own cache-key prefixes, so a request costs no machine build and no
    /// MDL render.
    compilers: Mutex<HashMap<(usize, Algorithm, u8), Arc<Compiler>>>,
    /// Memoized response constants per content address (see
    /// [`RespConsts`]): together with the cache's memory tier this lets
    /// the intake thread answer a warm key synchronously — no queue
    /// slot, no pool round trip — which is what a pipelined wire peer
    /// needs for a whole burst to resolve in one scheduling quantum.
    responses: Mutex<HashMap<u128, RespConsts>>,
    /// The per-tenant/class/tier metrics registry behind the `metrics` op.
    metrics: metrics::QosMetrics,
    /// The per-request trace journal (`--trace`), when configured.
    trace: Option<Mutex<trace::TraceWriter>>,
    /// The workers, popping the weighted-fair queue that is the server's
    /// one ready queue, and answering what they ran ([`resolve`]).
    pool: WorkerPool<CompileResult, WfqQueue<Job>>,
    started: Instant,
}

impl Inner {
    /// The memoized compiler for reference machine `machine` (an index
    /// from [`mcc_machine::machines::index_of`]) under `algo` at pressure
    /// `tier`.
    fn compiler(&self, machine: usize, algo: Algorithm, tier: u8) -> Arc<Compiler> {
        let mut memo = self.compilers.lock().unwrap();
        let c = memo.entry((machine, algo, tier)).or_insert_with(|| {
            let desc = mcc_machine::machines::by_index(machine)
                .expect("compiler requires an index from machines::index_of");
            let opts = CompilerOptions { algorithm: algo, ..CompilerOptions::default() };
            Arc::new(Compiler::with_options(desc, options_for_tier(opts, tier)))
        });
        Arc::clone(c)
    }
}

/// The daemon: construct with [`Server::start`], feed it frames with
/// [`Server::handle_line`] (or serve TCP via [`tcp::serve_lines`]), and
/// stop it with [`Server::drain`] + [`Server::shutdown`].
pub struct Server {
    inner: Arc<Inner>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

/// Applies a pressure tier to a request's compiler options: tier 1+
/// shrinks the exact-search budget, tier 3 forces sequential-only
/// compaction. (Tier 2's persistence skip is applied at the cache call,
/// not here.) Pure, so the ladder is unit-testable.
pub fn options_for_tier(mut opts: CompilerOptions, tier: u8) -> CompilerOptions {
    opts.bb_budget = mcc_compact::budget_for_pressure(opts.bb_budget, tier);
    if tier >= 3 {
        opts.algorithm = mcc_compact::Algorithm::Sequential;
    }
    opts
}

/// The persist policy for a pressure tier: tier 2+ keeps artifacts out
/// of the disk tier so fsyncs leave the critical path.
pub fn persist_for_tier(tier: u8) -> Persist {
    if tier >= 2 {
        Persist::Memory
    } else {
        Persist::Disk
    }
}

/// 64-bit FNV-1a over an artifact's canonical serialisation: the
/// conformance checksum clients use to prove cache invisibility (a warm
/// hit must equal a cold compile byte for byte).
fn artifact_checksum(art: &mcc_core::Artifact) -> u64 {
    mcc_harness::sealed::fnv1a(mcc_cache::serialize_artifact(art).as_bytes())
}

/// The server's scalar series: what `stats` answers and what `metrics`
/// renders as `mcc_serve_<name>` ahead of the labelled families.
const SERIES: &[Series<Inner>] = &[
    Series::gauge("queue_depth", "Admitted-but-unresolved compile requests.", |i| {
        i.inflight.load(Ordering::SeqCst) as u64
    }),
    Series::gauge("queue_bound", "Admitted-but-unresolved requests past which all shed.", |i| {
        i.cfg.queue_bound as u64
    }),
    Series::gauge("workers", "Worker threads compiling requests.", |i| i.cfg.workers as u64),
    Series::gauge("wfq_depth", "Admitted requests still queued in the weighted-fair queue.", |i| {
        i.pool.queue(|q| q.len()) as u64
    }),
    Series::gauge("draining", "1 while the server is draining.", |i| {
        u64::from(i.draining.load(Ordering::SeqCst))
    }),
    Series::gauge("uptime_ms", "Milliseconds since the server started.", |i| {
        i.started.elapsed().as_millis() as u64
    }),
    counter_field!(accepted, "Compile requests admitted."),
    counter_field!(completed, "Admitted requests answered 200."),
    counter_field!(compile_errors, "Admitted requests answered 400 with a compile error."),
    counter_field!(bad_requests, "Frames rejected 400 before admission."),
    counter_field!(rate_limited, "Requests rejected 429."),
    counter_field!(shed, "Requests shed 503 at the class bound."),
    counter_field!(quota_shed, "Requests shed 503 by their tenant's queued quota."),
    counter_field!(breaker_rejects, "Requests rejected 503 by an open breaker."),
    counter_field!(drain_rejects, "Requests rejected 503 while draining."),
    counter_field!(deadline_expired, "Admitted requests answered 504."),
    counter_field!(panics, "Contained pipeline panics."),
    counter_field!(idle_reaped, "Idle connections closed by the reaper."),
    counter_field!(replayed, "Duplicate requests answered from the idempotency window."),
    counter_field!(oversized_frames, "Inbound frames past the frame size limit."),
    counter_field!(corrupt_frames, "Frames that failed structural or checksum validation."),
    counter_field!(v2_connections, "Connections that negotiated binary protocol v2."),
    counter_field!(v2_frames, "Binary v2 frames decoded."),
    Series::counter("degraded_t1", "Requests admitted at pressure tier 1.", |i| {
        i.counters.degraded[0].load(Ordering::Relaxed)
    }),
    Series::counter("degraded_t2", "Requests admitted at pressure tier 2.", |i| {
        i.counters.degraded[1].load(Ordering::Relaxed)
    }),
    Series::counter("degraded_t3", "Requests admitted at pressure tier 3.", |i| {
        i.counters.degraded[2].load(Ordering::Relaxed)
    }),
    Series::counter("shed_interactive", "Interactive requests shed 503 at the class bound.", |i| {
        i.counters.shed_by_class[Class::Interactive.idx()].load(Ordering::Relaxed)
    }),
    Series::counter("shed_batch", "Batch requests shed 503 at the class bound.", |i| {
        i.counters.shed_by_class[Class::Batch.idx()].load(Ordering::Relaxed)
    }),
    Series::counter("shed_background", "Background requests shed 503 at the class bound.", |i| {
        i.counters.shed_by_class[Class::Background.idx()].load(Ordering::Relaxed)
    }),
    Series::counter("rate_buckets_evicted", "Per-client rate buckets evicted by the cap.", |i| {
        i.limiter.evicted()
    }),
    Series::counter("breaker_trips", "Times a per-machine breaker tripped open.", |i| {
        i.breakers.lock().unwrap().0.trips()
    }),
    Series::counter("cache_hits", "Compile cache hits.", |_| mcc_cache::global().counters().hits()),
    Series::counter("cache_misses", "Compile cache misses.", |_| {
        mcc_cache::global().counters().misses
    }),
];

impl Server {
    /// Starts the worker pool and the supervisor thread.
    pub fn start(cfg: ServeConfig) -> Server {
        let trace = cfg.trace_path.as_ref().and_then(|p| {
            match trace::TraceWriter::create(p) {
                Ok(w) => Some(Mutex::new(w)),
                Err(e) => {
                    // Tracing is observability: a bad path degrades it,
                    // never the daemon.
                    eprintln!("mcc serve: trace disabled ({}: {e})", p.display());
                    None
                }
            }
        });
        // The workers answer through a weak reference: the pool lives in
        // `Inner`, so a strong one would keep the server alive forever.
        let inner = Arc::new_cyclic(|weak: &std::sync::Weak<Inner>| Inner {
            pool: {
                let weak = weak.clone();
                WorkerPool::new(cfg.workers, WfqQueue::new(&cfg.tenant_weights), move |t, o| {
                    if let Some(inner) = weak.upgrade() {
                        resolve(&inner, t, o);
                    }
                    // Let the caller just woken run before the next job:
                    // a worker that went straight on could keep the CPU
                    // while that caller waits behind it, and a tenant whose
                    // next request arrives late loses its fair-queue place.
                    std::thread::yield_now();
                })
            },
            breakers: Mutex::new((BreakerBank::new(BreakerConfig::default()), 0)),
            limiter: RateLimiter::new(cfg.rate_per_client),
            dedup: DedupWindow::new(DEDUP_WINDOW),
            metrics: metrics::QosMetrics::default(),
            trace,
            cfg,
            counters: ServeCounters::default(),
            inflight: AtomicUsize::new(0),
            next_token: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            pending: Mutex::new(HashMap::new()),
            compilers: Mutex::new(HashMap::new()),
            responses: Mutex::new(HashMap::new()),
            started: Instant::now(),
        });
        let sup_inner = Arc::clone(&inner);
        let supervisor = std::thread::spawn(move || supervise(sup_inner));
        Server {
            inner,
            supervisor: Some(supervisor),
        }
    }

    /// Handles one frame from `client` and blocks until its single
    /// response is ready. `ping`/`stats` and every rejection resolve
    /// immediately; admitted compiles resolve when a worker (or the
    /// deadline) does. A `drain` frame begins the drain and answers
    /// `200` at once; a panic in the request path answers `500`.
    pub fn handle_line(&self, line: &str, client: &str) -> Response {
        match self.contained(line, client, None) {
            Submitted::Done(r) => r,
            Submitted::Pending(rx) => collect(rx, self.answer_wait()),
        }
    }

    /// Two-phase intake for one wire frame, answered in response lines:
    /// admission without blocking, behind panic containment, plus exactly-once
    /// semantics for a frame that arrived with an identity. Such a frame
    /// claims its key in the idempotency window at admission. A finished
    /// key replays its recorded response at once; a key still executing
    /// waits for the original's response; a fresh key is admitted like a
    /// bare frame and resolves with the response its client receives.
    pub fn submit_frame(
        &self,
        line: &str,
        ident: Option<Ident>,
        client: &str,
    ) -> WireSubmission<'static> {
        let wait = self.answer_wait();
        let mut fresh = None;
        if let Some(ident) = ident {
            let c = self.counters();
            match self.inner.dedup.claim(&ident) {
                Claim::Fresh => fresh = Some(ident),
                Claim::Replay(resp) => {
                    c.bump(&c.replayed);
                    return WireSubmission::Done(resp);
                }
                Claim::Wait(rx) => {
                    c.bump(&c.replayed);
                    return WireSubmission::Pending(Box::new(move || {
                        rx.recv_timeout(wait).unwrap_or_else(|e| lost(e).to_line())
                    }));
                }
            }
        }
        // A fresh identity's client id is the logical client: rate
        // limiting follows it across reconnects, not the ephemeral
        // socket address. An admitted request resolves its key when its
        // worker or the deadline scan answers it.
        let client = fresh.as_ref().map_or(client, |i| i.cid.as_str());
        match self.contained(line, client, fresh.as_ref()) {
            Submitted::Done(r) => {
                let resp = r.to_line();
                if let Some(ident) = &fresh {
                    self.inner.dedup.resolve(ident, r.code, &resp);
                }
                WireSubmission::Done(resp)
            }
            Submitted::Pending(rx) => {
                WireSubmission::Pending(Box::new(move || collect(rx, wait).to_line()))
            }
        }
    }

    /// [`Server::intake`] with panic containment: a panic anywhere in
    /// the request path becomes a structured `500`, never a dead
    /// connection.
    fn contained(&self, line: &str, client: &str, ident: Option<&Ident>) -> Submitted {
        catch_unwind(AssertUnwindSafe(|| self.intake(line, client, ident))).unwrap_or_else(|p| {
            let reason = mcc_harness::pool::panic_text(p.as_ref());
            let msg = format!("panic contained in request loop: {reason}");
            Submitted::Done(Response::error(&proto::frame_id(line), 500, &msg))
        })
    }

    /// How long a collector waits for an admitted request's answer. The
    /// deadline scan answers every request no worker has answered by its
    /// deadline, so this only bounds a regression.
    fn answer_wait(&self) -> Duration {
        self.inner.cfg.deadline + Duration::from_secs(5)
    }

    /// Non-blocking intake: parses and either resolves the frame
    /// immediately or admits it and hands back the response channel. A
    /// frame whose `ident` has claimed a fresh key carries it in its
    /// pending entry, so whoever answers the compile resolves the key.
    fn intake(&self, line: &str, client: &str, ident: Option<&Ident>) -> Submitted {
        let req = match proto::parse_request(line) {
            Ok(r) => r,
            Err(reason) => {
                self.inner.counters.bump(&self.inner.counters.bad_requests);
                return Submitted::Done(Response::error(&proto::frame_id(line), 400, &reason));
            }
        };
        match req {
            Request::Ping => {
                // The pong doubles as the router's health probe, so it
                // carries what a probe needs: queue pressure (a saturated
                // backend is a hedging candidate) and the drain flag (a
                // draining backend must leave the ring).
                let draining = self.inner.draining.load(Ordering::SeqCst);
                let mut r = Response::new(&proto::frame_id(line), 200);
                r.push_str("pong", "mcc-serve");
                r.push_num("uptime_ms", self.inner.started.elapsed().as_millis() as u64);
                r.push_num("queue_depth", self.queue_depth() as u64);
                r.push_str("draining", if draining { "true" } else { "false" });
                // Child-facing readiness for the fleet supervisor: a pong
                // means the shard is accepting, `ready` folds in the drain
                // flag, and the pid lets the supervisor confirm it is
                // talking to the child it actually spawned.
                r.push_str("ready", if draining { "false" } else { "true" });
                r.push_num("pid", u64::from(std::process::id()));
                Submitted::Done(r)
            }
            Request::Stats => {
                Submitted::Done(metrics::stats(&proto::frame_id(line), SERIES, &self.inner))
            }
            Request::Metrics => {
                Submitted::Done(metrics::response(&proto::frame_id(line), &self.metrics_text()))
            }
            Request::Drain => {
                self.begin_drain();
                let mut r = Response::new(&proto::frame_id(line), 200);
                r.push_str("draining", "true");
                Submitted::Done(r)
            }
            // Ring membership is a router concern: a shard answering
            // `join`/`leave` itself would fork the membership view.
            Request::Join(j) => Submitted::Done(Response::error(
                &j.id,
                400,
                "join is a router admin op, not a shard op",
            )),
            Request::Leave { .. } => Submitted::Done(Response::error(
                &proto::frame_id(line),
                400,
                "leave is a router admin op, not a shard op",
            )),
            Request::Compile(c) => self.submit_compile(c, client, ident),
        }
    }

    /// Admits (or rejects) one compile request.
    fn submit_compile(&self, req: CompileReq, client: &str, ident: Option<&Ident>) -> Submitted {
        let inner = &*self.inner;
        let counters = &inner.counters;
        let arrived = Instant::now();
        // QoS identity: the tenant defaults to the transport client id
        // so bare peers keep working, the class to interactive so the
        // pre-QoS shed thresholds apply unchanged.
        let tenant = req.tenant.clone().unwrap_or_else(|| client.to_string());
        let class = match Class::parse(req.class.as_deref()) {
            Ok(c) => c,
            Err(reason) => {
                counters.bump(&counters.bad_requests);
                observe(inner, client, &tenant, Class::Interactive, &req.id, 400, 0, 0);
                return Submitted::Done(Response::error(&req.id, 400, &reason));
            }
        };
        // Every early resolution flows through here so the metrics and
        // trace layers see rejections, not just admissions.
        let reject = |code: u16, reason: &str| {
            observe(inner, client, &tenant, class, &req.id, code, 0, us_since(arrived));
            Submitted::Done(Response::error(&req.id, code, reason))
        };
        if inner.draining.load(Ordering::SeqCst) {
            counters.bump(&counters.drain_rejects);
            return reject(503, "draining");
        }
        if !inner.limiter.admit(client) {
            counters.bump(&counters.rate_limited);
            return reject(429, "rate limited");
        }

        // Validate names before spending a pool slot.
        let Some(machine) = mcc_machine::machines::index_of(&req.machine) else {
            counters.bump(&counters.bad_requests);
            return reject(400, &format!("unknown machine `{}`", req.machine));
        };
        let Some(lang) = SourceLang::from_name(&req.lang) else {
            counters.bump(&counters.bad_requests);
            return reject(400, &format!("unknown language `{}`", req.lang));
        };
        let algo = match req.algo.as_deref() {
            None => CompilerOptions::default().algorithm,
            Some(name) => match mcc_compact::Algorithm::from_name(name) {
                Some(a) => a,
                None => {
                    counters.bump(&counters.bad_requests);
                    return reject(400, &format!("unknown algorithm `{name}`"));
                }
            },
        };

        // Per-machine breaker: a key that keeps panicking or timing out
        // is rejected fast until its cool-down elapses.
        {
            let mut b = inner.breakers.lock().unwrap();
            let now = b.1;
            if b.0.admit(&req.machine, now) == mcc_harness::Admit::Reject {
                counters.bump(&counters.breaker_rejects);
                return reject(503, &format!("breaker open for machine `{}`", req.machine));
            }
        }

        // Synchronous fast path: a key whose artifact is warm in the
        // memory tier — and whose response constants a prior resolution
        // memoized — is answered from the intake thread, consuming no
        // queue slot and no pool round trip. Every gate above (drain,
        // rate limit, validation, breaker) has already been applied;
        // the breaker clock and the counters tick exactly as a pooled
        // resolution would. A full queue still sheds everything.
        if let Some(tier) = tier_for_class(
            inner.inflight.load(Ordering::SeqCst),
            inner.cfg.queue_bound,
            class,
        ) {
            let key = mcc_cache::key_for(&inner.compiler(machine, algo, tier), lang, &req.src);
            let consts = inner.responses.lock().unwrap().get(&key.0).cloned();
            if let Some(rc) = consts {
                if mcc_cache::memory_hit_keyed(key) {
                    counters.bump(&counters.accepted);
                    if tier > 0 {
                        counters.bump(&counters.degraded[usize::from(tier) - 1]);
                    }
                    counters.bump(&counters.completed);
                    breaker_result(inner, &req.machine, true);
                    observe(inner, client, &tenant, class, &req.id, 200, tier, us_since(arrived));
                    let mut r = Response::new(&req.id, 200);
                    r.push_num("instrs", rc.instrs as u64);
                    r.push_num("ops", rc.ops as u64);
                    r.push_num("spills", rc.spills as u64);
                    r.push_str("algorithm", &rc.algorithm);
                    r.push_str("cached", "memory");
                    r.push_str("checksum", &format!("{:016x}", rc.checksum));
                    r.push_num("tier", u64::from(tier));
                    return Submitted::Done(r);
                }
            }
        }

        // Per-tenant quota: one tenant may not own the whole backlog,
        // no matter how far under the global bound it is.
        if inner.cfg.tenant_quota > 0
            && inner.pool.queue(|q| q.queued_of(&tenant)) >= inner.cfg.tenant_quota
        {
            counters.bump(&counters.quota_shed);
            return reject(503, "tenant quota exceeded");
        }

        // The bounded queue: reserve a slot or shed. compare_exchange so
        // concurrent submitters can never overshoot the bound. The
        // effective bound is class-scaled: background sheds first,
        // interactive last.
        let tier = loop {
            let depth = inner.inflight.load(Ordering::SeqCst);
            let Some(tier) = tier_for_class(depth, inner.cfg.queue_bound, class) else {
                counters.bump(&counters.shed);
                counters.bump(&counters.shed_by_class[class.idx()]);
                return reject(503, "queue full: shed");
            };
            if inner
                .inflight
                .compare_exchange(depth, depth + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break tier;
            }
        };
        counters.bump(&counters.accepted);
        if tier > 0 {
            counters.bump(&counters.degraded[usize::from(tier) - 1]);
        }

        let persist = persist_for_tier(tier);
        let deadline = inner
            .cfg
            .deadline
            .min(Duration::from_millis(req.deadline_ms.unwrap_or(u64::MAX)));

        let (tx, rx) = mpsc::channel();
        let token = inner.next_token.fetch_add(1, Ordering::Relaxed);
        inner.pending.lock().unwrap().insert(
            token,
            Pending {
                id: req.id.clone(),
                machine: req.machine.clone(),
                tier,
                deadline: Instant::now() + deadline,
                responder: tx,
                client: client.to_string(),
                tenant: tenant.clone(),
                class,
                enqueued: arrived,
                ident: ident.cloned(),
            },
        );
        let compiler = inner.compiler(machine, algo, tier);
        let src = req.src;
        let job: Job = Box::new(move || {
            match mcc_cache::compile_cached(&compiler, lang, &src, persist) {
                Ok(art) => Ok(CompileOk {
                    instrs: art.stats.micro_instrs,
                    ops: art.stats.micro_ops,
                    spills: art.stats.spills,
                    algorithm: art.stats.algorithm_used.clone(),
                    cached: art.stats.cached,
                    checksum: artifact_checksum(&art),
                    key: mcc_cache::key_for(&compiler, lang, &src).0,
                }),
                Err(e) => Err(e.to_string()),
            }
        });
        // Into the weighted-fair queue, after the pending entry: a free
        // worker pops the smallest virtual finish, so a flooding tenant
        // waits its turn.
        inner.pool.submit(|q| q.push(&tenant, class, token, job));
        Submitted::Pending(rx)
    }

    /// The raw Prometheus text exposition for this server: the registry
    /// (`SERIES`), then the per-tenant/class families and the open
    /// per-machine breakers.
    pub fn metrics_text(&self) -> String {
        let inner = &*self.inner;
        let mut out = String::new();
        metrics::render(&mut out, "mcc_serve", SERIES, &[(String::new(), inner)]);
        inner.metrics.render(&mut out);
        let name = "mcc_serve_breaker_open";
        metrics::header(&mut out, name, "gauge", "Machines whose breaker is not closed.");
        for machine in inner.breakers.lock().unwrap().0.degraded_keys() {
            out.push_str(&format!(
                "{name}{{machine=\"{}\"}} 1\n",
                metrics::sanitize_label(&machine)
            ));
        }
        out
    }

    /// Current counters (for the in-process bench and tests).
    pub fn counters(&self) -> &ServeCounters {
        &self.inner.counters
    }

    /// Current queue depth.
    pub fn queue_depth(&self) -> usize {
        self.inner.inflight.load(Ordering::SeqCst)
    }

    /// The configured idle-connection timeout (`None` = never reap).
    pub fn config_idle_timeout(&self) -> Option<Duration> {
        self.inner.cfg.idle_timeout
    }

    /// Flips the drain flag: no new compiles are admitted from here on.
    pub fn begin_drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Graceful drain: stop admitting, wait for the in-flight requests
    /// to finish or deadline out, flush the cache stats journal. Returns
    /// the number of requests that were still in flight when the drain
    /// began.
    pub fn drain(&self) -> usize {
        self.begin_drain();
        let at_start = self.queue_depth();
        // Everything pending carries a deadline, and the deadline scan
        // answers overdue requests — so this loop terminates.
        while self.queue_depth() > 0 {
            std::thread::sleep(SUPERVISOR_TICK);
        }
        mcc_cache::flush_global_stats();
        at_start
    }

    /// Stops the supervisor and the pool. Implies [`Server::drain`].
    pub fn shutdown(mut self) {
        self.drain();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_drain();
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

/// Waits up to `wait` for an admitted request's answer, which the worker
/// that ran it or the deadline scan sends.
fn collect(rx: mpsc::Receiver<Response>, wait: Duration) -> Response {
    rx.recv_timeout(wait).unwrap_or_else(lost)
}

/// The answer to a request whose response never came: unreachable
/// while its removal from the pending map stays the one send per
/// request, and a structured `500` rather than a hung or panicked
/// connection if that ever regresses.
fn lost(e: mpsc::RecvTimeoutError) -> Response {
    Response::error("", 500, &format!("response lost: {e}"))
}

/// The result of [`Server::intake`].
enum Submitted {
    /// Resolved immediately (controls, rejections, and errors).
    Done(Response),
    /// Admitted: the single response arrives on this channel.
    Pending(mpsc::Receiver<Response>),
}

/// Answers one compile on the worker that ran it: counters, breaker and
/// response memo, then the response ([`Pending::answer`]).
/// A request the deadline scan already answered is no longer pending,
/// and its late outcome is dropped; one whose deadline passed while it
/// ran is answered `504`, as the scan would have answered it.
fn resolve(inner: &Inner, token: u64, outcome: TaskOutcome<CompileResult>) {
    let Some(p) = inner.pending.lock().unwrap().remove(&token) else {
        return;
    };
    if Instant::now() >= p.deadline {
        return expire(inner, p);
    }
    let counters = &inner.counters;
    let response = match outcome {
        TaskOutcome::Done(Ok(ok)) => {
            counters.bump(&counters.completed);
            breaker_result(inner, &p.machine, true);
            inner.responses.lock().unwrap().insert(
                ok.key,
                RespConsts {
                    instrs: ok.instrs,
                    ops: ok.ops,
                    spills: ok.spills,
                    algorithm: ok.algorithm.clone(),
                    checksum: ok.checksum,
                },
            );
            let mut r = Response::new(&p.id, 200);
            r.push_num("instrs", ok.instrs as u64);
            r.push_num("ops", ok.ops as u64);
            r.push_num("spills", ok.spills as u64);
            r.push_str("algorithm", &ok.algorithm);
            r.push_str("cached", ok.cached.unwrap_or("cold"));
            r.push_str("checksum", &format!("{:016x}", ok.checksum));
            r.push_num("tier", u64::from(p.tier));
            r
        }
        TaskOutcome::Done(Err(msg)) => {
            // A compile error is the *pipeline working*: it neither
            // trips the breaker nor counts as service degradation.
            counters.bump(&counters.compile_errors);
            breaker_result(inner, &p.machine, true);
            Response::error(&p.id, 400, &msg)
        }
        TaskOutcome::Panicked(text) => {
            counters.bump(&counters.panics);
            breaker_result(inner, &p.machine, false);
            Response::error(&p.id, 500, &format!("panic contained: {text}"))
        }
    };
    p.answer(inner, response);
}

/// Answers an overdue request `504`.
fn expire(inner: &Inner, p: Pending) {
    inner.counters.bump(&inner.counters.deadline_expired);
    breaker_result(inner, &p.machine, false);
    let r = Response::error(&p.id, 504, "deadline expired");
    p.answer(inner, r);
}

/// The supervisor loop: every tick, answers overdue requests `504`, and
/// exits once draining and empty. It never sees a compile outcome.
fn supervise(inner: Arc<Inner>) {
    loop {
        std::thread::sleep(SUPERVISOR_TICK);
        // Deadline scan. A still-queued job is simply unqueued; one a
        // worker is running is condemned in the pool, where the
        // replacement worker keeps the pool at capacity. A job whose
        // worker already finished finds its request gone.
        let now = Instant::now();
        let overdue: Vec<u64> = inner
            .pending
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, p)| now >= p.deadline)
            .map(|(t, _)| *t)
            .collect();
        for token in overdue {
            let Some(p) = inner.pending.lock().unwrap().remove(&token) else {
                continue;
            };
            if inner.pool.queue(|q| q.remove(token)).is_none() {
                inner.pool.condemn(token);
            }
            expire(&inner, p);
        }

        if inner.draining.load(Ordering::SeqCst) && inner.inflight.load(Ordering::SeqCst) == 0 {
            break;
        }
    }
    inner.pool.shutdown();
}

/// Microseconds since `start`, saturating into the histogram domain.
fn us_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Records one resolved request in the metrics registry and (when
/// configured) the trace journal.
#[allow(clippy::too_many_arguments)]
fn observe(
    inner: &Inner,
    client: &str,
    tenant: &str,
    class: Class,
    id: &str,
    code: u16,
    tier: u8,
    us: u64,
) {
    inner.metrics.record(tenant, class, code, tier, us);
    if let Some(tw) = &inner.trace {
        tw.lock().unwrap().record(&trace::TraceRecord {
            seq: 0, // stamped by the writer
            client: client.to_string(),
            tenant: tenant.to_string(),
            class,
            id: id.to_string(),
            code,
            tier,
            us,
        });
    }
}

/// Advances breaker logical time and records one request's outcome.
fn breaker_result(inner: &Inner, machine: &str, success: bool) {
    let mut b = inner.breakers.lock().unwrap();
    b.1 += 1;
    let now = b.1;
    if success {
        b.0.on_success(machine);
    } else {
        b.0.on_failure(machine, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_bound: 4,
            deadline: Duration::from_millis(5_000),
            ..ServeConfig::default()
        }
    }

    const SRC: &str = "reg a = R0\nconst a, 7\nadd a, a, 1\nexit a\n";

    #[test]
    fn compile_request_answers_200_with_stats() {
        let s = Server::start(tiny());
        let line = proto::compile_line("r1", "hm1", "yalll", SRC);
        let r = s.handle_line(&line, "t");
        assert_eq!(r.code, 200, "got: {}", r.to_line());
        let rendered = r.to_line();
        assert!(Response::field_num(&rendered, "instrs").unwrap() > 0);
        assert_eq!(Response::field_str(&rendered, "id").as_deref(), Some("r1"));
        assert!(Response::field_str(&rendered, "checksum").is_some());
        s.shutdown();
    }

    #[test]
    fn warm_hit_has_identical_checksum() {
        let s = Server::start(tiny());
        let line = proto::compile_line("a", "vm1", "yalll", SRC);
        let cold = s.handle_line(&line, "t").to_line();
        let warm = s.handle_line(&line, "t").to_line();
        assert_eq!(
            Response::field_str(&cold, "checksum"),
            Response::field_str(&warm, "checksum"),
            "cache hits must be byte-identical to cold compiles"
        );
        s.shutdown();
    }

    #[test]
    fn bad_frames_get_structured_400s() {
        let s = Server::start(tiny());
        for bad in ["garbage", "{\"op\":\"warp\"}", "{\"op\":\"compile\",\"id\":\"x\"}"] {
            let r = s.handle_line(bad, "t");
            assert_eq!(r.code, 400, "frame {bad:?}");
        }
        let r = s.handle_line(
            &proto::compile_line("x", "not-a-machine", "yalll", SRC),
            "t",
        );
        assert_eq!(r.code, 400);
        let r = s.handle_line(&proto::compile_line("x", "hm1", "klingon", SRC), "t");
        assert_eq!(r.code, 400);
        assert!(s.counters().bad_requests.load(Ordering::Relaxed) >= 5);
        s.shutdown();
    }

    #[test]
    fn compile_errors_are_400_not_500() {
        let s = Server::start(tiny());
        let r = s.handle_line(&proto::compile_line("e", "hm1", "yalll", "reg a = NOPE\n"), "t");
        assert_eq!(r.code, 400);
        assert!(r.to_line().contains("error"));
        s.shutdown();
    }

    #[test]
    fn ping_and_stats_respond_immediately() {
        let s = Server::start(tiny());
        let r = s.handle_line("{\"op\":\"ping\"}", "t");
        assert_eq!(r.code, 200);
        assert!(r.to_line().contains("pong"));
        let line = s.handle_line("{\"op\":\"stats\"}", "t").to_line();
        assert_eq!(Response::field_num(&line, "queue_bound"), Some(4));
        assert_eq!(Response::field_num(&line, "shed"), Some(0));
        s.shutdown();
    }

    #[test]
    fn draining_rejects_new_compiles_with_503() {
        let s = Server::start(tiny());
        s.begin_drain();
        let r = s.handle_line(&proto::compile_line("d", "hm1", "yalll", SRC), "t");
        assert_eq!(r.code, 503);
        assert!(r.to_line().contains("draining"));
        s.shutdown();
    }

    #[test]
    fn rate_limiter_answers_429() {
        let mut cfg = tiny();
        cfg.rate_per_client = Some(0);
        let s = Server::start(cfg);
        let r = s.handle_line(&proto::compile_line("r", "hm1", "yalll", SRC), "greedy");
        assert_eq!(r.code, 429);
        assert_eq!(s.counters().rate_limited.load(Ordering::Relaxed), 1);
        s.shutdown();
    }

    #[test]
    fn deadline_expiry_answers_504_and_server_survives() {
        let mut cfg = tiny();
        cfg.workers = 1;
        cfg.queue_bound = 64;
        let s = Server::start(cfg);
        // Occupy the single worker with a queue of distinct exact-search
        // compiles (unique sources defeat the process-global cache),
        // then submit a victim whose deadline is already past. The
        // victim waits in the fair queue behind the fillers, and the
        // supervisor's deadline scan runs every tick, so the scan
        // unqueues and answers it before the worker can reach it: the
        // filler queue is tens of milliseconds deep against a 2 ms tick
        // and a sub-millisecond submission gap.
        let mut fillers = Vec::new();
        for f in 0..8 {
            let mut filler_src = format!("; filler {f} pid {}\n", std::process::id());
            for r in 0..8 {
                filler_src.push_str(&format!("reg x{r} = R{r}\nconst x{r}, {r}\n"));
            }
            for i in 0..10 {
                for r in 0..8 {
                    filler_src.push_str(&format!("add x{r}, x{r}, {}\n", i + 1));
                }
            }
            filler_src.push_str("exit x0\n");
            let filler_line = format!(
                "{{\"op\":\"compile\",\"id\":\"filler{f}\",\"machine\":\"hm1\",\"lang\":\"yalll\",\"algo\":\"optimal\",\"src\":\"{}\"}}",
                mcc_harness::json::esc(&filler_src)
            );
            match s.intake(&filler_line, "t", None) {
                Submitted::Pending(rx) => fillers.push(rx),
                Submitted::Done(r) => panic!("filler rejected: {}", r.to_line()),
            }
        }
        let victim_line = format!(
            "{{\"op\":\"compile\",\"id\":\"victim\",\"machine\":\"hm1\",\"lang\":\"yalll\",\"deadline_ms\":0,\"src\":\"{}\"}}",
            mcc_harness::json::esc(SRC)
        );
        let r = s.handle_line(&victim_line, "t");
        assert_eq!(r.code, 504, "got: {}", r.to_line());
        for filler in fillers {
            let f = filler.recv_timeout(Duration::from_secs(60)).expect("filler answered");
            assert_eq!(f.code, 200, "filler got: {}", f.to_line());
        }
        // The daemon still serves after a condemnation.
        let r = s.handle_line(&proto::compile_line("after", "hm1", "yalll", SRC), "t");
        assert_eq!(r.code, 200, "got: {}", r.to_line());
        assert_eq!(s.counters().deadline_expired.load(Ordering::Relaxed), 1);
        s.shutdown();
    }

    #[test]
    fn tier_options_ladder_applies() {
        let base = CompilerOptions::default();
        let t0 = options_for_tier(base.clone(), 0);
        assert_eq!(t0.bb_budget, base.bb_budget);
        let t1 = options_for_tier(base.clone(), 1);
        assert!(t1.bb_budget < base.bb_budget);
        let t3 = options_for_tier(base.clone(), 3);
        assert_eq!(t3.algorithm, mcc_compact::Algorithm::Sequential);
        assert_eq!(persist_for_tier(0), Persist::Disk);
        assert_eq!(persist_for_tier(2), Persist::Memory);
        assert_eq!(persist_for_tier(3), Persist::Memory);
    }

    #[test]
    fn overload_sheds_with_503_and_every_request_answers() {
        // 1-worker, bound-2 server: a burst of slow-ish requests must
        // shed deterministically past the bound, and every submission
        // still resolves to exactly one response.
        let s = Server::start(ServeConfig {
            workers: 1,
            queue_bound: 2,
            deadline: Duration::from_millis(5_000),
            ..ServeConfig::default()
        });
        let mut pendings = Vec::new();
        let mut immediate = Vec::new();
        for i in 0..8 {
            // Distinct sources defeat the cache so each compile costs
            // real work and the queue actually fills.
            let src = format!("reg a = R0\nconst a, {i}\nadd a, a, 1\nexit a\n");
            match s.intake(&proto::compile_line(&format!("b{i}"), "hm1", "yalll", &src), "t", None) {
                Submitted::Done(r) => immediate.push(r),
                Submitted::Pending(rx) => pendings.push(rx),
            }
        }
        assert!(
            immediate.iter().all(|r| r.code == 503),
            "immediate resolutions in a burst are sheds"
        );
        assert!(
            !immediate.is_empty(),
            "a burst of 8 against bound 2 must shed"
        );
        let mut answered = 0;
        for rx in pendings {
            let r = rx.recv_timeout(Duration::from_secs(30)).expect("response");
            assert_eq!(r.code, 200);
            answered += 1;
        }
        assert_eq!(
            answered + immediate.len(),
            8,
            "exactly one response per request"
        );
        assert!(s.counters().shed.load(Ordering::Relaxed) > 0);
        s.shutdown();
    }

    /// A trace journal path of this process's own.
    fn trace_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("mcc-serve-{name}-{}.jsonl", std::process::id()))
    }

    /// Admits `line` through the intake, failing the test on a rejection.
    fn admit(s: &Server, line: &str) -> mpsc::Receiver<Response> {
        match s.intake(line, "t", None) {
            Submitted::Pending(rx) => rx,
            Submitted::Done(r) => panic!("not admitted: {}", r.to_line()),
        }
    }

    #[test]
    fn completions_racing_deadlines_answer_each_request_once() {
        let trace = trace_path("race");
        let s = Server::start(ServeConfig {
            workers: 2,
            queue_bound: 64,
            trace_path: Some(trace.clone()),
            ..tiny()
        });
        // Distinct sources (the pid keeps them cold across runs). Every
        // other request is due at once, so the deadline scan races the
        // workers for it; the rest carry the default deadline. Three
        // machines take four expiries each, one short of tripping a
        // machine's breaker.
        let n = 24u64;
        let mut ids = Vec::new();
        let mut receivers = Vec::new();
        for i in 0..n {
            let id = format!("race{i}");
            let machine = ["hm1", "vm1", "wm64"][(i as usize / 2) % 3];
            let src = format!("; race {i} pid {}\n{SRC}", std::process::id());
            let mut line = proto::compile_line(&id, machine, "yalll", &src);
            if i % 2 == 0 {
                line = line.replacen("\"src\"", "\"deadline_ms\":0,\"src\"", 1);
            }
            receivers.push(admit(&s, &line));
            ids.push(id);
        }
        for (id, rx) in ids.iter().zip(receivers) {
            let r = rx.recv_timeout(Duration::from_secs(60)).expect("one response");
            assert!(matches!(r.code, 200 | 504), "{id} got: {}", r.to_line());
            assert!(
                matches!(
                    rx.recv_timeout(Duration::from_secs(5)),
                    Err(mpsc::RecvTimeoutError::Disconnected)
                ),
                "{id}: a second response, or a responder left open"
            );
        }
        let c = s.counters();
        let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
        assert_eq!(get(&c.accepted), n);
        assert_eq!(
            get(&c.accepted),
            get(&c.completed) + get(&c.compile_errors) + get(&c.panics) + get(&c.deadline_expired)
        );
        assert_eq!(s.queue_depth(), 0);
        let (records, torn) = trace::replay(&trace).unwrap();
        assert!(!torn);
        let mut traced: Vec<String> = records.into_iter().map(|r| r.id).collect();
        traced.sort();
        ids.sort();
        assert_eq!(traced, ids, "one trace record per request");
        s.shutdown();
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn one_worker_serves_a_weighted_backlog_in_wfq_order() {
        let trace = trace_path("order");
        let weights = vec![("heavy".to_string(), 3), ("mid".to_string(), 2)];
        let s = Server::start(ServeConfig {
            workers: 1,
            queue_bound: 64,
            deadline: Duration::from_secs(120),
            tenant_weights: weights.clone(),
            trace_path: Some(trace.clone()),
            ..ServeConfig::default()
        });
        let pid = std::process::id();
        let line = |id: &str, tenant: &str, class: Class, src: &str| {
            proto::compile_line_qos(id, "hm1", "yalll", src, Some(tenant), Some(class.name()))
        };
        let wfq_depth = || {
            let stats = s.handle_line("{\"op\":\"stats\"}", "t").to_line();
            Response::field_num(&stats, "wfq_depth").expect("wfq_depth in stats")
        };
        let mut expected: WfqQueue<String> = WfqQueue::new(&weights);

        // The gate: a straight line long enough to hold the one worker
        // (~0.3 s in debug) while the backlog is admitted behind it.
        let mut gate = format!("; gate pid {pid}\nreg a = R0\nreg b = R1\nconst a, 1\nconst b, 5\n");
        for i in 0..16_000 {
            gate.push_str(if i % 2 == 0 { "add a, a, b\n" } else { "add b, b, a\n" });
        }
        gate.push_str("exit a\n");
        let gate_rx = admit(&s, &line("gate", "gate", Class::Interactive, &gate));
        expected.push("gate", Class::Interactive, 0, "gate".to_string());
        assert_eq!(expected.pop().map(|(_, id)| id).as_deref(), Some("gate"));
        let start = Instant::now();
        while wfq_depth() > 0 {
            assert!(start.elapsed() < Duration::from_secs(30), "the gate never left the queue");
            std::thread::sleep(Duration::from_millis(1));
        }

        // A backlog of weighted tenants in mixed classes, all queued
        // behind the gate, then served one at a time.
        let tenants = ["heavy", "mid", "light"];
        let mut backlog = Vec::new();
        for i in 0..24u64 {
            let tenant = tenants[i as usize % 3];
            let class = Class::ALL[(i as usize / 3) % 3];
            let id = format!("{tenant}{i}");
            let src = format!("; order {i} pid {pid}\n{SRC}");
            backlog.push(admit(&s, &line(&id, tenant, class, &src)));
            expected.push(tenant, class, i + 1, id);
        }
        assert!(
            matches!(gate_rx.try_recv(), Err(mpsc::TryRecvError::Empty)) && wfq_depth() == 24,
            "the gate finished before the backlog was queued; lengthen it"
        );
        assert_eq!(gate_rx.recv_timeout(Duration::from_secs(120)).unwrap().code, 200);
        for rx in backlog {
            assert_eq!(rx.recv_timeout(Duration::from_secs(60)).unwrap().code, 200);
        }

        let (records, torn) = trace::replay(&trace).unwrap();
        assert!(!torn);
        let served: Vec<String> = records.into_iter().map(|r| r.id).collect();
        let mut order = vec!["gate".to_string()];
        order.extend(std::iter::from_fn(|| expected.pop().map(|(_, id)| id)));
        assert_eq!(served, order, "service order is the WFQ's pop order");
        s.shutdown();
        let _ = std::fs::remove_file(&trace);
    }
}
