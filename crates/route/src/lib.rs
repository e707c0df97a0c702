//! `mcc-route`: a shard router in front of a fleet of `mcc serve`
//! backends, speaking the same newline-delimited protocol on both
//! sides.
//!
//! Placement is a consistent-hash ring ([`Ring`]) over the compile
//! request's content-addressed cache key — the same 128-bit key
//! `mcc-cache` uses — so a given source always lands on the same shard
//! and the fleet's caches partition instead of duplicating. Everything
//! else is about what happens when a shard misbehaves:
//!
//! * **Health probes.** A probe thread pings every backend on a fixed
//!   interval; the pong carries the shard's `draining` flag, so a
//!   draining backend counts as unhealthy and traffic moves off it
//!   before it stops answering. Probe round-trip latency is recorded
//!   per backend and surfaced by `metrics`.
//! * **Per-backend circuit breakers.** Probe and request outcomes feed
//!   one [`Breaker`] per shard (closed → open → half-open, logical
//!   ticks). An open backend is skipped at dispatch; a half-open one
//!   admits a single probe.
//! * **Deterministic failover.** A transport failure fails over to the
//!   next live ring successor — the same order every time, because the
//!   ring is a pure function of names and the key.
//! * **Request hedging.** If the primary has not answered within
//!   `hedge_after` of its dispatch, the same idempotent compile is fired
//!   at the ring successor; the first response wins and the loser's
//!   outcome is discarded (its send lands on a dropped channel). Both
//!   halves are accounted: `hedge_wins` and `hedge_losses`.
//! * **Pipelined dispatch.** Compiles are *submitted* to their backend,
//!   never given a thread each. Over TCP they queue on one shared v2
//!   connection per shard, and the wire loop's two-phase intake
//!   ([`LineHandler::submit_wire`]) admits a client's whole read burst
//!   before collecting any answer, so each burst reaches each shard as
//!   one write.
//! * **Hot-key replication.** A count-min sketch spots keys hot enough
//!   to swamp one shard; their traffic rotates between the primary and
//!   its first successor, warming both caches.
//! * **Live membership.** The ring is *mutable at runtime*: `join`
//!   re-adds (or re-points) a backend and `leave` removes one, with the
//!   consistent-hash guarantee that only ~1/N of keys move either way.
//!   Membership lives behind one `RwLock` shared with the probe thread
//!   — probes and routing read it, `join`/`leave` write it — so the
//!   fleet supervisor can heal a restarted shard back into the ring
//!   while requests are in flight.
//! * **Graceful drain.** Draining the router stops admission, waits out
//!   in-flight requests, stops the probes, then propagates the drain to
//!   every backend — strictly in that order, so no request is in flight
//!   anywhere when the fleet goes down.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcc_harness::{Admit, Breaker, BreakerConfig};
use mcc_serve::counter_field;
use mcc_serve::metrics::{self, merge_with_label, sanitize_label, Series};
use mcc_serve::proto::{frame_id, parse_request, CompileReq, Ident, JoinReq, Request, Response};
use mcc_serve::tcp::{LineHandler, WireSubmission};

pub mod backend;
pub mod ring;
pub mod sketch;

pub use backend::{tag_backend, Backend, Done, InProcBackend, TcpBackend};
pub use ring::Ring;
pub use sketch::Sketch;

/// How often the drain loop re-checks the in-flight count.
const DRAIN_TICK: Duration = Duration::from_millis(2);

/// Connect retries for a backend reached over TCP.
const CONNECT_ATTEMPTS: u32 = 4;

/// Sketch estimate at which a key counts as hot and starts rotating
/// across two shards.
const HOT_THRESHOLD: u64 = 64;

/// Router tuning. Everything that affects *placement* (vnodes, seed) or
/// *policy* (hedging, probing) lives here; with the fixed breaker tuning
/// (`BreakerConfig::default()`) and `HOT_THRESHOLD`, a config fully
/// determines routing behaviour.
#[derive(Debug, Clone, Copy)]
pub struct RouteConfig {
    /// Virtual nodes per backend on the ring.
    pub vnodes: usize,
    /// Fire a hedge at the ring successor after this long without a
    /// primary response; `None` disables hedging.
    pub hedge_after: Option<Duration>,
    /// Health-probe period.
    pub probe_interval: Duration,
    /// Seed for the sketch rows and reconnect jitter.
    pub seed: u64,
    /// Idle-connection reaper timeout for the router's own listener.
    pub idle_timeout: Option<Duration>,
    /// Read deadline per backend round trip (applied to backends created
    /// by wire `join`s; construction-time backends set their own).
    pub call_timeout: Option<Duration>,
    /// Same-request-id retries per backend call (exactly-once thanks to
    /// the shard-side dedup window).
    pub call_retries: u32,
}

impl RouteConfig {
    /// A TCP backend with this config's wire settings, speaking v2 with
    /// pipelined submissions: what `mcc route` starts with and what a
    /// wire `join` adds, so a rejoined shard keeps the fast path.
    pub fn tcp_backend(&self, name: &str, addr: &str) -> TcpBackend {
        TcpBackend::new(name, addr, self.seed, CONNECT_ATTEMPTS)
            .with_wire(self.call_timeout, self.call_retries)
            .with_proto2(true)
    }
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            vnodes: 64,
            hedge_after: Some(Duration::from_millis(50)),
            probe_interval: Duration::from_millis(250),
            seed: 0,
            idle_timeout: Some(Duration::from_millis(30_000)),
            call_timeout: Some(Duration::from_millis(10_000)),
            call_retries: 1,
        }
    }
}

/// Router service counters (all relaxed: they feed `stats` and
/// `metrics`, not control flow).
#[derive(Debug, Default)]
pub struct RouteCounters {
    /// Compile requests routed (admitted past the drain gate).
    pub routed: AtomicU64,
    /// Requests re-fired at a successor after a transport failure.
    pub failovers: AtomicU64,
    /// Hedges fired after the latency threshold.
    pub hedges: AtomicU64,
    /// Hedged requests won by the hedge, not the primary.
    pub hedge_wins: AtomicU64,
    /// Hedged requests the primary still won (the hedge was wasted work).
    pub hedge_losses: AtomicU64,
    /// Requests answered `503` because no live backend remained.
    pub no_backend: AtomicU64,
    /// Requests routed via hot-key rotation.
    pub hot_routed: AtomicU64,
    /// Requests rejected `503` while the router drains.
    pub drain_rejects: AtomicU64,
    /// Malformed frames answered `400` at the router.
    pub bad_requests: AtomicU64,
    /// Health probes that failed (fed the breaker).
    pub probe_failures: AtomicU64,
    /// Idle connections reaped on the router's own listener.
    pub idle_reaped: AtomicU64,
    /// `join` frames applied (new backend or re-pointed transport).
    pub joins: AtomicU64,
    /// `leave` frames applied.
    pub leaves: AtomicU64,
    /// Envelope-shaped frames that failed validation at the router.
    pub corrupt_frames: AtomicU64,
    /// Inbound lines past `MAX_FRAME_BYTES` on the router's listener.
    pub oversized_frames: AtomicU64,
    /// Client connections that negotiated up to binary protocol v2.
    pub v2_connections: AtomicU64,
    /// Binary v2 frames decoded on the router's listener.
    pub v2_frames: AtomicU64,
    /// Forwarded request frames written to shard connections.
    pub pipe_frames: AtomicU64,
    /// Socket writes that carried them.
    pub pipe_writes: AtomicU64,
    /// Requests moved from a torn shared connection onto private
    /// connections of their own.
    pub pipe_fallbacks: AtomicU64,
}

/// One backend's live state: the swappable transport, its breaker, and
/// its counters. Requests hold `Arc<Slot>` snapshots, so a slot that
/// leaves the ring mid-request keeps absorbing that request's outcome
/// instead of misattributing it to whoever inherited the index.
struct Slot {
    name: String,
    /// The transport, swappable on rejoin (a restarted shard comes back
    /// on a new port; the name — and therefore placement — is stable).
    backend: Mutex<Arc<dyn Backend>>,
    breaker: Mutex<Breaker>,
    /// Responses this backend served.
    served: AtomicU64,
    /// Last successful probe round trip, microseconds.
    probe_rtt_us: AtomicU64,
    /// Successful probes.
    probe_ok: AtomicU64,
    /// Failed probes.
    probe_fail: AtomicU64,
}

impl Slot {
    fn new(backend: Arc<dyn Backend>) -> Slot {
        Slot {
            name: backend.name().to_string(),
            backend: Mutex::new(backend),
            breaker: Mutex::new(Breaker::new(BreakerConfig::default())),
            served: AtomicU64::new(0),
            probe_rtt_us: AtomicU64::new(0),
            probe_ok: AtomicU64::new(0),
            probe_fail: AtomicU64::new(0),
        }
    }

    fn transport(&self) -> Arc<dyn Backend> {
        Arc::clone(&self.backend.lock().unwrap())
    }
}

/// The mutable membership view: the slots and the ring derived from
/// their names. One `RwLock` guards both so a reader never sees a ring
/// that disagrees with the slot list. This is the "probe lock": the
/// probe thread snapshots slots through it, `join`/`leave` rebuild the
/// ring under it.
struct Membership {
    slots: Vec<Arc<Slot>>,
    ring: Ring,
}

impl Membership {
    fn rebuild_ring(&mut self, vnodes: usize) {
        let names: Vec<String> = self.slots.iter().map(|s| s.name.clone()).collect();
        self.ring = Ring::new(&names, vnodes);
    }
}

/// The shard router. Construct with [`Router::new`], optionally start
/// the probe thread with [`Router::start_probes`], serve lines via the
/// shared [`LineHandler`] loop or call [`Router::handle_line`] directly.
pub struct Router {
    cfg: RouteConfig,
    membership: RwLock<Membership>,
    sketch: Mutex<Sketch>,
    /// Logical clock: one tick per breaker decision (admit / recorded
    /// failure / probe), shared by requests and probes — deterministic,
    /// no wall time.
    tick: AtomicU64,
    counters: Arc<RouteCounters>,
    draining: AtomicBool,
    inflight: AtomicUsize,
    probe_stop: Arc<AtomicBool>,
    probe_handle: Mutex<Option<JoinHandle<()>>>,
    /// Monotonic request-id source for the identities the router assigns
    /// to compiles that arrive without one.
    next_rid: AtomicU64,
}

/// Decrements the in-flight gauge on every exit path.
struct InflightGuard<'a>(&'a AtomicUsize);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One outcome of a fired call: the candidate-order index it went to.
type Outcome = (usize, Result<String, String>);

/// One routed compile between its dispatch and its answer: the candidate
/// order, the forward body and identity every retry, failover and hedge
/// reuses, and the channel every fired call reports on.
struct Flight<'a> {
    router: &'a Router,
    _inflight: InflightGuard<'a>,
    /// The client's request id, for structured `503`s.
    id: String,
    order: Vec<Arc<Slot>>,
    /// The next candidate `fire` tries.
    next: usize,
    fwd: String,
    ident: Ident,
    tx: mpsc::Sender<Outcome>,
    rx: mpsc::Receiver<Outcome>,
    /// When the primary was dispatched: the hedge timer counts from here.
    dispatched: Instant,
    /// Leave submissions for the caller's burst flush.
    batched: bool,
}

impl Flight<'_> {
    /// Walks the candidate order, asks each breaker at the moment of
    /// dispatch (an admit that is never fired would strand a half-open
    /// breaker), and submits to the first admitted. Outcomes carry the
    /// order index, so the winner's slot is unambiguous.
    fn fire(&mut self) -> Option<usize> {
        while self.next < self.order.len() {
            let oi = self.next;
            self.next += 1;
            let now = self.router.now();
            if self.order[oi].breaker.lock().unwrap().admit(now) == Admit::Reject {
                continue;
            }
            let backend = self.order[oi].transport();
            let tx = self.tx.clone();
            // A loser's send lands on a dropped receiver: that IS the
            // cancelled accounting.
            let done: Done = Box::new(move |r| {
                let _ = tx.send((oi, r));
            });
            backend.submit(self.fwd.clone(), self.ident.clone(), done);
            if !self.batched {
                backend.flush();
            }
            return Some(oi);
        }
        None
    }

    /// Waits for the answer: hedge if slow, fail over on transport
    /// failure, feed every outcome to its breaker. Hedges and failovers
    /// go on the wire at once.
    fn finish(mut self) -> String {
        self.batched = false;
        let r = self.router;
        let mut pending = 1usize;
        let mut hedge_at: Option<usize> = None;
        loop {
            // Hedge window: only before any hedge has fired, and only
            // while the primary is the sole pending call.
            let msg = match r.cfg.hedge_after {
                Some(after) if hedge_at.is_none() => {
                    let left = (self.dispatched + after).saturating_duration_since(Instant::now());
                    match self.rx.recv_timeout(left) {
                        Ok(m) => m,
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            if let Some(oi) = self.fire() {
                                r.counters.bump(&r.counters.hedges);
                                hedge_at = Some(oi);
                                pending += 1;
                            } else {
                                // Nothing to hedge to: wait out the primary.
                                hedge_at = Some(usize::MAX);
                            }
                            continue;
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!(),
                    }
                }
                // `tx` lives in this flight, so recv() can only return
                // once a fired call reports — and pending > 0 here.
                _ => self.rx.recv().expect("a fired call always reports"),
            };
            match msg {
                (oi, Ok(resp)) => {
                    let slot = &self.order[oi];
                    slot.breaker.lock().unwrap().on_success();
                    slot.served.fetch_add(1, Ordering::Relaxed);
                    match hedge_at {
                        Some(h) if h == oi => r.counters.bump(&r.counters.hedge_wins),
                        Some(h) if h != usize::MAX => {
                            r.counters.bump(&r.counters.hedge_losses);
                        }
                        _ => {}
                    }
                    return tag_backend(&resp, &slot.name);
                }
                (oi, Err(_)) => {
                    let at = r.now();
                    self.order[oi].breaker.lock().unwrap().on_failure(at);
                    pending -= 1;
                    if pending == 0 {
                        if self.fire().is_some() {
                            r.counters.bump(&r.counters.failovers);
                            pending = 1;
                        } else {
                            r.counters.bump(&r.counters.no_backend);
                            return Response::error(&self.id, 503, "all backends failed").to_line();
                        }
                    }
                }
            }
        }
    }
}

impl Router {
    /// A router over `backends` (ring order is by backend *name*, so
    /// every router given the same names agrees on placement).
    ///
    /// # Panics
    ///
    /// If `backends` is empty.
    pub fn new(backends: Vec<Arc<dyn Backend>>, cfg: RouteConfig) -> Router {
        let names: Vec<String> = backends.iter().map(|b| b.name().to_string()).collect();
        let ring = Ring::new(&names, cfg.vnodes);
        let counters = Arc::new(RouteCounters::default());
        let slots = backends
            .into_iter()
            .map(|b| {
                b.attach(&counters);
                Arc::new(Slot::new(b))
            })
            .collect();
        Router {
            sketch: Mutex::new(Sketch::new(1024, 4, cfg.seed)),
            cfg,
            membership: RwLock::new(Membership { slots, ring }),
            tick: AtomicU64::new(0),
            counters,
            draining: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            probe_stop: Arc::new(AtomicBool::new(false)),
            probe_handle: Mutex::new(None),
            next_rid: AtomicU64::new(1),
        }
    }

    /// Spawns the health-probe thread: every `probe_interval`, ping each
    /// backend its breaker admits and feed the outcome back. A pong is
    /// healthy only if it is a `200` *and* the shard is not draining.
    /// The thread re-snapshots membership every round, so a joined
    /// backend is probed from the next round on.
    pub fn start_probes(router: &Arc<Router>) {
        let r = Arc::clone(router);
        let stop = Arc::clone(&router.probe_stop);
        let handle = std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let slots: Vec<Arc<Slot>> = r.membership.read().unwrap().slots.clone();
                for slot in slots {
                    let now = r.now();
                    let admit = slot.breaker.lock().unwrap().admit(now);
                    if admit == Admit::Reject {
                        continue;
                    }
                    let t0 = Instant::now();
                    let pong = backend::request(&*slot.transport(), "{\"op\":\"ping\"}", None);
                    let healthy = pong.is_ok_and(|p| {
                        Response::field_num(&p, "code") == Some(200)
                            && Response::field_str(&p, "draining").as_deref() != Some("true")
                    });
                    if healthy {
                        #[allow(clippy::cast_possible_truncation)]
                        slot.probe_rtt_us
                            .store(t0.elapsed().as_micros() as u64, Ordering::Relaxed);
                        slot.probe_ok.fetch_add(1, Ordering::Relaxed);
                        slot.breaker.lock().unwrap().on_success();
                    } else {
                        slot.probe_fail.fetch_add(1, Ordering::Relaxed);
                        r.counters.bump(&r.counters.probe_failures);
                        let at = r.now();
                        slot.breaker.lock().unwrap().on_failure(at);
                    }
                }
                std::thread::sleep(r.cfg.probe_interval);
            }
        });
        *router.probe_handle.lock().unwrap() = Some(handle);
    }

    /// Stops and joins the probe thread (idempotent).
    pub fn stop_probes(&self) {
        self.probe_stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.probe_handle.lock().unwrap().take() {
            let _ = h.join();
        }
    }

    /// Router counters.
    pub fn counters(&self) -> &RouteCounters {
        &self.counters
    }

    /// Backend names in slot order (ring indices point into this).
    pub fn backend_names(&self) -> Vec<String> {
        self.membership
            .read()
            .unwrap()
            .slots
            .iter()
            .map(|s| s.name.clone())
            .collect()
    }

    /// Responses served by the named backend, or `None` if it is not a
    /// member.
    pub fn served_of(&self, name: &str) -> Option<u64> {
        self.membership
            .read()
            .unwrap()
            .slots
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.served.load(Ordering::Relaxed))
    }

    /// Adds `backend` to the live ring, or — if a member with the same
    /// name exists — swaps its transport in place (the rejoin path: a
    /// restarted shard comes back on a new port under its old name, so
    /// it reclaims exactly its old keys and its disk cache stays warm).
    /// Either way the breaker resets to closed: the supervisor only
    /// joins a shard it has just seen answer a readiness ping.
    pub fn join_backend(&self, backend: Arc<dyn Backend>) -> Result<(), String> {
        let name = backend.name().to_string();
        if name.is_empty() {
            return Err("join: empty backend name".to_string());
        }
        backend.attach(&self.counters);
        let mut m = self.membership.write().unwrap();
        self.counters.bump(&self.counters.joins);
        if let Some(slot) = m.slots.iter().find(|s| s.name == name) {
            *slot.backend.lock().unwrap() = backend;
            *slot.breaker.lock().unwrap() = Breaker::new(BreakerConfig::default());
            return Ok(());
        }
        m.slots.push(Arc::new(Slot::new(backend)));
        m.rebuild_ring(self.cfg.vnodes);
        Ok(())
    }

    /// Removes the named backend from the live ring. Refuses to empty
    /// the ring — a router with no backends cannot route anything, so
    /// the last member stays (open-breakered if it is dead).
    pub fn leave_backend(&self, name: &str) -> Result<(), String> {
        let mut m = self.membership.write().unwrap();
        let Some(idx) = m.slots.iter().position(|s| s.name == name) else {
            return Err(format!("leave: `{name}` is not a member"));
        };
        if m.slots.len() == 1 {
            return Err("leave: refusing to remove the last backend".to_string());
        }
        m.slots.remove(idx);
        m.rebuild_ring(self.cfg.vnodes);
        self.counters.bump(&self.counters.leaves);
        Ok(())
    }

    /// The deterministic candidate order (primary first) for a compile,
    /// ignoring breakers and hot rotation — the analytic placement used
    /// by the bench's scaling table and by placement-audit tests.
    pub fn placement(&self, machine: &str, lang: &str, src: &str) -> Vec<usize> {
        self.membership
            .read()
            .unwrap()
            .ring
            .successors(point_for(machine, lang, src))
    }

    /// Whether the router is draining.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Graceful drain: stop admitting, wait for in-flight requests,
    /// stop the probes, then propagate the drain to every backend.
    /// Returns the number of requests in flight when the drain began.
    pub fn drain(&self) -> usize {
        self.draining.store(true, Ordering::SeqCst);
        let at_start = self.inflight.load(Ordering::SeqCst);
        while self.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(DRAIN_TICK);
        }
        self.stop_probes();
        // Best effort: a dead backend cannot be drained, and that is
        // fine — it has nothing in flight either.
        let slots: Vec<Arc<Slot>> = self.membership.read().unwrap().slots.clone();
        for s in slots {
            let _ = backend::request(&*s.transport(), "{\"op\":\"drain\"}", None);
        }
        at_start
    }

    /// Handles one frame: `ping`/`stats`/`drain` are answered locally,
    /// `join`/`leave` mutate the live ring, compiles are routed. Always
    /// returns a newline-terminated line.
    pub fn handle_line(&self, line: &str, client: &str) -> String {
        match parse_request(line) {
            Err(reason) => {
                self.counters.bump(&self.counters.bad_requests);
                Response::error(&frame_id(line), 400, &reason).to_line()
            }
            Ok(Request::Ping) => {
                let (members, live) = {
                    let m = self.membership.read().unwrap();
                    let live = m
                        .slots
                        .iter()
                        .filter(|s| s.breaker.lock().unwrap().is_closed())
                        .count();
                    (m.slots.len(), live)
                };
                let mut r = Response::new(&frame_id(line), 200);
                r.push_str("pong", "mcc-route");
                r.push_num("backends", members as u64);
                r.push_num("live", live as u64);
                r.push_str(
                    "draining",
                    if self.is_draining() { "true" } else { "false" },
                );
                r.to_line()
            }
            Ok(Request::Stats) => metrics::stats(&frame_id(line), SERIES, self).to_line(),
            Ok(Request::Metrics) => {
                metrics::response(&frame_id(line), &self.metrics_text()).to_line()
            }
            Ok(Request::Drain) => {
                let inflight = self.drain();
                let mut r = Response::new(&frame_id(line), 200);
                r.push_str("draining", "true");
                r.push_num("inflight_at_drain", inflight as u64);
                r.to_line()
            }
            Ok(Request::Join(j)) => self.handle_join(&j),
            Ok(Request::Leave { name }) => match self.leave_backend(&name) {
                Ok(()) => {
                    let mut r = Response::new(&frame_id(line), 200);
                    r.push_str("left", &name);
                    r.push_num("backends", self.backend_names().len() as u64);
                    r.to_line()
                }
                Err(reason) => Response::error(&frame_id(line), 400, &reason).to_line(),
            },
            Ok(Request::Compile(req)) => match self.dispatch(line, client, &req, None, false) {
                Ok(flight) => flight.finish(),
                Err(resp) => resp,
            },
        }
    }

    /// Applies a wire `join`: the new member is reached over TCP exactly
    /// like a startup member ([`RouteConfig::tcp_backend`]).
    fn handle_join(&self, j: &JoinReq) -> String {
        if self.is_draining() {
            return Response::error(&j.id, 503, "router draining").to_line();
        }
        if j.addr.is_empty() {
            return Response::error(&j.id, 400, "join: empty `addr`").to_line();
        }
        let backend: Arc<dyn Backend> = Arc::new(self.cfg.tcp_backend(&j.name, &j.addr));
        match self.join_backend(backend) {
            Ok(()) => {
                let mut r = Response::new(&j.id, 200);
                r.push_str("joined", &j.name);
                r.push_num("backends", self.backend_names().len() as u64);
                r.to_line()
            }
            Err(reason) => Response::error(&j.id, 400, &reason).to_line(),
        }
    }

    /// Advances the logical clock and returns the new tick.
    fn now(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Dispatches one compile to the first admitted candidate and returns
    /// it in flight, or the immediate answer (`503` while draining or
    /// with no live backend): place on the ring, rotate if hot, skip open
    /// breakers. With `batched`, the submission waits for the caller's
    /// burst flush ([`LineHandler::flush_submitted`]).
    fn dispatch<'a>(
        &'a self,
        line: &str,
        client: &str,
        req: &CompileReq,
        ident: Option<Ident>,
        batched: bool,
    ) -> Result<Flight<'a>, String> {
        if self.is_draining() {
            self.counters.bump(&self.counters.drain_rejects);
            return Err(Response::error(&req.id, 503, "router draining").to_line());
        }
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let inflight = InflightGuard(&self.inflight);
        self.counters.bump(&self.counters.routed);

        let point = point_for(&req.machine, &req.lang, &req.src);
        // Snapshot the candidate order under the membership lock, then
        // drop it: in-flight requests keep their `Arc<Slot>`s even if a
        // concurrent `leave` rebuilds the ring underneath them.
        let mut order: Vec<Arc<Slot>> = {
            let m = self.membership.read().unwrap();
            m.ring
                .successors(point)
                .into_iter()
                .map(|i| Arc::clone(&m.slots[i]))
                .collect()
        };
        // Hot keys rotate between the primary and its first successor:
        // both shards end up warm, and neither takes the whole flood.
        let count = self.sketch.lock().unwrap().observe(point);
        if count >= HOT_THRESHOLD && order.len() >= 2 {
            self.counters.bump(&self.counters.hot_routed);
            if count % 2 == 1 {
                order.swap(0, 1);
            }
        }

        // Every forward carries ONE identity per client request: the
        // client's own (end-to-end exactly-once when it sent one) or a
        // router-assigned `(r:<client>, rid)`. Retries, failovers, and
        // hedges all reuse it, so a shard that already executed the
        // request replays instead of re-running.
        let ident = ident.unwrap_or_else(|| Ident {
            cid: format!("r:{}", client.replace(' ', "_")),
            rid: self.next_rid.fetch_add(1, Ordering::Relaxed),
        });
        let (tx, rx) = mpsc::channel();
        let mut flight = Flight {
            router: self,
            _inflight: inflight,
            id: req.id.clone(),
            order,
            next: 0,
            fwd: line.trim_end().to_string(),
            ident,
            tx,
            rx,
            dispatched: Instant::now(),
            batched,
        };
        if flight.fire().is_none() {
            self.counters.bump(&self.counters.no_backend);
            return Err(Response::error(&req.id, 503, "no live backend").to_line());
        }
        Ok(flight)
    }

    /// Renders the router's registry (`SERIES`) and its per-backend
    /// family (`BACKEND_SERIES`), then fans the `metrics` op out to
    /// every live backend and folds each shard's exposition in under a
    /// `shard="<name>"` label.
    pub fn metrics_text(&self) -> String {
        let mut out = String::new();
        metrics::render(&mut out, "mcc_route", SERIES, &[(String::new(), self)]);
        let slots: Vec<Arc<Slot>> = self.membership.read().unwrap().slots.clone();
        let rows: Vec<(String, &Slot)> = slots
            .iter()
            .map(|s| (format!("backend=\"{}\"", sanitize_label(&s.name)), &**s))
            .collect();
        metrics::render(&mut out, "mcc_route_backend", BACKEND_SERIES, &rows);
        for s in &slots {
            if !s.breaker.lock().unwrap().is_closed() {
                continue;
            }
            if let Ok(reply) = backend::request(&*s.transport(), "{\"op\":\"metrics\"}", None) {
                if let Some(text) = Response::field_str(&reply, "text") {
                    merge_with_label(&mut out, &text, "shard", &s.name);
                }
            }
        }
        out
    }
}

/// The router's scalar series: what `stats` answers and what `metrics`
/// renders as `mcc_route_<name>`.
const SERIES: &[Series<Router>] = &[
    counter_field!(routed, "Compile requests routed."),
    counter_field!(failovers, "Requests re-fired at a ring successor."),
    counter_field!(hedges, "Hedges fired."),
    counter_field!(hedge_wins, "Hedged requests the hedge won."),
    counter_field!(hedge_losses, "Hedged requests the primary still won."),
    counter_field!(no_backend, "Requests with no live backend."),
    counter_field!(hot_routed, "Requests routed by hot-key rotation."),
    counter_field!(drain_rejects, "Requests rejected while draining."),
    counter_field!(bad_requests, "Malformed frames answered 400."),
    counter_field!(probe_failures, "Health probes that failed."),
    counter_field!(idle_reaped, "Idle connections closed by the reaper."),
    counter_field!(joins, "Join frames applied."),
    counter_field!(leaves, "Leave frames applied."),
    counter_field!(corrupt_frames, "Frames that failed structural or checksum validation."),
    counter_field!(oversized_frames, "Inbound frames past the frame size limit."),
    counter_field!(v2_connections, "Client connections that negotiated binary protocol v2."),
    counter_field!(v2_frames, "Binary v2 frames decoded."),
    counter_field!(pipe_frames, "Forwarded request frames written to shard connections."),
    counter_field!(pipe_writes, "Socket writes that carried forwarded request frames."),
    counter_field!(
        pipe_fallbacks,
        "Requests moved from a torn shared connection onto private connections."
    ),
    Series::gauge("backends", "Backends in the ring.", |r| {
        r.membership.read().unwrap().slots.len() as u64
    }),
    Series::gauge("draining", "1 while the router is draining.", |r| u64::from(r.is_draining())),
];

/// The per-backend family, rendered as `mcc_route_backend_<name>` with a
/// `backend` label.
const BACKEND_SERIES: &[Series<Slot>] = &[
    Series::counter("served", "Requests served per backend.", |s| s.served.load(Ordering::Relaxed)),
    Series::gauge("up", "Breaker state per backend (1 = closed).", |s| {
        u64::from(s.breaker.lock().unwrap().is_closed())
    }),
    Series::gauge("probe_rtt_us", "Last successful probe round trip, microseconds.", |s| {
        s.probe_rtt_us.load(Ordering::Relaxed)
    }),
    Series::counter("probe_ok", "Successful health probes.", |s| {
        s.probe_ok.load(Ordering::Relaxed)
    }),
    Series::counter("probe_fail", "Failed health probes.", |s| {
        s.probe_fail.load(Ordering::Relaxed)
    }),
];

impl RouteCounters {
    /// Bumps one counter.
    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

impl LineHandler for Router {
    /// Compiles are dispatched now and answered at collection; anything
    /// else runs at collection, in arrival order, exactly as the
    /// blocking path would. A drain stops admission at once, so a
    /// compile behind it in the same burst gets the `503` it would get
    /// serially, while the drain still waits out the compiles before it.
    fn submit_wire(&self, line: &str, ident: Option<Ident>, client: &str) -> WireSubmission<'_> {
        match parse_request(line) {
            Ok(Request::Compile(req)) => match self.dispatch(line, client, &req, ident, true) {
                Ok(flight) => WireSubmission::Pending(Box::new(move || flight.finish())),
                Err(resp) => WireSubmission::Done(resp),
            },
            parsed => {
                if matches!(parsed, Ok(Request::Drain)) {
                    self.draining.store(true, Ordering::SeqCst);
                }
                let (line, client) = (line.to_string(), client.to_string());
                WireSubmission::Pending(Box::new(move || self.handle_line(&line, &client)))
            }
        }
    }

    fn flush_submitted(&self) {
        let m = self.membership.read().expect("a membership writer panicked");
        for s in &m.slots {
            s.transport().flush();
        }
    }

    fn on_idle_reap(&self) {
        self.counters.bump(&self.counters.idle_reaped);
    }

    fn on_oversized(&self) {
        self.counters.bump(&self.counters.oversized_frames);
    }

    fn on_v2_connection(&self) {
        self.counters.bump(&self.counters.v2_connections);
    }

    fn on_v2_frame(&self) {
        self.counters.bump(&self.counters.v2_frames);
    }

    fn on_corrupt_frame(&self) {
        self.counters.bump(&self.counters.corrupt_frames);
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.cfg.idle_timeout
    }
}

/// The ring point for a compile request: fold of the content-addressed
/// cache key when the names resolve (so placement tracks cache
/// identity), else a hash of the raw fields (bad names still route
/// consistently — to a shard that will answer `400`).
pub fn point_for(machine: &str, lang: &str, src: &str) -> u64 {
    match mcc_cache::key_for_wire(machine, lang, src) {
        Some(k) => Ring::point_of(k.0),
        None => Ring::point_of(u128::from(mcc_harness::splitmix64(
            src.len() as u64 ^ (machine.len() as u64) << 32 ^ (lang.len() as u64) << 48,
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_serve::{proto, ServeConfig, Server};

    fn fleet(n: usize, cfg: RouteConfig) -> (Vec<Arc<InProcBackend>>, Arc<Router>) {
        let shards: Vec<Arc<InProcBackend>> = (0..n)
            .map(|i| {
                Arc::new(InProcBackend::new(
                    &format!("b{i}"),
                    Arc::new(Server::start(ServeConfig::default())),
                ))
            })
            .collect();
        let backends: Vec<Arc<dyn Backend>> = shards
            .iter()
            .map(|s| Arc::clone(s) as Arc<dyn Backend>)
            .collect();
        (shards, Arc::new(Router::new(backends, cfg)))
    }

    fn compile_line(nonce: u64) -> String {
        proto::compile_line(
            &format!("r{nonce}"),
            "hm1",
            "yalll",
            // The nonce comment changes the cache key without changing
            // the program: distinct sources, distinct ring points.
            &format!("; n{nonce}\nreg a = R0\nconst a, 7\nexit a\n"),
        )
    }

    fn no_hedge() -> RouteConfig {
        RouteConfig {
            hedge_after: None,
            ..RouteConfig::default()
        }
    }

    /// The breaker state (`closed` | `open` | `half-open`) of the named
    /// backend, or `None` if it is not a member.
    fn breaker_state_of(router: &Router, name: &str) -> Option<&'static str> {
        router
            .membership
            .read()
            .unwrap()
            .slots
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.breaker.lock().unwrap().state_name())
    }

    #[test]
    fn routes_compiles_consistently_and_tags_the_backend() {
        let (_shards, router) = fleet(3, no_hedge());
        let mut tags = Vec::new();
        for nonce in 0..24 {
            let line = compile_line(nonce);
            let r1 = router.handle_line(&line, "t");
            assert_eq!(Response::field_num(&r1, "code"), Some(200), "{r1}");
            let tag = Response::field_str(&r1, "backend").expect("response is tagged");
            // Same request again: same shard, every time.
            let r2 = router.handle_line(&line, "t");
            assert_eq!(Response::field_str(&r2, "backend").as_deref(), Some(&*tag));
            tags.push(tag);
        }
        tags.sort();
        tags.dedup();
        assert!(tags.len() > 1, "24 distinct keys spread over >1 shard: {tags:?}");
    }

    #[test]
    fn transport_failure_fails_over_to_the_ring_successor() {
        let (shards, router) = fleet(2, no_hedge());
        // A key whose primary is shard 0.
        let nonce = (0..)
            .find(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                router.placement("hm1", "yalll", &src)[0] == 0
            })
            .unwrap();
        shards[0].kill();
        let resp = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert_eq!(
            Response::field_str(&resp, "backend").as_deref(),
            Some("b1"),
            "served by the ring successor"
        );
        let c = router.counters();
        assert!(c.failovers.load(Ordering::Relaxed) >= 1);
        assert_eq!(router.served_of("b1"), Some(1));
        assert_eq!(router.served_of("b0"), Some(0));
    }

    #[test]
    fn repeated_failures_open_the_breaker_and_skip_the_dead_shard() {
        let (shards, router) = fleet(2, no_hedge());
        shards[0].kill();
        // Enough primaries-on-b0 to trip its breaker...
        let mut nonces = (0..).filter(|&n: &u64| {
            let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
            router.placement("hm1", "yalll", &src)[0] == 0
        });
        for _ in 0..BreakerConfig::default().threshold {
            let r = router.handle_line(&compile_line(nonces.next().unwrap()), "t");
            assert_eq!(Response::field_num(&r, "code"), Some(200));
        }
        assert_eq!(breaker_state_of(&router, "b0"), Some("open"));
        let failovers_before = router.counters().failovers.load(Ordering::Relaxed);
        // ...after which b0 is skipped at dispatch: no more failovers,
        // requests go straight to b1.
        let r = router.handle_line(&compile_line(nonces.next().unwrap()), "t");
        assert_eq!(Response::field_str(&r, "backend").as_deref(), Some("b1"));
        assert_eq!(
            router.counters().failovers.load(Ordering::Relaxed),
            failovers_before,
            "an open breaker is a skip, not a failover"
        );
    }

    #[test]
    fn all_backends_dead_is_a_structured_503() {
        let (shards, router) = fleet(2, no_hedge());
        for s in &shards {
            s.kill();
        }
        let r = router.handle_line(&compile_line(1), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(503), "{r}");
        assert!(r.contains("all backends failed"));
        // Once the breakers are open it becomes "no live backend".
        for _ in 0..8 {
            let _ = router.handle_line(&compile_line(2), "t");
        }
        let r = router.handle_line(&compile_line(3), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(503));
        assert!(router.counters().no_backend.load(Ordering::Relaxed) >= 1);
    }

    /// A backend that answers correctly but slowly — the hedging target.
    struct SlowBackend {
        inner: Arc<InProcBackend>,
        delay: Duration,
    }

    impl SlowBackend {
        fn new(name: &str, delay: Duration) -> SlowBackend {
            let server = Arc::new(Server::start(ServeConfig::default()));
            SlowBackend { inner: Arc::new(InProcBackend::new(name, server)), delay }
        }
    }

    impl Backend for SlowBackend {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn submit(&self, line: String, ident: Ident, done: Done) {
            let (inner, delay) = (Arc::clone(&self.inner), self.delay);
            std::thread::spawn(move || {
                std::thread::sleep(delay);
                inner.submit(line, ident, done);
            });
        }
    }

    #[test]
    fn slow_primary_is_hedged_and_the_successor_wins() {
        let cfg = RouteConfig {
            hedge_after: Some(Duration::from_millis(15)),
            ..RouteConfig::default()
        };
        let slow = Arc::new(SlowBackend::new("b0", Duration::from_millis(300)));
        let fast = Arc::new(InProcBackend::new(
            "b1",
            Arc::new(Server::start(ServeConfig::default())),
        ));
        let router = Router::new(
            vec![Arc::clone(&slow) as Arc<dyn Backend>, fast as Arc<dyn Backend>],
            cfg,
        );
        let nonce = (0..)
            .find(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                router.placement("hm1", "yalll", &src)[0] == 0
            })
            .unwrap();
        let resp = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert_eq!(
            Response::field_str(&resp, "backend").as_deref(),
            Some("b1"),
            "the hedge at the successor beat the slow primary"
        );
        let c = router.counters();
        assert_eq!(c.hedges.load(Ordering::Relaxed), 1);
        assert_eq!(c.hedge_wins.load(Ordering::Relaxed), 1);
        assert_eq!(c.hedge_losses.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn fast_primary_wins_and_the_hedge_is_a_loss() {
        let cfg = RouteConfig {
            hedge_after: Some(Duration::from_millis(15)),
            ..RouteConfig::default()
        };
        // Primary answers in 60ms (after the hedge fires), hedge target
        // in 300ms: the hedge fires and loses.
        let prim = Arc::new(SlowBackend::new("b0", Duration::from_millis(60)));
        let succ = Arc::new(SlowBackend::new("b1", Duration::from_millis(300)));
        let router = Router::new(
            vec![
                Arc::clone(&prim) as Arc<dyn Backend>,
                succ as Arc<dyn Backend>,
            ],
            cfg,
        );
        let nonce = (0..)
            .find(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                router.placement("hm1", "yalll", &src)[0] == 0
            })
            .unwrap();
        let resp = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(
            Response::field_str(&resp, "backend").as_deref(),
            Some("b0"),
            "the primary won its own race"
        );
        let c = router.counters();
        assert_eq!(c.hedges.load(Ordering::Relaxed), 1);
        assert_eq!(c.hedge_wins.load(Ordering::Relaxed), 0);
        assert_eq!(c.hedge_losses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hot_keys_rotate_across_two_shards() {
        let (_shards, router) = fleet(2, no_hedge());
        let line = compile_line(99);
        for _ in 0..HOT_THRESHOLD + 16 {
            let r = router.handle_line(&line, "t");
            assert_eq!(Response::field_num(&r, "code"), Some(200));
        }
        let c = router.counters();
        assert!(c.hot_routed.load(Ordering::Relaxed) >= 1, "the key went hot");
        let s0 = router.served_of("b0").unwrap();
        let s1 = router.served_of("b1").unwrap();
        assert!(
            s0 >= 2 && s1 >= 2,
            "a hot key is served by both its primary and the successor, got {s0}/{s1}"
        );
    }

    #[test]
    fn probes_reopen_a_revived_shard() {
        let cfg = RouteConfig {
            probe_interval: Duration::from_millis(2),
            ..no_hedge()
        };
        let (shards, router) = fleet(1, cfg);
        shards[0].kill();
        Router::start_probes(&router);
        // Probes fail, the breaker opens, requests are rejected fast.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while breaker_state_of(&router, "b0") != Some("open")
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(breaker_state_of(&router, "b0"), Some("open"));
        let r = router.handle_line(&compile_line(1), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(503));
        // The shard comes back; a probe closes the breaker without any
        // request traffic.
        backend::tests::revive(&shards[0]);
        while breaker_state_of(&router, "b0") != Some("closed")
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(breaker_state_of(&router, "b0"), Some("closed"));
        let r = router.handle_line(&compile_line(2), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(200), "{r}");
        router.stop_probes();
    }

    #[test]
    fn drain_propagates_to_every_backend_in_order() {
        let (shards, router) = fleet(2, no_hedge());
        Router::start_probes(&router);
        let warm = router.handle_line(&compile_line(5), "t");
        assert_eq!(Response::field_num(&warm, "code"), Some(200));
        let resp = router.handle_line("{\"op\":\"drain\"}\n", "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(200));
        assert!(router.is_draining());
        // Every backend saw the drain: their pongs report draining.
        for s in &shards {
            let pong = s.server().handle_line("{\"op\":\"ping\"}", "t").to_line();
            assert_eq!(
                Response::field_str(&pong, "draining").as_deref(),
                Some("true"),
                "backend {} drained: {pong}",
                s.name()
            );
        }
        // New compiles at the router are refused with a structured 503.
        let r = router.handle_line(&compile_line(6), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(503));
        assert!(router.counters().drain_rejects.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn ping_stats_and_garbage_are_answered_locally() {
        let (_shards, router) = fleet(2, no_hedge());
        let pong = router.handle_line("{\"op\":\"ping\",\"id\":\"p1\"}\n", "t");
        assert_eq!(Response::field_num(&pong, "code"), Some(200));
        assert_eq!(Response::field_str(&pong, "pong").as_deref(), Some("mcc-route"));
        assert_eq!(Response::field_num(&pong, "backends"), Some(2));
        assert_eq!(Response::field_num(&pong, "live"), Some(2));
        let bad = router.handle_line("not json\n", "t");
        assert_eq!(Response::field_num(&bad, "code"), Some(400));
        let stats = router.handle_line("{\"op\":\"stats\"}\n", "t");
        assert_eq!(Response::field_num(&stats, "bad_requests"), Some(1));
        assert_eq!(Response::field_num(&stats, "backends"), Some(2));
        assert!(Response::field_num(&stats, "hedge_losses").is_some());
        assert!(Response::field_num(&stats, "joins").is_some());
        // Per-backend numbers live in `metrics`, one labelled sample per
        // member.
        let text = router.metrics_text();
        mcc_serve::metrics::validate(&text).unwrap();
        for family in ["served_total", "up", "probe_rtt_us", "probe_ok_total", "probe_fail_total"] {
            let members: Vec<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix(&format!("mcc_route_backend_{family}{{backend=\"")))
                .filter_map(|l| l.split('"').next())
                .collect();
            assert_eq!(members, ["b0", "b1"], "{family}: {text}");
        }
        assert!(text.contains("mcc_route_backend_served_total{backend=\"b0\"} 0\n"), "{text}");
        assert!(text.contains("mcc_route_backend_up{backend=\"b1\"} 1\n"), "{text}");
    }

    /// A shard that counts the requests submitted to it.
    struct Counting {
        inner: Arc<InProcBackend>,
        calls: AtomicU64,
    }

    impl Backend for Counting {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn submit(&self, line: String, ident: Ident, done: Done) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            self.inner.submit(line, ident, done);
        }
    }

    #[test]
    fn stats_is_answered_without_calling_a_backend() {
        let server = Arc::new(Server::start(ServeConfig::default()));
        let shard = Arc::new(Counting {
            inner: Arc::new(InProcBackend::new("b0", server)),
            calls: AtomicU64::new(0),
        });
        let router = Router::new(vec![Arc::clone(&shard) as Arc<dyn Backend>], no_hedge());
        let stats = router.handle_line("{\"op\":\"stats\"}\n", "t");
        assert_eq!(Response::field_num(&stats, "backends"), Some(1), "{stats}");
        assert_eq!(shard.calls.load(Ordering::SeqCst), 0, "stats called a backend");
    }

    #[test]
    fn leave_shrinks_the_ring_and_join_reclaims_the_same_keys() {
        let (_shards, router) = fleet(3, no_hedge());
        // Record b2's keys before it leaves.
        let owned: Vec<u64> = (0..96)
            .filter(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                let names = router.backend_names();
                names[router.placement("hm1", "yalll", &src)[0]] == "b2"
            })
            .collect();
        assert!(!owned.is_empty(), "b2 owns some of 96 keys");
        router.leave_backend("b2").unwrap();
        assert_eq!(router.backend_names(), vec!["b0", "b1"]);
        // Its keys are served by survivors...
        for &n in &owned {
            let r = router.handle_line(&compile_line(n), "t");
            assert_eq!(Response::field_num(&r, "code"), Some(200));
            let tag = Response::field_str(&r, "backend").unwrap();
            assert_ne!(tag, "b2");
        }
        // ...and a rejoin under the same name reclaims exactly them.
        let back = Arc::new(InProcBackend::new(
            "b2",
            Arc::new(Server::start(ServeConfig::default())),
        ));
        router.join_backend(back).unwrap();
        assert_eq!(router.backend_names(), vec!["b0", "b1", "b2"]);
        for &n in &owned {
            let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
            let names = router.backend_names();
            assert_eq!(
                names[router.placement("hm1", "yalll", &src)[0]],
                "b2",
                "rejoined shard reclaims its old keys"
            );
        }
        let c = router.counters();
        assert_eq!(c.leaves.load(Ordering::Relaxed), 1);
        assert_eq!(c.joins.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn join_with_an_existing_name_swaps_the_transport_in_place() {
        let (shards, router) = fleet(2, no_hedge());
        shards[0].kill();
        // Find a b0-owned key; with b0 dead it fails over.
        let nonce = (0..)
            .find(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                router.placement("hm1", "yalll", &src)[0] == 0
            })
            .unwrap();
        let r = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(Response::field_str(&r, "backend").as_deref(), Some("b1"));
        // "Restart" b0 as a fresh server joined under the old name.
        let reborn = Arc::new(InProcBackend::new(
            "b0",
            Arc::new(Server::start(ServeConfig::default())),
        ));
        router.join_backend(reborn).unwrap();
        assert_eq!(router.backend_names(), vec!["b0", "b1"], "no duplicate slot");
        let r = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(
            Response::field_str(&r, "backend").as_deref(),
            Some("b0"),
            "the rejoined transport serves its old keys again"
        );
    }

    #[test]
    fn the_last_backend_cannot_leave() {
        let (_shards, router) = fleet(1, no_hedge());
        let err = router.leave_backend("b0").unwrap_err();
        assert!(err.contains("last backend"), "{err}");
        let resp = router.handle_line("{\"op\":\"leave\",\"name\":\"b0\"}\n", "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(400));
        let resp = router.handle_line("{\"op\":\"leave\",\"name\":\"nope\"}\n", "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(400));
        assert!(resp.contains("not a member"));
    }

    #[test]
    fn wire_join_and_leave_drive_the_live_ring() {
        use mcc_serve::tcp::serve_lines;
        // A real TCP shard to join by address.
        let server = Arc::new(Server::start(ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || serve_lines(server, listener, stop))
        };
        let (_shards, router) = fleet(2, no_hedge());
        let resp = router.handle_line(&proto::join_line("j1", "b2", &addr), "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert_eq!(Response::field_str(&resp, "joined").as_deref(), Some("b2"));
        assert_eq!(Response::field_num(&resp, "backends"), Some(3));
        // A key owned by the TCP member is served by it, over the wire.
        let nonce = (0..)
            .find(|&n| {
                let src = format!("; n{n}\nreg a = R0\nconst a, 7\nexit a\n");
                let names = router.backend_names();
                names[router.placement("hm1", "yalll", &src)[0]] == "b2"
            })
            .unwrap();
        let r = router.handle_line(&compile_line(nonce), "t");
        assert_eq!(Response::field_num(&r, "code"), Some(200), "{r}");
        assert_eq!(Response::field_str(&r, "backend").as_deref(), Some("b2"));
        // And a wire leave takes it back out.
        let resp = router.handle_line(&proto::leave_line("l1", "b2"), "t");
        assert_eq!(Response::field_num(&resp, "code"), Some(200));
        assert_eq!(Response::field_num(&resp, "backends"), Some(2));
        let r = router.handle_line(&compile_line(nonce), "t");
        assert_ne!(Response::field_str(&r, "backend").as_deref(), Some("b2"));
        stop.store(true, Ordering::SeqCst);
        accept.join().ok();
    }
}
