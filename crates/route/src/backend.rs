//! Backend transports: how the router actually reaches a shard.
//!
//! A [`Backend`] turns each submitted request line into one response
//! line, and [`request`] waits for it. `Err` means *transport* failure —
//! connect refused, connection torn mid-frame, backend process gone —
//! and feeds the shard's circuit breaker. Structured protocol errors
//! (`400`, `503`, …) come back as `Ok`: the shard answered, so it is
//! healthy, whatever it said.
//!
//! Two transports:
//!
//! * [`InProcBackend`] wraps an in-process [`Server`] — the bench fleet
//!   and the deterministic unit tests, with a [`kill`] switch that
//!   simulates a SIGKILLed shard;
//! * [`TcpBackend`] reaches a remote `mcc serve`. Over v2, requests
//!   pipeline over one shared connection per shard; a request a fault
//!   strands there retries on private connections, dialled with the
//!   harness's capped-exponential, splitmix64-jittered backoff so a
//!   restarting fleet of routers does not stampede a recovering shard.
//!
//! [`kill`]: InProcBackend::kill

use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use mcc_harness::backoff::{self, BackoffConfig};
use mcc_serve::proto::{self, Envelope, Ident, MAX_FRAME_BYTES};
use mcc_serve::proto2::{self, FrameType};
use mcc_serve::tcp::{read_frame_buf, write_frame, FrameBufRead, WireSubmission};
use mcc_serve::Server;

use crate::RouteCounters;

/// Where a submitted call's outcome goes, from whichever thread has it.
pub type Done = Box<dyn FnOnce(Result<String, String>) + Send>;

/// One shard, behind whatever transport reaches it.
pub trait Backend: Send + Sync + 'static {
    /// The shard's stable name (ring placement hashes this).
    fn name(&self) -> &str;

    /// Starts one request and returns at once; the outcome goes to
    /// `done`. An `ident` with a `cid` reaches the shard's dedup window,
    /// so every retry, failover and hedge of one request executes it at
    /// most once; an empty `cid` carries no identity.
    fn submit(&self, line: String, ident: Ident, done: Done);

    /// Puts every submitted request still held back on the wire. A
    /// transport that batches submissions holds them until this call.
    fn flush(&self) {}

    /// Hands the transport its router's counters, for the counts only
    /// the transport sees. Called whenever the backend joins a router.
    fn attach(&self, _counters: &Arc<RouteCounters>) {}
}

/// Rids that match anonymous requests to their answers, never dedup.
static ANON_RID: AtomicU64 = AtomicU64::new(1);

/// Submits one request, flushes it and waits for its one answer. Without
/// `ident` it goes anonymous: an empty `cid`, so the shard dedups
/// nothing, and a rid no other anonymous request shares.
pub fn request(backend: &dyn Backend, line: &str, ident: Option<Ident>) -> Result<String, String> {
    let ident = ident.unwrap_or_else(|| Ident {
        cid: String::new(),
        rid: ANON_RID.fetch_add(1, Ordering::Relaxed),
    });
    let (tx, rx) = mpsc::channel();
    backend.submit(line.trim_end().to_string(), ident, Box::new(move |r| drop(tx.send(r))));
    backend.flush();
    rx.recv().map_err(|_| format!("{}: request dropped unanswered", backend.name()))?
}

/// An in-process shard: calls straight into a [`Server`], with a kill
/// switch for deterministic failover tests.
pub struct InProcBackend {
    name: String,
    server: Arc<Server>,
    dead: AtomicBool,
}

impl InProcBackend {
    /// Wraps `server` as the shard named `name`.
    pub fn new(name: &str, server: Arc<Server>) -> InProcBackend {
        InProcBackend {
            name: name.to_string(),
            server,
            dead: AtomicBool::new(false),
        }
    }

    /// Simulates SIGKILL: every subsequent call is a transport failure.
    pub fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
    }

    /// The wrapped server (for counter assertions in tests).
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }
}

impl Backend for InProcBackend {
    fn name(&self) -> &str {
        &self.name
    }

    /// Through the server's identity intake, so a forward gets the same
    /// dedup/replay semantics a TCP shard would apply. An admitted
    /// request is collected on a thread of its own.
    fn submit(&self, line: String, ident: Ident, done: Done) {
        if self.dead.load(Ordering::SeqCst) {
            return done(Err(format!("{}: connection refused (killed)", self.name)));
        }
        let ident = (!ident.cid.is_empty()).then_some(ident);
        match self.server.submit_frame(&line, ident, "") {
            WireSubmission::Done(resp) => done(Ok(resp)),
            WireSubmission::Pending(resp) => {
                std::thread::spawn(move || done(Ok(resp())));
            }
        }
    }
}

/// A remote shard over TCP, with deterministic reconnect backoff, a read
/// deadline on every request, and exactly-once retries for requests with
/// an identity.
///
/// Retry safety: a connection failure *after the write completed* is
/// indistinguishable from a failure before the server executed — so a
/// blind re-send could double-execute. A request with an identity is
/// retried with the **same** `(cid, rid)`: the server's idempotency
/// window replays the recorded response instead of executing again,
/// which is what makes the reconnect path safe.
///
/// With v2 on, every request pipelines over one shared connection (see
/// [`Pipe`]): no thread per request, and a burst flushed as one write. A
/// fault there moves each request still waiting onto private connections
/// ([`Link::fall_back`]). Without v2, requests take pooled line
/// connections in lockstep.
pub struct TcpBackend(Arc<Link>);

/// What a [`TcpBackend`] shares with the threads of its connections.
struct Link {
    name: String,
    addr: String,
    pool: Mutex<Vec<Conn>>,
    backoff: BackoffConfig,
    seed: u64,
    connect_attempts: u32,
    /// Read deadline per request — distinct from the serve-side idle
    /// reaper, so a black-holed shard surfaces as a timed-out call
    /// feeding the breaker instead of hanging a router worker.
    read_timeout: Option<Duration>,
    /// Fresh-connection attempts after a failed round trip (each re-sends
    /// the same identity; the dedup window makes that exactly-once).
    call_retries: u32,
    /// Speak binary protocol v2 (otherwise newline-delimited lines).
    proto2: bool,
    /// The shared pipelined v2 connection, replaced when it dies.
    pipe: Mutex<Option<Arc<Pipe>>>,
    /// The router's counters, once attached.
    counters: OnceLock<Arc<RouteCounters>>,
}

/// One pooled line connection: the buffered reader survives across
/// round trips (writes go through [`BufReader::get_mut`]) and `buf` is
/// the reusable frame buffer — no per-call `BufReader` or `Vec` churn.
struct Conn {
    r: BufReader<TcpStream>,
    buf: Vec<u8>,
}

impl TcpBackend {
    /// A backend reaching `addr`, retrying failed connects
    /// `connect_attempts` times on the jittered schedule derived from
    /// `seed` and the backend name. Wire defaults: 10 s read deadline,
    /// one fresh-connection retry (tune with [`TcpBackend::with_wire`]).
    pub fn new(name: &str, addr: &str, seed: u64, connect_attempts: u32) -> TcpBackend {
        TcpBackend(Arc::new(Link {
            name: name.to_string(),
            addr: addr.to_string(),
            pool: Mutex::new(Vec::new()),
            backoff: BackoffConfig::default(),
            seed,
            connect_attempts: connect_attempts.max(1),
            read_timeout: Some(Duration::from_millis(10_000)),
            call_retries: 1,
            proto2: false,
            pipe: Mutex::new(None),
            counters: OnceLock::new(),
        }))
    }

    /// Overrides the per-round-trip read deadline (`None` = wait forever)
    /// and the number of fresh-connection retries per call.
    pub fn with_wire(mut self, read_timeout: Option<Duration>, call_retries: u32) -> TcpBackend {
        let link = self.settings();
        link.read_timeout = read_timeout;
        link.call_retries = call_retries.max(1);
        self
    }

    /// Opts this backend into binary protocol v2, and its requests into
    /// the shared pipelined connection. Every connection runs the hello
    /// handshake; a peer that answers it as a line server is a transport
    /// failure.
    pub fn with_proto2(mut self, on: bool) -> TcpBackend {
        self.settings().proto2 = on;
        self
    }

    /// The settings, which no connection shares before the first request.
    fn settings(&mut self) -> &mut Link {
        Arc::get_mut(&mut self.0).expect("a TcpBackend is configured before its first request")
    }

    /// One request line in, one response line out. An `@mcc1` line's
    /// identity is decoded here, at the client's edge: over v2 it travels
    /// in the frame header through [`request`], over lines the envelope
    /// is sent as is and its answer validated against it.
    pub fn call(&self, line: &str, _client: &str) -> Result<String, String> {
        let ident = match proto::unwrap_envelope(line) {
            Envelope::Enveloped { cid, rid, body } => Some((Ident { cid, rid }, body)),
            _ => None,
        };
        match (self.0.proto2, ident) {
            (false, ident) => self.0.call_v1(line, ident.as_ref().map(|(i, _)| i)),
            (true, Some((i, body))) => request(self, &body, Some(i)),
            (true, None) => request(self, line, None),
        }
    }
}

impl Link {
    /// Connects with capped-exponential backoff; the jitter is a pure
    /// function of `(seed, backend name, attempt)`, so a router fleet
    /// restarting together still spreads its reconnects.
    fn connect(&self) -> Result<TcpStream, String> {
        let mut last = String::new();
        for attempt in 1..=self.connect_attempts {
            if attempt > 1 {
                std::thread::sleep(backoff::delay(
                    &self.backoff,
                    self.seed,
                    &self.name,
                    attempt - 1,
                ));
            }
            match TcpStream::connect(&self.addr) {
                Ok(s) => {
                    s.set_nodelay(true).ok();
                    return Ok(s);
                }
                Err(e) => last = e.to_string(),
            }
        }
        Err(format!("{}: connect {} failed: {last}", self.name, self.addr))
    }

    /// One request/response round trip on an established line
    /// connection, with the read deadline applied and capped frame
    /// reads. For an enveloped request (`ident` set) the read loop
    /// validates the response: a frame with another identity, or none,
    /// is a stale duplicate from an earlier request on this pooled
    /// connection and is discarded; a corrupt envelope is a transport
    /// failure (never accepted — the retry, not the corruption, wins);
    /// the matching frame is unwrapped.
    fn round_trip(
        &self,
        conn: &mut Conn,
        frame: &str,
        ident: Option<&Ident>,
    ) -> Result<String, String> {
        conn.r
            .get_ref()
            .set_read_timeout(self.read_timeout)
            .map_err(|e| format!("set read timeout: {e}"))?;
        write_frame(conn.r.get_mut(), frame.as_bytes()).map_err(|e| format!("write: {e}"))?;
        // The reader persists across round trips: anything a previous
        // trip left buffered is a stale duplicate, and this trip's
        // discard loop skips it. A failed trip drops the whole
        // connection, so `buf` never carries a torn partial forward.
        loop {
            conn.buf.clear();
            match read_frame_buf(&mut conn.r, &mut conn.buf, MAX_FRAME_BYTES)
                .map_err(|e| format!("read: {e}"))?
            {
                FrameBufRead::Frame => {}
                FrameBufRead::Eof => return Err("connection closed mid-response".to_string()),
                FrameBufRead::TimedOut => return Err(self.timed_out()),
                FrameBufRead::Oversized => return Err("oversized response frame".to_string()),
            }
            let resp = String::from_utf8_lossy(&conn.buf);
            let Some(ident) = ident else {
                return Ok(resp.into_owned());
            };
            match proto::unwrap_envelope(&resp) {
                Envelope::Enveloped { cid, rid, body } if cid == ident.cid && rid == ident.rid => {
                    return Ok(format!("{body}\n"));
                }
                Envelope::Corrupt(reason) => {
                    return Err(format!("corrupt response frame: {reason}"));
                }
                // Stale duplicate delivery: discard, keep reading.
                _ => {}
            }
        }
    }

    /// The line call path: a pooled connection first, then up to
    /// `call_retries` fresh ones, each re-sending the same frame — same
    /// identity — so a failure after the server executed replays, not
    /// re-runs. A stale pooled connection (shard restarted, idle reaper
    /// closed it) falls through to a fresh connect, so one dead pooled
    /// socket never fails the request.
    fn call_v1(&self, frame: &str, ident: Option<&Ident>) -> Result<String, String> {
        let attempt = |mut c: Conn| {
            let resp = self.round_trip(&mut c, frame, ident)?;
            mcc_serve::buf::shrink_reusable(&mut c.buf);
            self.pool.lock().unwrap().push(c);
            Ok::<_, String>(resp)
        };
        let mut last = String::new();
        // The pop is bound outside the `if let` — an `if let` on the
        // lock result would hold the guard through the body
        // (edition-2021 scrutinee lifetime) and deadlock against the
        // push inside `attempt`.
        let pooled = self.pool.lock().unwrap().pop();
        if let Some(c) = pooled {
            match attempt(c) {
                Ok(resp) => return Ok(resp),
                Err(e) => last = e,
            }
        }
        for _ in 0..self.call_retries {
            match attempt(Conn { r: BufReader::new(self.connect()?), buf: Vec::new() }) {
                Ok(resp) => return Ok(resp),
                Err(e) => last = e,
            }
        }
        Err(format!("{}: {last}", self.name))
    }

    /// Why a request with no answer by its read deadline failed.
    fn timed_out(&self) -> String {
        format!(
            "read timed out after {:?} (black-holed or stalled peer)",
            self.read_timeout.unwrap_or_default()
        )
    }

    /// The live shared connection, or a new one whose thread dials once,
    /// then runs it. Every request left on it when it ends falls back.
    fn pipe(self: &Arc<Self>) -> Arc<Pipe> {
        let mut slot = self.pipe.lock().expect(POISONED);
        if let Some(p) = slot.as_ref().filter(|p| !p.dead.load(Ordering::SeqCst)) {
            return Arc::clone(p);
        }
        let p = Arc::new(Pipe::default());
        *slot = Some(Arc::clone(&p));
        let (pipe, link) = (Arc::clone(&p), Arc::clone(self));
        std::thread::spawn(move || {
            for w in pipe.run(&link, TcpStream::connect(&link.addr)).0 {
                link.fall_back(w);
            }
        });
        p
    }

    /// Moves a request stranded by a fault on the shared connection onto
    /// up to `call_retries` private ones, dialled through [`Link::connect`]
    /// and run by one thread. Each re-sends the same identity, so the
    /// dedup window keeps it exactly-once, and it never rejoins the shared
    /// connection, so another request's fault never spends its budget.
    fn fall_back(self: &Arc<Self>, mut w: Waiter) {
        if let Some(c) = self.counters() {
            c.bump(&c.pipe_fallbacks);
        }
        let link = Arc::clone(self);
        std::thread::spawn(move || {
            let mut last = String::new();
            for _ in 0..link.call_retries {
                let stream = match link.connect() {
                    Ok(s) => s,
                    Err(e) => return (w.done)(Err(e)),
                };
                w.deadline = link.read_timeout.map(|t| Instant::now() + t);
                let (mut left, cause) = Pipe::private(w).run(&link, Ok(stream));
                match left.pop() {
                    Some(back) => (w, last) = (back, cause),
                    None => return,
                }
            }
            (w.done)(Err(format!("{}: {last}", link.name)));
        });
    }

    /// Runs the v2 handshake on a dialled connection and readies its
    /// socket for a [`Pipe`]. Frames travel uncompressed: shards sit next
    /// to their router, where mlz would spend CPU on both ends to save
    /// loopback bytes.
    fn open(&self, stream: TcpStream) -> Result<(TcpStream, proto2::ClientReceiver), String> {
        let sock = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let want = proto2::Caps {
            compress: false,
            window: proto2::SERVER_WINDOW,
        };
        let proto2::Handshake::V2(c) = proto2::Client::handshake(stream, self.read_timeout, &want)?
        else {
            return Err("v2 hello answered by a line server".to_string());
        };
        sock.set_read_timeout(Some(PIPE_TICK))
            .and_then(|()| sock.set_write_timeout(self.read_timeout))
            .map_err(|e| format!("socket timeouts: {e}"))?;
        Ok((sock, c.split().1))
    }

    /// The attached counters, if any.
    fn counters(&self) -> Option<&RouteCounters> {
        self.counters.get().map(|c| &**c)
    }
}

/// One request on a connection, awaiting its response.
struct Waiter {
    /// The request body and its identity, kept for a retry on a private
    /// connection.
    line: String,
    ident: Ident,
    /// The read deadline, enforced by the connection's reader.
    deadline: Option<Instant>,
    done: Done,
}

/// Waiters by identity; a duplicate key queues behind the first.
#[derive(Default)]
struct Waiters {
    by_key: HashMap<Ident, VecDeque<Waiter>>,
    /// Takes no more waiters: torn down, or private from the start.
    closed: bool,
}

/// The write side: frames queued since the last write, and the socket
/// once the handshake is done (`None` while connecting).
#[derive(Default)]
struct PipeOut {
    sock: Option<TcpStream>,
    buf: Vec<u8>,
    /// Forwarded requests among the queued frames.
    frames: u64,
}

/// How often a connection's reader wakes, with nothing to read, to
/// check its waiters' deadlines.
const PIPE_TICK: Duration = Duration::from_millis(10);

/// Why a shared-connection lock can fail: a thread panicked holding it.
const POISONED: &str = "a thread panicked holding a shared-connection lock";

/// One pipelined v2 connection to a shard: the shared one, or a private
/// one for a single stranded request. Submitters register a waiter and
/// queue the frame; [`Pipe::flush`] writes everything queued in one
/// write. One thread handshakes, then reads ([`Pipe::run`]): it hands
/// each response to its waiter by identity, enforces every waiter's
/// deadline, and tears the connection down on any fault — reset, EOF,
/// corrupt frame, error frame, a failed write, or an overdue waiter.
#[derive(Default)]
pub(crate) struct Pipe {
    waiters: Mutex<Waiters>,
    out: Mutex<PipeOut>,
    dead: AtomicBool,
}

impl Pipe {
    /// A private connection's pipe: `w` queued, then closed to others.
    fn private(w: Waiter) -> Pipe {
        let pipe = Pipe::default();
        let Ok(()) = pipe.enqueue(w) else {
            unreachable!("a new pipe takes waiters")
        };
        pipe.waiters.lock().expect(POISONED).closed = true;
        pipe
    }

    /// Registers `w` and queues its frame, or hands `w` back if the
    /// connection is already torn down. The frame is queued under the
    /// waiter lock, so the reader cannot see its answer before `w` is
    /// registered.
    fn enqueue(&self, w: Waiter) -> Result<(), Waiter> {
        let mut ws = self.waiters.lock().expect(POISONED);
        if ws.closed {
            return Err(w);
        }
        let mut out = self.out.lock().expect(POISONED);
        let Ident { cid, rid } = &w.ident;
        proto2::encode_frame(&mut out.buf, FrameType::Request, cid, *rid, &w.line, None);
        // Only forwards count: probes and fan-outs go anonymous.
        out.frames += u64::from(!cid.is_empty());
        drop(out);
        ws.by_key.entry(w.ident.clone()).or_default().push_back(w);
        Ok(())
    }

    /// Writes every queued frame in one write (a no-op while the
    /// handshake is still running: the reader flushes after it). A
    /// failed write closes the connection, and the reader tears it down.
    fn flush(&self, counters: Option<&RouteCounters>) {
        let mut out = self.out.lock().expect(POISONED);
        let PipeOut {
            sock: Some(sock),
            buf,
            frames,
        } = &mut *out
        else {
            return;
        };
        if buf.is_empty() {
            return;
        }
        let ok = write_frame(sock, buf).is_ok();
        if let Some(c) = counters.filter(|_| ok && *frames > 0) {
            c.pipe_frames.fetch_add(*frames, Ordering::Relaxed);
            c.pipe_writes.fetch_add(1, Ordering::Relaxed);
        }
        mcc_serve::buf::shrink_reusable(buf);
        *frames = 0;
        drop(out);
        if !ok {
            self.close();
        }
    }

    /// Stops taking waiters, closes the connection and returns every
    /// waiter still on it.
    fn tear_down(&self) -> Vec<Waiter> {
        let stranded = {
            let mut ws = self.waiters.lock().expect(POISONED);
            ws.closed = true;
            ws.by_key.drain().flat_map(|(_, q)| q).collect()
        };
        self.close();
        stranded
    }

    /// Marks the connection dead and shuts its socket, which wakes the
    /// reader into [`Pipe::tear_down`]. Never panics, so `Drop` can call it.
    fn close(&self) {
        self.dead.store(true, Ordering::SeqCst);
        if let Ok(out) = self.out.lock() {
            if let Some(s) = &out.sock {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// Hands one response to the oldest waiter on its key; a response
    /// with no waiter is a stale duplicate and is dropped. Returns whether
    /// a connection closed to new waiters, as a private one is, is done.
    fn answer(&self, cid: String, rid: u64, mut body: String) -> bool {
        let (w, over) = {
            let mut ws = self.waiters.lock().expect(POISONED);
            let key = Ident { cid, rid };
            let w = ws.by_key.get_mut(&key).and_then(VecDeque::pop_front);
            if ws.by_key.get(&key).is_some_and(VecDeque::is_empty) {
                ws.by_key.remove(&key);
            }
            (w, ws.closed && ws.by_key.is_empty())
        };
        if let Some(w) = w {
            body.push('\n');
            (w.done)(Ok(body));
        }
        over
    }

    /// Whether any waiter is past its read deadline.
    fn overdue(&self, now: Instant) -> bool {
        self.waiters
            .lock()
            .expect(POISONED)
            .by_key
            .values()
            .flatten()
            .any(|w| w.deadline.is_some_and(|d| now >= d))
    }

    /// The connection's thread once dialled: handshakes, flushes what
    /// queued meanwhile, then reads until a fault — or, on a private
    /// connection, until its one request is answered — and tears down.
    /// Returns the waiters left on it and why it ended.
    fn run(&self, link: &Link, dialled: std::io::Result<TcpStream>) -> (Vec<Waiter>, String) {
        let opened = dialled.map_err(|e| e.to_string()).and_then(|s| link.open(s));
        let (sock, mut rx) = match opened {
            Ok(opened) => opened,
            Err(e) => return (self.tear_down(), e),
        };
        self.out.lock().expect(POISONED).sock = Some(sock);
        // A close during the handshake had no socket to shut.
        if self.dead.load(Ordering::SeqCst) {
            return (self.tear_down(), "closed during the handshake".to_string());
        }
        self.flush(link.counters());
        let mut next_check = Instant::now() + PIPE_TICK;
        let cause = loop {
            match rx.recv_ready() {
                Ok(Some(f)) => match f.ftype {
                    FrameType::Response => {
                        if self.answer(f.cid, f.rid, f.body) {
                            break String::new();
                        }
                    }
                    FrameType::HelloAck => {}
                    other => break format!("{other:?} frame from the shard: {}", f.body),
                },
                Ok(None) => {}
                Err(e) => break e,
            }
            let now = Instant::now();
            if now >= next_check {
                next_check = now + PIPE_TICK;
                if self.overdue(now) {
                    break link.timed_out();
                }
            }
        };
        (self.tear_down(), cause)
    }
}

impl Drop for TcpBackend {
    /// Closes the shared connection: its reader holds only the [`Link`],
    /// so dropping the backend is what closes an idle connection.
    fn drop(&mut self) {
        if let Some(p) = self.0.pipe.lock().ok().and_then(|mut slot| slot.take()) {
            p.close();
        }
    }
}

impl Backend for TcpBackend {
    fn name(&self) -> &str {
        &self.0.name
    }

    fn submit(&self, line: String, ident: Ident, done: Done) {
        let link = &self.0;
        if !link.proto2 {
            // Lines carry an identity in an `@mcc1` envelope, and none
            // bare; a lockstep call blocks, so it gets a thread.
            let link = Arc::clone(link);
            std::thread::spawn(move || {
                let id = Some(&ident).filter(|i| !i.cid.is_empty());
                let frame = id.map_or(format!("{line}\n"), |i| {
                    proto::wrap_envelope(&i.cid, i.rid, &line)
                });
                done(link.call_v1(&frame, id));
            });
            return;
        }
        let w = Waiter {
            line,
            ident,
            deadline: link.read_timeout.map(|t| Instant::now() + t),
            done,
        };
        if let Err(w) = link.pipe().enqueue(w) {
            link.fall_back(w);
        }
    }

    fn flush(&self) {
        let pipe = self.0.pipe.lock().expect(POISONED).clone();
        if let Some(p) = pipe {
            p.flush(self.0.counters());
        }
    }

    fn attach(&self, counters: &Arc<RouteCounters>) {
        let _ = self.0.counters.set(Arc::clone(counters));
    }
}

/// A line terminated by `\n`, with `"backend":"<name>"` spliced in
/// before the closing brace — how the router marks which shard served a
/// response, so tests and the bench can audit placement end to end.
pub fn tag_backend(line: &str, name: &str) -> String {
    let t = line.trim_end();
    if let Some(body) = t.strip_suffix('}') {
        format!("{body},\"backend\":\"{}\"}}\n", mcc_harness::json::esc(name))
    } else {
        // Not an object (shouldn't happen) — pass through untagged.
        format!("{t}\n")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use mcc_serve::{proto::Response, ServeConfig};

    /// Undoes [`InProcBackend::kill`]: the shard restarted.
    pub(crate) fn revive(b: &InProcBackend) {
        b.dead.store(false, Ordering::SeqCst);
    }

    #[test]
    fn inproc_serves_then_kill_fails_then_revive_serves() {
        let b = InProcBackend::new("b0", Arc::new(Server::start(ServeConfig::default())));
        let ping = |b: &InProcBackend| request(b, "{\"op\":\"ping\"}\n", None);
        let pong = ping(&b).expect("live backend answers");
        assert_eq!(Response::field_num(&pong, "code"), Some(200));
        b.kill();
        assert!(ping(&b).is_err(), "killed = transport error");
        revive(&b);
        assert!(ping(&b).is_ok());
    }

    #[test]
    fn tag_backend_splices_the_shard_name() {
        let tagged = tag_backend("{\"id\":\"r1\",\"code\":200}\n", "b2");
        assert_eq!(tagged, "{\"id\":\"r1\",\"code\":200,\"backend\":\"b2\"}\n");
        assert_eq!(Response::field_str(&tagged, "backend").as_deref(), Some("b2"));
    }

    #[test]
    fn tcp_backend_reuses_its_pooled_connection_across_calls() {
        let server = Arc::new(Server::start(ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (server, stop) = (server.clone(), stop.clone());
            std::thread::spawn(move || mcc_serve::tcp::serve_lines(server, listener, stop))
        };
        let b = TcpBackend::new("b0", &addr, 1, 2);
        // Sequential calls after the first must reuse the pooled
        // connection; this once deadlocked because the pool guard lived
        // through the `if let` body.
        for i in 0..3 {
            let resp = b.call("{\"op\":\"ping\"}\n", "t").expect("pooled call answers");
            assert_eq!(Response::field_num(&resp, "code"), Some(200), "call {i}");
        }
        assert_eq!(b.0.pool.lock().unwrap().len(), 1, "one connection, reused");
        stop.store(true, Ordering::SeqCst);
        handle.join().ok();
    }

    #[test]
    fn black_holed_backend_times_out_instead_of_hanging() {
        // A listener that accepts and never answers.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let hold = std::thread::spawn(move || {
            let mut socks = Vec::new();
            // Keep sockets open (no reply, no close) until the test ends.
            listener
                .set_nonblocking(false)
                .expect("blocking accept for the hold thread");
            for _ in 0..4 {
                match listener.accept() {
                    Ok((s, _)) => socks.push(s),
                    Err(_) => break,
                }
            }
        });
        let b = TcpBackend::new("bh", &addr, 1, 1)
            .with_wire(Some(Duration::from_millis(80)), 1);
        let start = std::time::Instant::now();
        let err = b.call("{\"op\":\"ping\"}\n", "t").unwrap_err();
        assert!(err.contains("timed out"), "deadline surfaced: {err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "bounded wait, not a hung router worker"
        );
        drop(hold);
    }

    #[test]
    fn enveloped_call_round_trips_and_replays_on_same_rid() {
        let server = Arc::new(Server::start(ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (server, stop) = (server.clone(), stop.clone());
            std::thread::spawn(move || mcc_serve::tcp::serve_lines(server, listener, stop))
        };
        let b = TcpBackend::new("b0", &addr, 1, 2);
        let frame = mcc_serve::proto::wrap_envelope("router-x", 11, "{\"op\":\"ping\"}");
        let resp = b.call(&frame, "t").expect("enveloped ping answers");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert!(!resp.starts_with("@mcc1"), "backend returns the bare body");
        // Same rid again: served from the dedup window, still a bare 200.
        let resp2 = b.call(&frame, "t").expect("replay answers");
        assert_eq!(Response::field_num(&resp2, "code"), Some(200));
        stop.store(true, Ordering::SeqCst);
        handle.join().ok();
    }

    #[test]
    fn proto2_backend_round_trips_and_pools_the_negotiated_connection() {
        let server = Arc::new(Server::start(ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (server, stop) = (server.clone(), stop.clone());
            std::thread::spawn(move || mcc_serve::tcp::serve_lines(server, listener, stop))
        };
        let b = TcpBackend::new("v2b", &addr, 1, 2).with_proto2(true);
        // Enveloped and bare calls both ride v2, and the same rid
        // replays from the shard's dedup window.
        let frame = mcc_serve::proto::wrap_envelope("router-x", 5, "{\"op\":\"ping\"}");
        let resp = b.call(&frame, "t").expect("v2 enveloped ping answers");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert!(!resp.starts_with("@mcc1"), "backend returns the bare body");
        let resp2 = b.call(&frame, "t").expect("v2 replay answers");
        assert_eq!(resp, resp2, "replayed response is byte-identical");
        let bare = b.call("{\"op\":\"ping\"}\n", "t").expect("bare over v2");
        assert_eq!(Response::field_num(&bare, "code"), Some(200));
        assert_eq!(
            server.counters().v2_connections.load(Ordering::Relaxed),
            1,
            "one shared connection, reused"
        );
        stop.store(true, Ordering::SeqCst);
        handle.join().ok();
    }

    #[test]
    fn a_v2_hello_answered_by_a_line_server_is_a_transport_failure() {
        use std::io::{BufRead, BufReader as StdBufReader, Write};
        // A v1-only line server: any non-JSON line (like the binary
        // hello) gets the classic bare 400.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            while let Ok((s, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut r = StdBufReader::new(s.try_clone().unwrap());
                    let mut w = s;
                    let mut raw = Vec::new();
                    // Like the real v1 loop: lossy-decode, so the binary
                    // hello surfaces as a 400, not a UTF-8 read error.
                    while r.read_until(b'\n', &mut raw).map(|n| n > 0).unwrap_or(false) {
                        let line = String::from_utf8_lossy(&raw);
                        let resp = if line.trim_start().starts_with('{') {
                            "{\"id\":\"\",\"code\":200,\"pong\":1}\n".to_string()
                        } else {
                            "{\"id\":\"\",\"code\":400,\"error\":\"malformed frame: not a flat JSON object\"}\n".to_string()
                        };
                        if w.write_all(resp.as_bytes()).is_err() {
                            break;
                        }
                        raw.clear();
                    }
                });
            }
        });
        // Every peer is built from this workspace, so there is no v1
        // fallback to redial: the call fails, naming the cause.
        let b = TcpBackend::new("line", &addr, 1, 2).with_proto2(true);
        for _ in 0..2 {
            let err = b.call("{\"op\":\"ping\"}\n", "t").unwrap_err();
            assert!(err.contains("line server"), "{err}");
        }
    }

    #[test]
    fn tcp_backend_reports_connect_failure_with_the_backend_name() {
        // A port nothing listens on: bind-then-drop reserves one.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        for b in [
            TcpBackend::new("b7", &addr, 1, 2),
            TcpBackend::new("b7", &addr, 1, 2).with_proto2(true),
        ] {
            let err = b.call("{\"op\":\"ping\"}\n", "t").unwrap_err();
            assert!(err.contains("b7"), "error names the shard: {err}");
        }
    }

    /// A v2 shard that answers every request at once, except requests
    /// whose body says `hold`, which it never answers.
    fn selective_v2_shard(stream: TcpStream) {
        use std::io::{Read, Write};
        let mut w = stream.try_clone().unwrap();
        let mut r = stream;
        let (mut acc, mut chunk) = (Vec::new(), [0u8; 4096]);
        while let Ok(n @ 1..) = r.read(&mut chunk) {
            acc.extend_from_slice(&chunk[..n]);
            loop {
                let skip = acc.iter().take_while(|b| **b == b'\n').count();
                acc.drain(..skip);
                let Ok((f, used)) = proto2::decode_frame(&acc) else {
                    break;
                };
                acc.drain(..used);
                let mut out = Vec::new();
                match f.ftype {
                    FrameType::Hello => {
                        let caps = proto2::negotiate(&proto2::parse_hello(&f.body).unwrap());
                        let ack = proto2::hello_body(&caps);
                        proto2::encode_frame(&mut out, FrameType::HelloAck, "", 0, &ack, None);
                    }
                    FrameType::Request if !f.body.contains("hold") => {
                        let body = "{\"id\":\"\",\"code\":200}";
                        proto2::encode_frame(
                            &mut out,
                            FrameType::Response,
                            &f.cid,
                            f.rid,
                            body,
                            None,
                        );
                    }
                    _ => {}
                }
                if w.write_all(&out).is_err() {
                    return;
                }
            }
        }
    }

    #[test]
    fn a_silent_request_times_out_while_others_keep_answering() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for s in listener.incoming().map_while(Result::ok) {
                std::thread::spawn(move || selective_v2_shard(s));
            }
        });
        let deadline = Duration::from_millis(150);
        let b = Arc::new(
            TcpBackend::new("b", &addr, 1, 1)
                .with_wire(Some(deadline), 1)
                .with_proto2(true),
        );
        let submit = |rid: u64, body: &str| {
            let (tx, rx) = std::sync::mpsc::channel();
            let ident = Ident { cid: "c".to_string(), rid };
            Arc::clone(&b).submit(body.to_string(), ident, Box::new(move |r| drop(tx.send(r))));
            b.flush();
            rx
        };
        let held = submit(0, "{\"op\":\"ping\",\"id\":\"hold\"}");
        // The shared connection keeps answering other requests well past
        // the held one's deadline...
        let start = Instant::now();
        let mut answered = 0;
        while start.elapsed() < deadline * 3 {
            answered += 1;
            let rx = submit(answered, "{\"op\":\"ping\"}");
            let r = rx.recv_timeout(Duration::from_secs(5)).expect("answered");
            assert!(r.is_ok(), "{r:?}");
        }
        assert!(answered > 3, "traffic kept flowing: {answered}");
        // ...yet the held request is bounded by its own deadline: the
        // connection is torn down and its private retry times out too.
        let r = held
            .recv_timeout(Duration::from_secs(5))
            .expect("the held request resolves");
        assert!(r.unwrap_err().contains("timed out"));
    }

    #[test]
    fn a_request_reset_on_two_connections_falls_back_once() {
        use mcc_chaosnet::{ChaosProxy, Fault, FaultPlan};
        let server = Arc::new(Server::start(ServeConfig::default()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (server, stop) = (server.clone(), stop.clone());
            std::thread::spawn(move || mcc_serve::tcp::serve_lines(server, listener, stop))
        };
        // Every connection opens with its hello: frame 1 is the ping on the
        // shared connection, frame 3 the ping on the first private one.
        let mut proxy = ChaosProxy::start_with(
            std::net::TcpListener::bind("127.0.0.1:0").unwrap(),
            &addr,
            Box::new(|n| (n == 1 || n == 3).then_some(Fault::ResetPostWrite)),
            0,
            FaultPlan::default(),
        )
        .unwrap();
        let b = TcpBackend::new("b0", proxy.addr(), 1, 2)
            .with_wire(Some(Duration::from_secs(2)), 2)
            .with_proto2(true);
        let counters = Arc::new(RouteCounters::default());
        b.attach(&counters);
        let pong = request(&b, "{\"op\":\"ping\"}", None).expect("the second retry answers");
        assert_eq!(Response::field_num(&pong, "code"), Some(200), "{pong}");
        assert_eq!(counters.pipe_fallbacks.load(Ordering::Relaxed), 1, "stranded once");
        assert_eq!(counters.pipe_frames.load(Ordering::Relaxed), 0, "an anonymous ping");
        let resets = proxy.injected().into_iter().find(|&(kind, _)| kind == "reset-post-write");
        assert_eq!(resets, Some(("reset-post-write", 2)), "both resets landed");
        proxy.stop();
        stop.store(true, Ordering::SeqCst);
        handle.join().ok();
    }
}
