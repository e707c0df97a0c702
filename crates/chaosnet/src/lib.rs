//! Deterministic TCP fault-injection proxy for the mcc wire path.
//!
//! The proxy sits between a line-protocol client and its upstream (client↔router
//! or router↔shard) and injects network faults on a schedule that is a **pure
//! function of the seed**: the n-th request frame through the proxy either
//! passes clean or suffers exactly one fault, decided by `fault_for(seed, plan, n)`
//! with no dependence on wall-clock time, thread interleaving, or OS buffering.
//!
//! The fault menu covers every failure class the wire hardening must survive:
//! resets before/during/after the request write, torn and corrupted reply
//! frames, latency spikes, full stalls, slow-loris trickle delivery, duplicated
//! delivery, and black-holes (reply read and discarded). Faults apply per
//! *request frame*, not per connection, so a pooled connection that carries
//! many frames sees the same schedule a reconnect-per-frame client would.
//!
//! The proxy speaks both wire dialects. It sniffs the first client byte: the
//! protocol-v2 magic selects a length-prefixed binary relay (one unit = any
//! bait newlines plus one whole frame, found via `proto2::next_frame`), anything
//! else selects the newline relay. The same seeded schedule drives both, so
//! every fault kind lands on binary frames too — `ResetMidFrame` tears the
//! length prefix, `CorruptByte`/`CorruptMulti` may hit the varints or the
//! checksum, and `Truncate` cuts a compressed payload short.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use mcc_harness::splitmix64;
use mcc_serve::proto::MAX_FRAME_BYTES;
use mcc_serve::proto2;
use mcc_serve::tcp::{read_frame_buf, wait_for_connection, write_frame, FrameBufRead};

/// Every fault kind the proxy can inject. The scheduler guarantees each kind
/// appears exactly once per cycle of `KIND_COUNT` faulted frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Close both directions before forwarding any request bytes upstream.
    ResetPreWrite,
    /// Forward roughly half the request frame, then close. Upstream sees a torn frame.
    ResetMidFrame,
    /// Forward the whole request, read the upstream reply (the server has
    /// executed), then close without relaying. The retry-after-execute case.
    ResetPostWrite,
    /// Relay only the first half of the reply, then close: a truncated frame.
    Truncate,
    /// Flip one byte of the reply at a seeded position before relaying.
    CorruptByte,
    /// Flip several bytes of the reply at seeded positions before relaying.
    CorruptMulti,
    /// Delay the reply by `plan.delay` before relaying it intact.
    Delay,
    /// Hold the reply for `plan.stall` (longer than any sane read deadline),
    /// then deliver it late on the same connection.
    Stall,
    /// Relay the reply one byte at a time with a pause between bytes.
    Trickle,
    /// Forward the request twice; relay both replies. Duplicate delivery.
    Duplicate,
    /// Read the reply, hold for `plan.hold`, then close without relaying.
    BlackHole,
}

/// Number of distinct fault kinds; one full cycle injects each exactly once.
pub const KIND_COUNT: u64 = 11;

const KINDS: [Fault; KIND_COUNT as usize] = [
    Fault::ResetPreWrite,
    Fault::ResetMidFrame,
    Fault::ResetPostWrite,
    Fault::Truncate,
    Fault::CorruptByte,
    Fault::CorruptMulti,
    Fault::Delay,
    Fault::Stall,
    Fault::Trickle,
    Fault::Duplicate,
    Fault::BlackHole,
];

impl Fault {
    /// Stable lowercase name used in schedules, stats, and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Fault::ResetPreWrite => "reset-pre-write",
            Fault::ResetMidFrame => "reset-mid-frame",
            Fault::ResetPostWrite => "reset-post-write",
            Fault::Truncate => "truncate",
            Fault::CorruptByte => "corrupt-byte",
            Fault::CorruptMulti => "corrupt-multi",
            Fault::Delay => "delay",
            Fault::Stall => "stall",
            Fault::Trickle => "trickle",
            Fault::Duplicate => "duplicate",
            Fault::BlackHole => "black-hole",
        }
    }

    fn index(&self) -> usize {
        KINDS.iter().position(|k| k == self).unwrap()
    }
}

/// Tunable shape of the fault schedule. `warm` leading frames always pass
/// clean (so connection setup and version negotiation happen on a quiet wire),
/// then every `stride`-th frame is faulted.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Number of leading frames that are never faulted.
    pub warm: u64,
    /// After the warm window, frame n is faulted iff (n - warm) % stride == 0.
    pub stride: u64,
    /// Added latency for `Fault::Delay`.
    pub delay: Duration,
    /// Hold time for `Fault::Stall` — pick it longer than the client read deadline.
    pub stall: Duration,
    /// Hold time for `Fault::BlackHole` before the connection is dropped.
    pub hold: Duration,
    /// Pause between bytes for `Fault::Trickle`.
    pub trickle_pause: Duration,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            warm: 8,
            stride: 3,
            delay: Duration::from_millis(40),
            stall: Duration::from_millis(600),
            hold: Duration::from_millis(600),
            trickle_pause: Duration::from_millis(2),
        }
    }
}

/// Seeded permutation of the fault kinds for one cycle. Fisher–Yates driven by
/// splitmix64 so the order varies with the seed and cycle index but is fully
/// reproducible.
fn kind_permutation(seed: u64, cycle: u64) -> [Fault; KIND_COUNT as usize] {
    let mut kinds = KINDS;
    let mut s = splitmix64(seed ^ cycle.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let n = kinds.len();
    for i in (1..n).rev() {
        s = splitmix64(s);
        let j = (s % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    kinds
}

/// The fault (if any) injected on the n-th request frame (0-based) through a
/// proxy with this seed and plan. Pure function: same (seed, plan, n) → same
/// answer on every run, machine, and thread.
pub fn fault_for(seed: u64, plan: &FaultPlan, n: u64) -> Option<Fault> {
    if n < plan.warm {
        return None;
    }
    let k = n - plan.warm;
    if plan.stride == 0 || !k.is_multiple_of(plan.stride) {
        return None;
    }
    let slot = k / plan.stride;
    let cycle = slot / KIND_COUNT;
    let perm = kind_permutation(seed, cycle);
    Some(perm[(slot % KIND_COUNT) as usize])
}

/// Render the first full fault cycle of the schedule as stable text — printed
/// by benches so stdout is a pure function of the seed.
pub fn schedule_text(name: &str, seed: u64, plan: &FaultPlan) -> String {
    let mut out = format!(
        "chaos schedule {name}: seed={seed} warm={} stride={} cycle={}\n",
        plan.warm, plan.stride, KIND_COUNT
    );
    let perm = kind_permutation(seed, 0);
    for (i, kind) in perm.iter().enumerate() {
        let frame = plan.warm + (i as u64) * plan.stride;
        out.push_str(&format!("chaos schedule {name}:   frame {frame} -> {}\n", kind.name()));
    }
    out
}

type Schedule = Box<dyn Fn(u64) -> Option<Fault> + Send + Sync>;

struct Shared {
    upstream: String,
    plan: FaultPlan,
    schedule: Schedule,
    seed: u64,
    frames: AtomicU64,
    injected: [AtomicU64; KIND_COUNT as usize],
    stop: AtomicBool,
}

/// A running chaos proxy. Accepts connections on a local listener and relays
/// newline-delimited frames to `upstream`, injecting scheduled faults.
pub struct ChaosProxy {
    addr: String,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

const ACCEPT_TICK: Duration = Duration::from_millis(25);

impl ChaosProxy {
    /// Start with the standard seeded schedule.
    pub fn start(listener: TcpListener, upstream: &str, seed: u64, plan: FaultPlan) -> std::io::Result<ChaosProxy> {
        let p = plan;
        Self::start_with(listener, upstream, Box::new(move |n| fault_for(seed, &p, n)), seed, plan)
    }

    /// Start with an arbitrary schedule closure — used by tests that need one
    /// specific fault on one specific frame.
    pub fn start_with(
        listener: TcpListener,
        upstream: &str,
        schedule: Schedule,
        seed: u64,
        plan: FaultPlan,
    ) -> std::io::Result<ChaosProxy> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        let shared = Arc::new(Shared {
            upstream: upstream.to_string(),
            plan,
            schedule,
            seed,
            frames: AtomicU64::new(0),
            injected: Default::default(),
            stop: AtomicBool::new(false),
        });
        let sh = Arc::clone(&shared);
        let accept = thread::spawn(move || {
            let mut conns: Vec<JoinHandle<()>> = Vec::new();
            while !sh.stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let csh = Arc::clone(&sh);
                        conns.push(thread::spawn(move || relay_connection(stream, csh)));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        wait_for_connection(&listener, ACCEPT_TICK);
                    }
                    Err(_) => thread::sleep(ACCEPT_TICK),
                }
                conns.retain(|h| !h.is_finished());
            }
            for h in conns {
                let _ = h.join();
            }
        });
        Ok(ChaosProxy { addr, shared, accept: Some(accept) })
    }

    /// Address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Total request frames seen so far.
    pub fn frames(&self) -> u64 {
        self.shared.frames.load(Ordering::Relaxed)
    }

    /// Injection counts per fault kind, as (name, count) pairs.
    pub fn injected(&self) -> Vec<(&'static str, u64)> {
        KINDS
            .iter()
            .map(|k| (k.name(), self.shared.injected[k.index()].load(Ordering::Relaxed)))
            .collect()
    }

    /// Seed this proxy was started with.
    pub fn seed(&self) -> u64 {
        self.shared.seed
    }

    /// Stop accepting and wait for the accept loop (in-flight relays are joined).
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Which framing discipline a relayed connection speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wire {
    /// Newline-delimited text frames (bare JSON or `@mcc1` envelopes).
    V1,
    /// Protocol-v2 length-prefixed binary frames.
    V2,
}

/// One upstream connection plus the byte accumulator that survives across
/// reply reads — a single `fill_buf` may deliver bytes of the *next* reply
/// (e.g. both replies to a duplicated request), and those must not be lost.
struct Up {
    w: TcpStream,
    r: BufReader<TcpStream>,
    acc: Vec<u8>,
}

/// Relay one downstream connection. The first client byte picks the wire
/// dialect; each request unit read from the client is assigned the next global
/// frame number, the schedule decides its fault, and the relay performs the
/// fault's exact semantics. A connection-fatal fault (reset/truncate/
/// black-hole) ends this relay; the client reconnects and later frames
/// continue the global schedule.
fn relay_connection(client: TcpStream, sh: Arc<Shared>) {
    let _ = client.set_nodelay(true);
    let _ = client.set_read_timeout(Some(Duration::from_millis(250)));
    let mut client_w = match client.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut client_r = BufReader::new(client);

    // Sniff the first byte without consuming it: the v2 magic never starts a
    // JSON or `@mcc1` line, so one byte decides the dialect for good.
    let wire = loop {
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        match client_r.fill_buf() {
            Ok([]) => return,
            Ok(chunk) => {
                break if chunk[0] == proto2::MAGIC[0] { Wire::V2 } else { Wire::V1 };
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                continue;
            }
            Err(_) => return,
        }
    };

    // Partial request bytes survive the short stop-flag polling timeout.
    let mut partial = Vec::new();
    let mut up: Option<Up> = None;

    loop {
        if sh.stop.load(Ordering::Relaxed) {
            return;
        }
        let unit: Vec<u8> = match wire {
            Wire::V1 => match read_frame_buf(&mut client_r, &mut partial, MAX_FRAME_BYTES) {
                Ok(FrameBufRead::Frame) => std::mem::take(&mut partial),
                Ok(FrameBufRead::TimedOut) => continue,
                Ok(FrameBufRead::Eof) | Ok(FrameBufRead::Oversized) | Err(_) => return,
            },
            Wire::V2 => match read_unit_v2(&mut client_r, &mut partial, &sh.stop) {
                Some(u) => u,
                None => return,
            },
        };
        let n = sh.frames.fetch_add(1, Ordering::Relaxed);
        let fault = (sh.schedule)(n);
        if let Some(kind) = fault {
            sh.injected[kind.index()].fetch_add(1, Ordering::Relaxed);
        }

        // (Re)establish the upstream connection for this frame if needed.
        if up.is_none() {
            match TcpStream::connect(&sh.upstream) {
                Ok(s) => {
                    let _ = s.set_nodelay(true);
                    let r = match s.try_clone() {
                        Ok(c) => BufReader::new(c),
                        Err(_) => return,
                    };
                    up = Some(Up { w: s, r, acc: Vec::new() });
                }
                Err(_) => return,
            }
        }
        let u = up.as_mut().unwrap();

        let verdict = relay_unit(&unit, fault, &sh.plan, u, &mut client_w, sh.seed, n, wire);
        match verdict {
            RelayOutcome::Continue => {}
            RelayOutcome::CloseBoth => {
                if let Some(u) = up.take() {
                    let _ = u.w.shutdown(Shutdown::Both);
                }
                return;
            }
        }
    }
}

/// Read one v2 request unit from the client: any leading bait newlines (the
/// handshake probe a v2 client sends to smoke out v1 peers) plus one whole
/// length-prefixed frame. The newlines stay glued to their frame so the
/// upstream sees byte-for-byte what the client wrote.
fn read_unit_v2(
    r: &mut BufReader<TcpStream>,
    acc: &mut Vec<u8>,
    stop: &AtomicBool,
) -> Option<Vec<u8>> {
    loop {
        match proto2::next_frame(acc) {
            Ok((bait, Some(len))) => return Some(acc.drain(..bait + len).collect()),
            Ok(_) => {}
            Err(_) => return None,
        }
        if stop.load(Ordering::Relaxed) {
            return None;
        }
        match r.fill_buf() {
            Ok([]) => return None,
            Ok(chunk) => {
                let take = chunk.len();
                acc.extend_from_slice(chunk);
                r.consume(take);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return None,
        }
    }
}

enum RelayOutcome {
    /// Keep both connections; next frame reuses the upstream.
    Continue,
    /// Tear down the client connection (and upstream) now. The client's
    /// reconnect gets a fresh upstream connection from a fresh relay.
    CloseBoth,
}

/// Read one reply unit from upstream with a generous deadline — the proxy
/// itself must never black-hole by accident. On the v1 wire a unit is one
/// newline-terminated line; on the v2 wire it is one length-prefixed frame
/// (with a bare-line fallback so a v1-only upstream's downgrade answer still
/// relays to the probing client).
fn read_reply(wire: Wire, u: &mut Up) -> Option<Vec<u8>> {
    let deadline = Duration::from_secs(30);
    let _ = u.r.get_ref().set_read_timeout(Some(Duration::from_millis(100)));
    let start = std::time::Instant::now();
    if wire == Wire::V1 {
        let mut partial = Vec::new();
        loop {
            match read_frame_buf(&mut u.r, &mut partial, MAX_FRAME_BYTES) {
                Ok(FrameBufRead::Frame) => return Some(partial),
                Ok(FrameBufRead::TimedOut) => {
                    if start.elapsed() > deadline {
                        return None;
                    }
                }
                Ok(FrameBufRead::Eof) | Ok(FrameBufRead::Oversized) | Err(_) => return None,
            }
        }
    }
    // v2: accumulate into the connection's persistent buffer and drain exactly
    // one frame, so bytes of a second in-flight reply are kept for the next call.
    loop {
        if u.acc.first().is_some_and(|b| *b != proto2::MAGIC[0]) {
            if let Some(i) = u.acc.iter().position(|b| *b == b'\n') {
                // A v1-only upstream answered the binary hello with a bare line.
                return Some(u.acc.drain(..=i).collect());
            } else if u.acc.len() > MAX_FRAME_BYTES {
                return None;
            }
        } else {
            match proto2::next_frame(&u.acc) {
                Ok((bait, Some(len))) => return Some(u.acc.drain(..bait + len).collect()),
                Ok(_) => {}
                Err(_) => return None,
            }
        }
        if start.elapsed() > deadline {
            return None;
        }
        match u.r.fill_buf() {
            Ok([]) => return None,
            Ok(chunk) => {
                let take = chunk.len();
                u.acc.extend_from_slice(chunk);
                u.r.consume(take);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return None,
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn relay_unit(
    unit: &[u8],
    fault: Option<Fault>,
    plan: &FaultPlan,
    u: &mut Up,
    cw: &mut TcpStream,
    seed: u64,
    n: u64,
    wire: Wire,
) -> RelayOutcome {
    match fault {
        None => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    if write_frame(cw, &reply).is_err() {
                        return RelayOutcome::CloseBoth;
                    }
                    RelayOutcome::Continue
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::ResetPreWrite) => RelayOutcome::CloseBoth,
        Some(Fault::ResetMidFrame) => {
            // Half the unit, then a hard close: on the v2 wire the cut can
            // land inside the header — a torn length prefix.
            let half = unit.len() / 2;
            let _ = u.w.write_all(&unit[..half]);
            let _ = u.w.flush();
            let _ = u.w.shutdown(Shutdown::Both);
            RelayOutcome::CloseBoth
        }
        Some(Fault::ResetPostWrite) => {
            // Server executes; the reply dies with the connection.
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            let _ = read_reply(wire, u);
            RelayOutcome::CloseBoth
        }
        Some(Fault::Truncate) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            if let Some(reply) = read_reply(wire, u) {
                let half = reply.len() / 2;
                let _ = cw.write_all(&reply[..half]);
                let _ = cw.flush();
            }
            RelayOutcome::CloseBoth
        }
        Some(Fault::CorruptByte) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    let corrupted = corrupt(&reply, seed, n, 1, wire == Wire::V1);
                    if cw.write_all(&corrupted).is_err() || cw.flush().is_err() {
                        return RelayOutcome::CloseBoth;
                    }
                    RelayOutcome::Continue
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::CorruptMulti) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    let corrupted = corrupt(&reply, seed, n, 4, wire == Wire::V1);
                    if cw.write_all(&corrupted).is_err() || cw.flush().is_err() {
                        return RelayOutcome::CloseBoth;
                    }
                    RelayOutcome::Continue
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::Delay) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    thread::sleep(plan.delay);
                    if write_frame(cw, &reply).is_err() {
                        return RelayOutcome::CloseBoth;
                    }
                    RelayOutcome::Continue
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::Stall) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    // Longer than the client's read deadline: the client gives
                    // up and retries elsewhere; the late reply lands on a
                    // connection the client already abandoned.
                    thread::sleep(plan.stall);
                    let _ = write_frame(cw, &reply);
                    RelayOutcome::CloseBoth
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::Trickle) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            match read_reply(wire, u) {
                Some(reply) => {
                    for b in &reply {
                        if cw.write_all(std::slice::from_ref(b)).is_err() {
                            return RelayOutcome::CloseBoth;
                        }
                        let _ = cw.flush();
                        thread::sleep(plan.trickle_pause);
                    }
                    RelayOutcome::Continue
                }
                None => RelayOutcome::CloseBoth,
            }
        }
        Some(Fault::Duplicate) => {
            // Forward the request twice; relay both replies. With dedup on the
            // server the second execution must be a replay, and the client must
            // cope with a stale duplicate frame arriving after the real one.
            if write_frame(&mut u.w, unit).is_err() || write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            for _ in 0..2 {
                match read_reply(wire, u) {
                    Some(reply) => {
                        if write_frame(cw, &reply).is_err() {
                            return RelayOutcome::CloseBoth;
                        }
                    }
                    None => return RelayOutcome::CloseBoth,
                }
            }
            RelayOutcome::Continue
        }
        Some(Fault::BlackHole) => {
            if write_frame(&mut u.w, unit).is_err() {
                return RelayOutcome::CloseBoth;
            }
            let _ = read_reply(wire, u);
            thread::sleep(plan.hold);
            RelayOutcome::CloseBoth
        }
    }
}

/// Flip `count` bytes of the frame at seeded positions. With
/// `preserve_newline` (the v1 wire) the trailing newline is never touched and
/// no byte is flipped *to* a newline — framing survives, content is damaged.
/// On the v2 wire any byte is fair game: a flip in the varint lengths, the
/// magic, or the checksum is exactly the corruption the binary decoder must
/// refuse.
fn corrupt(frame: &[u8], seed: u64, n: u64, count: usize, preserve_newline: bool) -> Vec<u8> {
    let mut bytes = frame.to_vec();
    let body_len = if preserve_newline && bytes.ends_with(b"\n") {
        bytes.len() - 1
    } else {
        bytes.len()
    };
    if body_len == 0 {
        return bytes;
    }
    let mut s = splitmix64(seed ^ n.wrapping_mul(0x2545_f491_4f6c_dd1d));
    for _ in 0..count {
        s = splitmix64(s);
        let pos = (s % body_len as u64) as usize;
        let mut x = ((s >> 32) & 0xff) as u8;
        // xor must change the byte and (on v1) must not yield '\n'
        while x == 0 || (preserve_newline && bytes[pos] ^ x == b'\n') {
            x = x.wrapping_add(1);
        }
        bytes[pos] ^= x;
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_pure_and_covers_every_kind_each_cycle() {
        let plan = FaultPlan::default();
        for seed in [1u64, 42, 0xdead_beef] {
            // Pure: two evaluations agree.
            for n in 0..200 {
                assert_eq!(fault_for(seed, &plan, n), fault_for(seed, &plan, n));
            }
            // Warm window is clean.
            for n in 0..plan.warm {
                assert_eq!(fault_for(seed, &plan, n), None);
            }
            // One full cycle covers all kinds exactly once.
            let mut seen = Vec::new();
            let mut n = plan.warm;
            while seen.len() < KIND_COUNT as usize {
                if let Some(f) = fault_for(seed, &plan, n) {
                    seen.push(f);
                }
                n += 1;
            }
            for k in KINDS {
                assert_eq!(seen.iter().filter(|f| **f == k).count(), 1, "kind {k:?} seed {seed}");
            }
        }
    }

    #[test]
    fn schedule_text_is_stable_per_seed() {
        let plan = FaultPlan::default();
        let a = schedule_text("front", 7, &plan);
        let b = schedule_text("front", 7, &plan);
        assert_eq!(a, b);
        assert_ne!(a, schedule_text("front", 8, &plan));
        assert_eq!(a.lines().count(), 1 + KIND_COUNT as usize);
    }

    #[test]
    fn corrupt_changes_content_but_not_framing() {
        let frame = "{\"id\":\"x\",\"code\":200}\n";
        for n in 0..50u64 {
            let out = corrupt(frame.as_bytes(), 99, n, 1, true);
            assert_eq!(out.len(), frame.len());
            assert_eq!(out.last(), Some(&b'\n'));
            assert_eq!(out.iter().filter(|b| **b == b'\n').count(), 1);
            assert_ne!(&out[..], frame.as_bytes());
        }
    }

    #[test]
    fn corrupt_on_the_binary_wire_may_hit_any_byte_but_always_changes_one() {
        let mut frame = Vec::new();
        proto2::encode_frame(&mut frame, proto2::FrameType::Response, "cid", 7, "{\"code\":200}", None);
        for n in 0..50u64 {
            let out = corrupt(&frame, 99, n, 1, false);
            assert_eq!(out.len(), frame.len());
            assert_ne!(out, frame);
        }
    }

    /// A minimal v2 upstream: acks hellos, echoes request bodies, counts
    /// requests. No dedup — relay-level duplication is visible as two hits.
    fn spawn_v2_echo() -> (String, Arc<AtomicU64>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let requests = Arc::new(AtomicU64::new(0));
        let rq = Arc::clone(&requests);
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(s) = stream else { break };
                let rq = Arc::clone(&rq);
                thread::spawn(move || {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                    let mut w = s.try_clone().unwrap();
                    let mut r = BufReader::new(s);
                    let mut acc: Vec<u8> = Vec::new();
                    let mut out = Vec::new();
                    loop {
                        let nl = acc.iter().take_while(|b| **b == b'\n').count();
                        acc.drain(..nl);
                        if !acc.is_empty() {
                            match proto2::frame_len(&acc) {
                                Ok(Some(total)) if acc.len() >= total => {
                                    let fb: Vec<u8> = acc.drain(..total).collect();
                                    let Ok((f, _)) = proto2::decode_frame(&fb) else { return };
                                    out.clear();
                                    match f.ftype {
                                        proto2::FrameType::Hello => {
                                            let want = proto2::parse_hello(&f.body)
                                                .unwrap_or_else(proto2::Caps::off);
                                            let granted = proto2::negotiate(&want);
                                            proto2::encode_frame(
                                                &mut out,
                                                proto2::FrameType::HelloAck,
                                                "",
                                                0,
                                                &proto2::hello_body(&granted),
                                                None,
                                            );
                                        }
                                        proto2::FrameType::Request => {
                                            rq.fetch_add(1, Ordering::Relaxed);
                                            proto2::encode_frame(
                                                &mut out,
                                                proto2::FrameType::Response,
                                                &f.cid,
                                                f.rid,
                                                &f.body,
                                                None,
                                            );
                                        }
                                        _ => return,
                                    }
                                    if write_frame(&mut w, &out).is_err() {
                                        return;
                                    }
                                    continue;
                                }
                                Ok(_) => {}
                                Err(_) => return,
                            }
                        }
                        match r.fill_buf() {
                            Ok([]) => return,
                            Ok(chunk) => {
                                let take = chunk.len();
                                acc.extend_from_slice(chunk);
                                r.consume(take);
                            }
                            Err(_) => return,
                        }
                    }
                });
            }
        });
        (addr, requests)
    }

    fn v2_connect(addr: &str) -> proto2::Client {
        let s = TcpStream::connect(addr).unwrap();
        match proto2::Client::handshake(
            s,
            Some(Duration::from_secs(5)),
            &proto2::Caps { compress: true, window: 4 },
        )
        .unwrap()
        {
            proto2::Handshake::V2(c) => c,
            proto2::Handshake::V1Peer => panic!("upstream should speak v2"),
        }
    }

    #[test]
    fn v2_clean_relay_preserves_binary_frames_end_to_end() {
        let (up_addr, reqs) = spawn_v2_echo();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let plan = FaultPlan { warm: 100, ..FaultPlan::default() };
        let mut proxy = ChaosProxy::start(listener, &up_addr, 5, plan).unwrap();
        let mut c = v2_connect(proxy.addr());
        let body = c.call("t", 1, "{\"op\":\"ping\"}").unwrap();
        assert_eq!(body, "{\"op\":\"ping\"}\n");
        // Hello and request each took one schedule slot.
        assert_eq!(proxy.frames(), 2);
        assert_eq!(reqs.load(Ordering::Relaxed), 1);
        proxy.stop();
    }

    #[test]
    fn v2_corrupt_reply_is_refused_by_the_client() {
        let (up_addr, _reqs) = spawn_v2_echo();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Frame 0 is the hello, frame 1 the first request (clean), frame 2
        // the second request — its reply gets one flipped byte.
        let mut proxy = ChaosProxy::start_with(
            listener,
            &up_addr,
            Box::new(|n| (n == 2).then_some(Fault::CorruptByte)),
            7,
            FaultPlan::default(),
        )
        .unwrap();
        let mut c = v2_connect(proxy.addr());
        assert_eq!(c.call("t", 1, "{\"op\":\"ping\"}").unwrap(), "{\"op\":\"ping\"}\n");
        let err = c.call("t", 2, "{\"op\":\"ping\"}").unwrap_err();
        assert!(!err.is_empty(), "corrupted binary reply must surface an error");
        proxy.stop();
    }

    #[test]
    fn v2_duplicate_forwards_twice_and_the_stale_reply_is_skipped() {
        let (up_addr, reqs) = spawn_v2_echo();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut proxy = ChaosProxy::start_with(
            listener,
            &up_addr,
            Box::new(|n| (n == 1).then_some(Fault::Duplicate)),
            7,
            FaultPlan::default(),
        )
        .unwrap();
        let mut c = v2_connect(proxy.addr());
        // The duplicated request reaches the (dedup-free) echo twice; the
        // client reads its reply once and must skip the stale duplicate when
        // the next call comes around.
        assert_eq!(c.call("t", 1, "{\"op\":\"a\"}").unwrap(), "{\"op\":\"a\"}\n");
        assert_eq!(c.call("t", 2, "{\"op\":\"b\"}").unwrap(), "{\"op\":\"b\"}\n");
        assert_eq!(reqs.load(Ordering::Relaxed), 3, "request 1 relayed twice, request 2 once");
        proxy.stop();
    }

    #[test]
    fn clean_relay_passes_frames_through() {
        use std::io::BufRead;
        // Echo upstream: replies with the line it received, uppercased op field intact.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap().to_string();
        thread::spawn(move || {
            if let Ok((s, _)) = upstream.accept() {
                let mut r = BufReader::new(s.try_clone().unwrap());
                let mut w = s;
                let mut line = String::new();
                while r.read_line(&mut line).map(|n| n > 0).unwrap_or(false) {
                    let _ = write_frame(&mut w, line.as_bytes());
                    line.clear();
                }
            }
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let plan = FaultPlan { warm: 100, ..FaultPlan::default() };
        let mut proxy = ChaosProxy::start(listener, &up_addr, 5, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut c, b"{\"op\":\"ping\"}\n").unwrap();
        let mut r = BufReader::new(c.try_clone().unwrap());
        let mut reply = String::new();
        r.read_line(&mut reply).unwrap();
        assert_eq!(reply, "{\"op\":\"ping\"}\n");
        assert_eq!(proxy.frames(), 1);
        proxy.stop();
    }

    #[test]
    fn clean_line_relay_is_byte_verbatim_both_ways() {
        use std::io::BufRead;
        // A byte-capturing echo: answers one line with the bytes it got.
        let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
        let up_addr = upstream.local_addr().unwrap().to_string();
        let echo = thread::spawn(move || {
            let (s, _) = upstream.accept().unwrap();
            let mut r = BufReader::new(s.try_clone().unwrap());
            let mut w = s;
            let mut line = Vec::new();
            r.read_until(b'\n', &mut line).unwrap();
            write_frame(&mut w, &line).unwrap();
            line
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let plan = FaultPlan {
            warm: 100,
            ..FaultPlan::default()
        };
        let mut proxy = ChaosProxy::start(listener, &up_addr, 5, plan).unwrap();
        // Not UTF-8: a lossy decode anywhere on the way rewrites it.
        let sent = b"{\"op\":\"ping\",\"note\":\"\xff\xfe\xc3\"}\n";
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        write_frame(&mut c, sent).unwrap();
        let mut reply = Vec::new();
        BufReader::new(c.try_clone().unwrap())
            .read_until(b'\n', &mut reply)
            .unwrap();
        assert_eq!(
            echo.join().unwrap(),
            sent,
            "the upstream got the request verbatim"
        );
        assert_eq!(reply, sent, "the client got the reply verbatim");
        proxy.stop();
    }
}
