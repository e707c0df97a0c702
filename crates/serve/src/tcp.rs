//! The TCP front end: newline-delimited JSON lines or binary v2 frames
//! (sniffed from a connection's first byte) over `TcpListener`, one
//! thread per connection. The accept loop waits for a connection with a
//! `poll(2)` bounded by one tick, so a new connection is accepted at
//! once and a stop flag set by a signal (or a `drain` frame) still ends
//! the daemon within a tick.
//!
//! The loop is generic over a [`LineHandler`] so the compile daemon
//! (`mcc serve`) and the shard router (`mcc route`) share one accept
//! loop, one containment discipline, and one idle reaper.
//!
//! Containment discipline: each *request* is handled behind
//! `catch_unwind`, so neither a malformed frame nor a pipeline bug can
//! take down a connection, and no connection failure can take down the
//! daemon — a dropped socket mid-frame just ends that connection's
//! thread. Responses are written back in request order per connection
//! (the protocol is pipelined but ordered, like HTTP/1.1), through
//! [`write_frame`], which loops over partial writes and retries `EINTR`
//! so a short `write` can never truncate a frame.
//!
//! Idle reaper: a connected client that never sends a request must not
//! pin a connection thread forever. With an idle timeout set, the read
//! side times out, the connection is closed, and the handler's
//! [`LineHandler::on_idle_reap`] bumps its `idle_reaped` counter.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::proto::{self, Envelope, Ident, Response};
use crate::Server;

/// How often the accept loop polls the stop flag.
const ACCEPT_TICK: Duration = Duration::from_millis(25);

/// Blocks until `listener` has a connection to accept, or `tick` passes,
/// or a signal interrupts the wait — whichever comes first. The caller
/// keeps the listener non-blocking and simply tries `accept` again.
pub fn wait_for_connection(listener: &TcpListener, tick: Duration) {
    #[cfg(target_os = "linux")]
    {
        use std::ffi::{c_int, c_short, c_ulong};
        use std::os::fd::AsRawFd;

        #[repr(C)]
        struct PollFd {
            fd: c_int,
            events: c_short,
            revents: c_short,
        }
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
        }
        const POLLIN: c_short = 1;
        let mut pfd = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let ms = c_int::try_from(tick.as_millis()).unwrap_or(c_int::MAX);
        // SAFETY: one valid pollfd for the duration of the call, on a
        // descriptor `listener` keeps open. Errors (EINTR included) just
        // end the wait early; the caller's accept reports anything real.
        unsafe {
            poll(&mut pfd, 1, ms);
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = listener;
        std::thread::sleep(tick);
    }
}

/// One endpoint of the wire protocol: the compile daemon ([`Server`])
/// and the router (`mcc_route::Router`). The wire loops decode a
/// request's identity where it arrives — a v2 frame's header, or an
/// `@mcc1` line — and hand it over as a value beside the bare JSON body.
pub trait LineHandler: Send + Sync + 'static {
    /// Two-phase intake: admits one request, whose bare JSON body is
    /// `line` and whose identity is `ident` when the peer sent one. A
    /// request that resolves at once is `Done`; an admitted one is
    /// `Pending`, so a wire loop can admit a whole read burst before it
    /// collects any outcome — the workers chew the backlog in one
    /// scheduling quantum instead of round-tripping per request.
    /// Outcomes are collected in arrival order.
    fn submit_wire(&self, line: &str, ident: Option<Ident>, client: &str) -> WireSubmission<'_>;

    /// Called once a read burst is admitted, before any of its outcomes
    /// is collected: a handler that holds back what `submit_wire`
    /// dispatched puts it on the wire here.
    fn flush_submitted(&self) {}

    /// Called when the idle reaper closes a connection.
    fn on_idle_reap(&self) {}

    /// Called when a connection is closed for exceeding
    /// [`crate::proto::MAX_FRAME_BYTES`] on one inbound line.
    fn on_oversized(&self) {}

    /// Called once when a connection negotiates up to protocol v2.
    fn on_v2_connection(&self) {}

    /// Called per decoded v2 frame.
    fn on_v2_frame(&self) {}

    /// Called for a corrupt `@mcc1` line, and when a v2 stream turns
    /// structurally corrupt and the connection is closed with an error
    /// frame.
    fn on_corrupt_frame(&self) {}

    /// The idle timeout for connections served on behalf of this
    /// handler (`None` = never reap).
    fn idle_timeout(&self) -> Option<Duration> {
        None
    }
}

/// The result of [`LineHandler::submit_wire`].
pub enum WireSubmission<'a> {
    /// Resolved immediately; the line is newline-terminated.
    Done(String),
    /// Admitted; calling this waits for the newline-terminated answer.
    Pending(Box<dyn FnOnce() -> String + Send + 'a>),
}

impl LineHandler for Server {
    fn submit_wire(&self, line: &str, ident: Option<Ident>, client: &str) -> WireSubmission<'_> {
        self.submit_frame(line, ident, client)
    }

    fn on_idle_reap(&self) {
        let c = self.counters();
        c.bump(&c.idle_reaped);
    }

    fn on_oversized(&self) {
        let c = self.counters();
        c.bump(&c.oversized_frames);
    }

    fn on_v2_connection(&self) {
        let c = self.counters();
        c.bump(&c.v2_connections);
    }

    fn on_v2_frame(&self) {
        let c = self.counters();
        c.bump(&c.v2_frames);
    }

    fn on_corrupt_frame(&self) {
        let c = self.counters();
        c.bump(&c.corrupt_frames);
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.config_idle_timeout()
    }
}

/// The outcome of reading one newline-terminated frame from a socket
/// with a length cap. The frame's bytes (including the newline) are
/// left in the caller's buffer to borrow, so a connection loop can
/// reuse one buffer for its whole lifetime instead of allocating per
/// request.
#[derive(Debug)]
pub enum FrameBufRead {
    /// One complete frame's bytes are in the caller's buffer.
    Frame,
    /// Clean end of stream (a partial trailing frame is discarded — a
    /// torn frame is never processed as if it were complete).
    Eof,
    /// The line exceeded the cap; the buffer has been cleared. The
    /// caller must answer with a structured `400` and close the
    /// connection — there is no bounded way to resync.
    Oversized,
    /// The read timed out (`WouldBlock`/`TimedOut` from a socket
    /// deadline); partial bytes stay in the buffer.
    TimedOut,
}

/// Reads one capped frame into `buf`, leaving the bytes there (see
/// [`FrameBufRead`]). Partial-frame state persists in `buf` across
/// [`FrameBufRead::TimedOut`] returns so a caller that polls with a
/// short read timeout never loses bytes. `EINTR` is retried, matching
/// the [`write_frame`] write-all discipline.
///
/// # Errors
///
/// Any I/O error other than `EINTR` and the timeout kinds.
pub fn read_frame_buf(
    r: &mut impl BufRead,
    buf: &mut Vec<u8>,
    max: usize,
) -> io::Result<FrameBufRead> {
    loop {
        let (take, done) = {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    return Ok(FrameBufRead::TimedOut)
                }
                Err(e) => return Err(e),
            };
            if chunk.is_empty() {
                return Ok(FrameBufRead::Eof);
            }
            match chunk.iter().position(|b| *b == b'\n') {
                Some(i) => {
                    buf.extend_from_slice(&chunk[..=i]);
                    (i + 1, true)
                }
                None => {
                    buf.extend_from_slice(chunk);
                    (chunk.len(), false)
                }
            }
        };
        r.consume(take);
        if buf.len() > max {
            buf.clear();
            return Ok(FrameBufRead::Oversized);
        }
        if done {
            return Ok(FrameBufRead::Frame);
        }
    }
}

/// Writes one whole response frame: loops until every byte is accepted,
/// retrying `EINTR` (`ErrorKind::Interrupted`) on both the writes and
/// the flush — a short write must never truncate a frame mid-line, or
/// the client would misparse every subsequent pipelined response.
///
/// # Errors
///
/// Any non-`EINTR` I/O error, and `WriteZero` if the peer stops
/// accepting bytes entirely.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    let mut rest = frame;
    while !rest.is_empty() {
        match w.write(rest) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "connection stopped accepting bytes mid-frame",
                ))
            }
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    loop {
        match w.flush() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Serves connections until `stop` goes true (a signal handler or a
/// `drain` frame sets it), then returns — the caller runs the drain.
/// Connection threads are detached: they answer `503 draining` to
/// anything submitted after the drain begins, and die with their
/// sockets.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection I/O errors
/// only end that connection.
pub fn serve_lines(
    handler: Arc<dyn LineHandler>,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, addr)) => {
                let handler = Arc::clone(&handler);
                let stop = Arc::clone(&stop);
                let client = addr.to_string();
                std::thread::spawn(move || {
                    let _ = connection(handler, stream, &client, &stop);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener, ACCEPT_TICK);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One connection. The first inbound byte picks the protocol: the v2
/// magic (`0xB5`) routes to the pipelined frame loop, anything else
/// (a `{` or `@`) to the line loop, so one listener serves both
/// dialects. An idle timeout on the read side feeds the reaper.
fn connection(
    handler: Arc<dyn LineHandler>,
    stream: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(handler.idle_timeout())?;
    let writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        match reader.fill_buf() {
            Ok([]) => return Ok(()), // closed before the first byte.
            Ok(chunk) if chunk[0] == crate::proto2::MAGIC[0] => {
                return v2_connection(&*handler, reader, writer, client, stop);
            }
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                handler.on_idle_reap();
                return Ok(());
            }
            Err(e) => return Err(e),
        }
    }
    v1_connection(&*handler, reader, writer, client, stop)
}

/// Submits one line-loop request and waits for its newline-terminated
/// answer.
fn answer(
    handler: &dyn LineHandler,
    line: &str,
    ident: Option<Ident>,
    client: &str,
    stop: &AtomicBool,
) -> String {
    sniff_drain(line, stop);
    match handler.submit_wire(line, ident, client) {
        WireSubmission::Done(resp) => resp,
        WireSubmission::Pending(resp) => {
            handler.flush_submitted();
            resp()
        }
    }
}

/// A `drain` request stops the accept loop too, not just its connection.
fn sniff_drain(body: &str, stop: &AtomicBool) {
    if matches!(proto::parse_request(body), Ok(crate::Request::Drain)) {
        stop.store(true, Ordering::SeqCst);
    }
}

/// The line loop: read lines, answer each with exactly one line. An
/// `@mcc1` line's identity is decoded here and its answer enveloped
/// back with it; a corrupt one is counted and answered with a bare
/// `400`, never executed. One reusable buffer carries every request;
/// the line is borrowed from it (`Cow`), so the steady state allocates
/// nothing on the read side.
fn v1_connection(
    handler: &dyn LineHandler,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    let mut buf: Vec<u8> = Vec::new();
    loop {
        match read_frame_buf(&mut reader, &mut buf, proto::MAX_FRAME_BYTES)? {
            FrameBufRead::Frame => {}
            FrameBufRead::Eof => return Ok(()), // client closed cleanly.
            // The read timed out with nothing (or only a partial frame)
            // buffered: reap the connection. A stalled half-frame is
            // reaped too — the client was mid-line for the whole window.
            FrameBufRead::TimedOut => {
                handler.on_idle_reap();
                return Ok(());
            }
            // One endless line must not OOM the daemon: structured 400,
            // count it, close — resyncing on the rest is unbounded too.
            FrameBufRead::Oversized => {
                handler.on_oversized();
                let resp = Response::error(
                    "",
                    400,
                    &format!("oversized frame: longer than {} bytes", proto::MAX_FRAME_BYTES),
                );
                let _ = write_frame(&mut writer, resp.to_line().as_bytes());
                return Ok(());
            }
        }
        {
            let line = String::from_utf8_lossy(&buf);
            if !line.trim().is_empty() {
                let resp = match proto::unwrap_envelope(&line) {
                    Envelope::Bare => answer(handler, &line, None, client, stop),
                    Envelope::Enveloped { cid, rid, body } => {
                        let ident = Ident { cid: cid.clone(), rid };
                        let resp = answer(handler, &body, Some(ident), client, stop);
                        proto::wrap_envelope(&cid, rid, &resp)
                    }
                    Envelope::Corrupt(reason) => {
                        handler.on_corrupt_frame();
                        Response::error("", 400, &reason).to_line()
                    }
                };
                write_frame(&mut writer, resp.as_bytes())?;
            }
        }
        crate::buf::shrink_reusable(&mut buf);
    }
}

/// The v2 pipelined loop: decode every complete frame in the read
/// burst, admit each request through [`LineHandler::submit_wire`] with
/// the identity from its header, let the handler flush what it held
/// back, encode the outcomes in arrival order into one reusable
/// buffer, and answer with one write before the next read. The
/// handler's intake overlaps the burst's work; the loop's own win is one
/// read and one write syscall per burst instead of one of each per
/// request.
fn v2_connection(
    handler: &dyn LineHandler,
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    client: &str,
    stop: &AtomicBool,
) -> io::Result<()> {
    use crate::proto2::{self, Caps, FrameFault, FrameType};

    handler.on_v2_connection();
    writer.set_write_timeout(handler.idle_timeout()).ok();

    /// One frame owed to the peer, in arrival order, with its body
    /// resolved or still owed by the handler.
    struct Out<'a> {
        ftype: FrameType,
        cid: String,
        rid: u64,
        body: WireSubmission<'a>,
    }
    /// A connection-level frame: no identity, body known now.
    fn control<'a>(ftype: FrameType, body: String) -> Out<'a> {
        Out { ftype, cid: String::new(), rid: 0, body: WireSubmission::Done(body) }
    }
    /// The error frame that closes a faulted stream.
    fn error_out<'a>(reason: &str) -> Out<'a> {
        control(FrameType::Error, Response::error("", 400, reason).to_line())
    }

    let mut caps = Caps { compress: false, window: proto2::DEFAULT_WINDOW };
    let mut acc: Vec<u8> = Vec::new();
    let mut wbuf: Vec<u8> = Vec::new();
    let mut outs: Vec<Out> = Vec::new();
    let mut fatal = false;
    loop {
        // Drain every complete frame already buffered.
        while !fatal {
            let (bait, len) = match proto2::next_frame(&acc) {
                Ok(found) => found,
                Err(fault) => {
                    match &fault {
                        FrameFault::Oversized(_) => handler.on_oversized(),
                        FrameFault::Corrupt(_) => handler.on_corrupt_frame(),
                    }
                    outs.push(error_out(fault.reason()));
                    fatal = true;
                    break;
                }
            };
            acc.drain(..bait);
            let Some(len) = len else { break }; // need more bytes.
            let frame = match proto2::decode_frame(&acc) {
                Ok((f, _)) => f,
                Err(proto2::DecodeErr::Corrupt(reason)) => {
                    handler.on_corrupt_frame();
                    outs.push(error_out(&reason));
                    fatal = true;
                    break;
                }
                Err(proto2::DecodeErr::Incomplete) => unreachable!("length was checked"),
            };
            acc.drain(..len);
            handler.on_v2_frame();
            match frame.ftype {
                // Repeated hellos are acked idempotently — a chaos
                // Duplicate fault can double one, and the client just
                // discards extra acks.
                FrameType::Hello => {
                    if let Some(want) = proto2::parse_hello(&frame.body) {
                        caps = proto2::negotiate(&want);
                    }
                    outs.push(control(FrameType::HelloAck, proto2::hello_body(&caps)));
                }
                FrameType::Request => {
                    sniff_drain(&frame.body, stop);
                    // A non-empty cid is the request's identity.
                    let (cid, rid) = (frame.cid, frame.rid);
                    let ident = (!cid.is_empty()).then(|| Ident { cid: cid.clone(), rid });
                    let body = handler.submit_wire(&frame.body, ident, client);
                    outs.push(Out { ftype: FrameType::Response, cid, rid, body });
                }
                // A client has no business sending these; close loudly.
                FrameType::HelloAck | FrameType::Response | FrameType::Error => {
                    handler.on_corrupt_frame();
                    outs.push(error_out("unexpected frame type from a client"));
                    fatal = true;
                }
            }
        }
        // The whole burst is admitted; let the handler put what it held
        // back on the wire, then collect outcomes in arrival order and
        // answer with one write burst per read burst.
        handler.flush_submitted();
        let min = caps.compress.then_some(proto2::COMPRESS_MIN_BYTES);
        for Out { ftype, cid, rid, body } in outs.drain(..) {
            let body = match body {
                WireSubmission::Done(body) => body,
                WireSubmission::Pending(answer) => answer(),
            };
            proto2::encode_frame(&mut wbuf, ftype, &cid, rid, body.trim_end_matches('\n'), min);
        }
        if !wbuf.is_empty() {
            let written = write_frame(&mut writer, &wbuf);
            crate::buf::shrink_reusable(&mut wbuf);
            if written.is_err() {
                break;
            }
        }
        if fatal {
            break;
        }
        match reader.fill_buf() {
            Ok([]) => break, // clean close; a torn tail is dropped.
            Ok(chunk) => {
                let n = chunk.len();
                acc.extend_from_slice(chunk);
                reader.consume(n);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
            {
                // Every outcome is collected before the read, so nothing
                // is ever in flight here.
                handler.on_idle_reap();
                break;
            }
            Err(_) => break,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use crate::ServeConfig;
    use std::io::BufRead;

    fn start_tcp(cfg: ServeConfig) -> (Arc<Server>, std::net::SocketAddr, Arc<AtomicBool>) {
        let server = Arc::new(Server::start(cfg));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&server);
        let stop2 = Arc::clone(&stop);
        std::thread::spawn(move || serve_lines(s2, listener, stop2).unwrap());
        (server, addr, stop)
    }

    /// A writer that accepts at most one byte per call and injects an
    /// `EINTR` before every real write — the worst short-write peer.
    struct TrickleWriter {
        written: Vec<u8>,
        interrupt_next: bool,
        flushes: usize,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            self.written.push(buf[0]);
            Ok(1)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.flushes += 1;
            if self.flushes == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            Ok(())
        }
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn a_pending_connection_ends_the_accept_wait_at_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let t0 = std::time::Instant::now();
        wait_for_connection(&listener, Duration::from_millis(40));
        assert!(
            t0.elapsed() >= Duration::from_millis(30),
            "an idle wait lasts its tick"
        );
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let t0 = std::time::Instant::now();
        wait_for_connection(&listener, Duration::from_secs(10));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the connection woke the wait"
        );
        assert!(listener.accept().is_ok(), "and it is there to accept");
    }

    #[test]
    fn write_frame_survives_short_writes_and_eintr() {
        let mut w = TrickleWriter {
            written: Vec::new(),
            interrupt_next: true,
            flushes: 0,
        };
        let frame = b"{\"id\":\"x\",\"code\":200}\n";
        write_frame(&mut w, frame).expect("trickle writer still gets the whole frame");
        assert_eq!(w.written, frame, "no byte lost to a short write");
        assert!(w.flushes >= 2, "flush retried through EINTR");
    }

    #[test]
    fn write_frame_reports_write_zero() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_frame(&mut Dead, b"x\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    /// A reader that yields at most one byte per call and injects an
    /// `EINTR` before every real read — the worst slow-loris peer.
    struct TrickleReader {
        data: Vec<u8>,
        pos: usize,
        interrupt_next: bool,
    }

    impl io::Read for TrickleReader {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.interrupt_next {
                self.interrupt_next = false;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "EINTR"));
            }
            self.interrupt_next = true;
            if self.pos >= self.data.len() {
                return Ok(0);
            }
            buf[0] = self.data[self.pos];
            self.pos += 1;
            Ok(1)
        }
    }

    #[test]
    fn read_frame_survives_trickle_and_eintr() {
        let data = b"{\"op\":\"ping\"}\n{\"op\":\"stats\"}\n".to_vec();
        let mut r = BufReader::new(TrickleReader {
            data,
            pos: 0,
            interrupt_next: true,
        });
        let mut buf = Vec::new();
        for want in ["{\"op\":\"ping\"}\n", "{\"op\":\"stats\"}\n"] {
            match read_frame_buf(&mut r, &mut buf, 1024).unwrap() {
                FrameBufRead::Frame => assert_eq!(buf, want.as_bytes()),
                other => panic!("wrong read: {other:?}"),
            }
            buf.clear();
        }
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Eof));
    }

    #[test]
    fn read_frame_caps_line_length() {
        let mut data = vec![b'a'; 100];
        data.extend_from_slice(b"\n{\"op\":\"ping\"}\n");
        let mut r = BufReader::new(io::Cursor::new(data));
        let mut buf = Vec::new();
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 64).unwrap(), FrameBufRead::Oversized));
        assert!(buf.is_empty(), "an oversized line leaves nothing behind");
    }

    #[test]
    fn read_frame_discards_torn_trailing_frame() {
        let mut r = BufReader::new(io::Cursor::new(b"{\"op\":\"ping\"}\n{\"op\":\"st".to_vec()));
        let mut buf = Vec::new();
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Frame));
        buf.clear();
        assert!(matches!(read_frame_buf(&mut r, &mut buf, 1024).unwrap(), FrameBufRead::Eof));
    }

    #[test]
    fn oversized_tcp_frame_gets_structured_400_and_is_counted() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // One endless line, comfortably past the cap. The server may close
        // the write side once it gives up, so write errors are fine.
        let chunk = vec![b'a'; 64 * 1024];
        for _ in 0..20 {
            if writer.write_all(&chunk).is_err() {
                break;
            }
        }
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(400), "got {line}");
        assert!(line.contains("oversized"), "diagnostic names the cause: {line}");

        // The connection is closed after the 400 — either a clean EOF or a
        // reset, depending on how much of our flood was still in flight.
        line.clear();
        // An Err is an RST because unread bytes were discarded: also closed.
        if let Ok(n) = reader.read_line(&mut line) {
            assert_eq!(n, 0, "no second response");
        }

        // ...and stats on a fresh connection counts it.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w2 = stream.try_clone().unwrap();
        let mut r2 = BufReader::new(stream);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        line.clear();
        r2.read_line(&mut line).unwrap();
        assert_eq!(
            Response::field_num(&line, "oversized_frames"),
            Some(1),
            "stats counts the oversized frame: {line}"
        );

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn tcp_round_trip_compile_ping_and_garbage() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);

        let mut line = String::new();
        writer
            .write_all(
                proto::compile_line("t1", "hm1", "yalll", "reg a = R0\nconst a, 3\nexit a\n")
                    .as_bytes(),
            )
            .unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200), "got {line}");

        line.clear();
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        assert!(line.contains("pong"));
        assert!(
            Response::field_num(&line, "queue_depth").is_some(),
            "pong carries queue pressure for router probes: {line}"
        );
        assert_eq!(
            Response::field_str(&line, "draining").as_deref(),
            Some("false"),
            "pong carries the drain flag for router probes: {line}"
        );

        // Garbage gets a structured 400 and the connection survives.
        line.clear();
        writer.write_all(b"this is not json\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(400));

        line.clear();
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "bad_requests"), Some(1));

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn dropped_connection_does_not_kill_the_daemon() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        {
            // Write half a frame and slam the socket shut.
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"{\"op\":\"compile\",\"id\":\"torn").unwrap();
        }
        // A fresh connection still gets served.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn idle_connection_is_reaped_and_counted() {
        let cfg = ServeConfig {
            idle_timeout: Some(Duration::from_millis(60)),
            ..ServeConfig::default()
        };
        let (server, addr, stop) = start_tcp(cfg);

        // A client that connects and never sends a frame: the reaper
        // must close it (read returns 0) within a few timeout windows.
        let idler = TcpStream::connect(addr).unwrap();
        idler
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut idle_reader = BufReader::new(idler);
        let mut line = String::new();
        let n = idle_reader.read_line(&mut line).expect("reaped, not hung");
        assert_eq!(n, 0, "the server closed the idle connection");

        // An active client on the same server is untouched, and the
        // stats op reports the reap.
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(
            Response::field_num(&line, "idle_reaped"),
            Some(1),
            "stats counts the reaped connection: {line}"
        );

        stop.store(true, Ordering::SeqCst);
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_handshake_negotiates_and_pipelines_out_of_order_safely() {
        use crate::proto2::{Caps, Client, FrameType, Handshake};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let want = Caps { compress: true, window: 8 };
        let mut c = match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap()
        {
            Handshake::V2(c) => c,
            Handshake::V1Peer => panic!("a v2 server must ack the hello"),
        };
        assert!(c.caps.compress, "compression negotiated on");
        assert_eq!(c.caps.window, 8, "window clamped to the client ask");
        // Pipeline several requests before reading anything.
        for rid in 0..4u64 {
            let body = proto::compile_line(
                &format!("p{rid}"),
                "hm1",
                "yalll",
                &format!("reg a = R0\nconst a, {rid}\nexit a\n"),
            );
            c.send(FrameType::Request, "t", rid, &body).unwrap();
        }
        let mut seen = std::collections::HashMap::new();
        while seen.len() < 4 {
            let f = c.recv().unwrap();
            assert_eq!(f.ftype, FrameType::Response);
            assert_eq!(f.cid, "t");
            seen.insert(f.rid, f.body);
        }
        for rid in 0..4u64 {
            let body = &seen[&rid];
            assert_eq!(Response::field_num(body, "code"), Some(200), "rid {rid}: {body}");
            assert_eq!(
                Response::field_str(body, "id").as_deref(),
                Some(format!("p{rid}").as_str()),
                "responses matched by rid, not arrival order"
            );
        }
        // A v1 client on the same server still gets line service.
        let v1 = TcpStream::connect(addr).unwrap();
        let mut w1 = v1.try_clone().unwrap();
        let mut r1 = BufReader::new(v1);
        w1.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut line = String::new();
        r1.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        // And stats counts the v2 traffic: 1 connection, 5 frames
        // (hello + 4 requests).
        line.clear();
        w1.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        r1.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "v2_connections"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "v2_frames"), Some(5), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(c);
        drop(w1);
        drop(r1);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_replay_is_deduped_across_reconnects() {
        use crate::proto2::{Caps, Client, Handshake};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let want = Caps { compress: false, window: 4 };
        let mut bodies = Vec::new();
        for _ in 0..2 {
            let stream = TcpStream::connect(addr).unwrap();
            let mut c =
                match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap() {
                    Handshake::V2(c) => c,
                    Handshake::V1Peer => panic!("v2 expected"),
                };
            let body = proto::compile_line("dup", "hm1", "yalll", "reg a = R0\nexit a\n");
            bodies.push(c.call("replayer", 42, &body).unwrap());
        }
        assert_eq!(bodies[0], bodies[1], "the replay is byte-identical");
        // The dedup window recorded exactly one execution.
        let stream = TcpStream::connect(addr).unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        w.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "replayed"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "accepted"), Some(1), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w);
        drop(r);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_corrupt_stream_gets_an_error_frame_and_close() {
        use crate::proto2::{self, FrameType};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut w = stream.try_clone().unwrap();
        // A frame whose checksum is wrong: flip one payload byte.
        let mut bytes = Vec::new();
        proto2::encode_frame(&mut bytes, FrameType::Request, "x", 1, "{\"op\":\"ping\"}", None);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        w.write_all(&bytes).unwrap();
        w.flush().unwrap();
        // The server answers with an error frame, then closes.
        let mut r = BufReader::new(stream);
        let mut acc = Vec::new();
        let err = loop {
            match read_frame_buf(&mut r, &mut acc, 1 << 20) {
                Ok(FrameBufRead::Frame) | Ok(FrameBufRead::Eof) => break acc.clone(),
                Ok(FrameBufRead::TimedOut) => continue,
                other => panic!("unexpected read: {other:?}"),
            }
        };
        let (f, _) = proto2::decode_frame(&err).expect("a well-formed error frame");
        assert_eq!(f.ftype, FrameType::Error);
        assert!(
            f.body.contains("checksum") || f.body.contains("magic"),
            "diagnostic names the fault: {}",
            f.body
        );
        // Corruption is counted, and nothing was executed.
        let s2 = TcpStream::connect(addr).unwrap();
        let mut w2 = s2.try_clone().unwrap();
        let mut r2 = BufReader::new(s2);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "corrupt_frames"), Some(1), "{line}");
        assert_eq!(Response::field_num(&line, "accepted"), Some(0), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w2);
        drop(r2);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn v2_oversized_declaration_is_refused_from_the_header_alone() {
        use crate::proto2::{self, FrameType};
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut w = stream.try_clone().unwrap();
        // Header declaring a 2 MiB payload; never send the payload.
        let mut header = vec![proto2::MAGIC[0], proto2::MAGIC[1], proto2::VERSION, 3, 0];
        proto2::write_varint(&mut header, 0);
        proto2::write_varint(&mut header, 1);
        proto2::write_varint(&mut header, 2 * 1024 * 1024);
        proto2::write_varint(&mut header, 2 * 1024 * 1024);
        w.write_all(&header).unwrap();
        w.flush().unwrap();
        let mut r = BufReader::new(stream);
        let mut acc = Vec::new();
        let err = loop {
            match read_frame_buf(&mut r, &mut acc, 1 << 20) {
                Ok(FrameBufRead::Frame) | Ok(FrameBufRead::Eof) => break acc.clone(),
                Ok(FrameBufRead::TimedOut) => continue,
                other => panic!("unexpected read: {other:?}"),
            }
        };
        let (f, _) = proto2::decode_frame(&err).expect("a well-formed error frame");
        assert_eq!(f.ftype, FrameType::Error);
        assert!(f.body.contains("exceeds"), "names the cap: {}", f.body);
        let s2 = TcpStream::connect(addr).unwrap();
        let mut w2 = s2.try_clone().unwrap();
        let mut r2 = BufReader::new(s2);
        w2.write_all(b"{\"op\":\"stats\"}\n").unwrap();
        let mut line = String::new();
        r2.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "oversized_frames"), Some(1), "{line}");
        stop.store(true, Ordering::SeqCst);
        drop(w2);
        drop(r2);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }

    #[test]
    fn identity_frames_are_admitted_not_executed_at_submission() {
        let server = Server::start(ServeConfig {
            workers: 1,
            queue_bound: 16,
            ..ServeConfig::default()
        });
        let ident = |rid: u64| Some(Ident { cid: "burst".to_string(), rid });
        let lines: Vec<String> = (0..8)
            .map(|i| {
                let pid = std::process::id();
                let src = format!("; admit {i} pid {pid}\nreg a = R0\nconst a, {i}\nexit a\n");
                proto::compile_line(&format!("b{i}"), "hm1", "yalll", &src)
            })
            .collect();
        // The whole burst goes in before anything is collected.
        let answers: Vec<_> = (0u64..)
            .zip(&lines)
            .map(|(rid, line)| match server.submit_wire(line, ident(rid), "t") {
                WireSubmission::Pending(answer) => answer,
                WireSubmission::Done(r) => panic!("request {rid} resolved at submission: {r}"),
            })
            .collect();
        let duplicate = server.submit_wire(&lines[0], ident(0), "t");
        let bodies: Vec<String> = answers.into_iter().map(|answer| answer()).collect();
        let duplicate = match duplicate {
            WireSubmission::Done(r) => r,
            WireSubmission::Pending(answer) => answer(),
        };
        for body in &bodies {
            assert_eq!(Response::field_num(body, "code"), Some(200), "{body}");
        }
        assert_eq!(duplicate, bodies[0], "the duplicate gets the original's bytes");
        let c = server.counters();
        assert_eq!(c.accepted.load(Ordering::Relaxed), 8);
        assert_eq!(c.replayed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drain_frame_stops_the_accept_loop() {
        let (server, addr, stop) = start_tcp(ServeConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        writer.write_all(b"{\"op\":\"drain\"}\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        // The flag flips, which is what ends the accept loop.
        for _ in 0..200 {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(stop.load(Ordering::SeqCst), "drain frame must set the stop flag");
        // And new compiles are refused.
        writer
            .write_all(
                proto::compile_line("late", "hm1", "yalll", "reg a = R0\nexit a\n").as_bytes(),
            )
            .unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::field_num(&line, "code"), Some(503));
        drop(writer);
        drop(reader);
        if let Ok(s) = Arc::try_unwrap(server) {
            s.shutdown();
        }
    }
}
