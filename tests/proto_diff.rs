//! Differential protocol suite: the same server, the same seeded
//! request mix, spoken over v1 (bare newline-delimited JSON) and over v2
//! (length-prefixed binary frames, pipelined) — and the two dialects
//! must be observationally identical:
//!
//! - response bodies are byte-identical request-for-request;
//! - the compile-cache ledger moves by the same deltas (each distinct
//!   source compiled exactly once — pipelining a window of v2 requests
//!   must not double-execute anything);
//! - a hot replay over v2 is all cache hits with checksums matching the
//!   cold v1 bodies;
//! - a v1-only peer (bare lines, plus the `@mcc1` envelope) still gets
//!   correct service from the same listener that negotiates v2.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcc::serve::proto::{self, Response};
use mcc::serve::proto2::{Caps, Client, FrameType, Handshake};
use mcc::serve::tcp::serve_lines;
use mcc::serve::{ServeConfig, Server};

const K: usize = 12;
const WINDOW: usize = 6;

fn start_server() -> (Arc<Server>, std::net::SocketAddr, Arc<AtomicBool>) {
    let server = Arc::new(Server::start(ServeConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let (s2, stop2) = (Arc::clone(&server), Arc::clone(&stop));
    std::thread::spawn(move || serve_lines(s2, listener, stop2).unwrap());
    (server, addr, stop)
}

/// The seeded mix: K compile requests whose sources differ only in a
/// nonce comment, so each nonce range is one cold cache generation.
fn request_line(k: usize, nonce: usize) -> String {
    let src = format!("reg a = R0\nconst a, {}\nexit a\n; nonce {nonce}\n", k % 7);
    proto::compile_line(&format!("d{k}"), "hm1", "yalll", &src)
}

fn ledger(addr: std::net::SocketAddr) -> (u64, u64, u64) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    w.write_all(b"{\"op\":\"stats\"}\n").unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    (
        Response::field_num(&line, "cache_hits").unwrap(),
        Response::field_num(&line, "cache_misses").unwrap(),
        Response::field_num(&line, "replayed").unwrap(),
    )
}

/// One v1 pass: a single connection, strict lockstep, bare lines.
fn run_v1(addr: std::net::SocketAddr, nonce_base: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    let mut out = Vec::with_capacity(K);
    for k in 0..K {
        w.write_all(request_line(k, nonce_base + k).as_bytes())
            .unwrap();
        let mut line = String::new();
        let n = r.read_line(&mut line).unwrap();
        assert!(n > 0, "server closed mid-pass at request {k}");
        out.push(line);
    }
    out
}

/// One v2 pass: negotiated binary frames, pipelined up to WINDOW deep,
/// responses matched back to their request by rid.
fn run_v2(addr: std::net::SocketAddr, cid: &str, nonce_base: usize) -> Vec<String> {
    let stream = TcpStream::connect(addr).unwrap();
    let want = Caps { compress: true, window: WINDOW as u32 };
    let mut c = match Client::handshake(stream, Some(Duration::from_secs(10)), &want).unwrap() {
        Handshake::V2(c) => c,
        Handshake::V1Peer => panic!("the server under test must negotiate v2"),
    };
    assert!(c.caps.window >= WINDOW as u32, "window survived negotiation");

    let mut out = vec![String::new(); K];
    let mut in_flight = 0usize;
    let mut next_recv = 0usize;
    let recv_one = |c: &mut Client, out: &mut Vec<String>| {
        let f = c.recv().unwrap();
        if f.ftype == FrameType::HelloAck {
            return false;
        }
        assert_eq!(f.ftype, FrameType::Response, "unexpected frame: {f:?}");
        let k = f.rid as usize;
        assert!(out[k].is_empty(), "duplicate response for rid {k}");
        out[k] = format!("{}\n", f.body);
        true
    };
    for k in 0..K {
        while in_flight >= WINDOW {
            if recv_one(&mut c, &mut out) {
                in_flight -= 1;
                next_recv += 1;
            }
        }
        c.send(
            FrameType::Request,
            cid,
            k as u64,
            &request_line(k, nonce_base + k),
        )
        .unwrap();
        in_flight += 1;
    }
    while next_recv < K {
        if recv_one(&mut c, &mut out) {
            next_recv += 1;
        }
    }
    out
}

#[test]
fn v1_and_v2_are_observationally_identical() {
    let (server, addr, stop) = start_server();

    // Cold pass per dialect, each on its own nonce range: every request
    // is a fresh source, so the ledger isolates exactly what each
    // dialect caused.
    let (h0, m0, r0) = ledger(addr);
    let v1_bodies = run_v1(addr, 0);
    let (h1, m1, r1) = ledger(addr);
    let v2_bodies = run_v2(addr, "diff2", 1000);
    let (h2, m2, r2) = ledger(addr);

    // Byte-identical bodies: the nonce comment never reaches the
    // response, and the ids match pairwise, so the dialect is the only
    // variable — and it must not show.
    for k in 0..K {
        assert_eq!(
            v1_bodies[k], v2_bodies[k],
            "response {k} differs between v1 and v2"
        );
        assert_eq!(
            Response::field_num(&v1_bodies[k], "code"),
            Some(200),
            "request {k} failed: {}",
            v1_bodies[k]
        );
    }

    // Identical ledgers: K cold compiles per pass, no hits, and no
    // envelope replays. A double execution under v2 pipelining would
    // show as misses > K; a dropped request as misses < K.
    let v1_delta = (h1 - h0, m1 - m0, r1 - r0);
    let v2_delta = (h2 - h1, m2 - m1, r2 - r1);
    assert_eq!(v1_delta, (0, K as u64, 0), "v1 cold ledger");
    assert_eq!(v2_delta, (0, K as u64, 0), "v2 cold ledger");
    assert_eq!(v1_delta, v2_delta, "the dialects moved the cache differently");

    // Hot replay of the v1 pass's exact sources over v2: every request
    // is a cache hit, nothing recompiles, nothing is a dedup replay
    // (fresh cid), and the artifact checksums match the cold bodies.
    let hot = run_v2(addr, "diff2-hot", 0);
    let (h3, m3, r3) = ledger(addr);
    assert_eq!(
        (h3 - h2, m3 - m2, r3 - r2),
        (K as u64, 0, 0),
        "v2 hot ledger"
    );
    for k in 0..K {
        assert_eq!(Response::field_num(&hot[k], "code"), Some(200));
        assert_eq!(
            Response::field_str(&hot[k], "checksum"),
            Response::field_str(&v1_bodies[k], "checksum"),
            "hot checksum {k} diverges from the cold v1 artifact"
        );
    }

    // The enveloped v1 dialect works on the same listener too: wrapped
    // request, wrapped response, correct cid/rid echo.
    let stream = TcpStream::connect(addr).unwrap();
    let mut w = stream.try_clone().unwrap();
    let mut r = BufReader::new(stream);
    let bare = request_line(0, 0);
    w.write_all(proto::wrap_envelope("diff-env", 42, bare.trim_end()).as_bytes())
        .unwrap();
    let mut line = String::new();
    r.read_line(&mut line).unwrap();
    assert!(
        line.starts_with(proto::ENVELOPE_PREFIX),
        "enveloped request gets an enveloped response: {line}"
    );
    assert!(line.contains(" diff-env 42 "), "cid/rid echoed: {line}");
    assert_eq!(
        Response::field_num(proto::envelope_body(&line), "code"),
        Some(200)
    );

    stop.store(true, Ordering::SeqCst);
    drop(server);
}
