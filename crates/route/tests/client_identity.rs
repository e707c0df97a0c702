//! A client's own request identity crosses the router: the shard's
//! dedup window sees the client's `(cid, rid)`, whichever dialect the
//! client spoke, so one compile sent once as a v2 frame and again as an
//! `@mcc1` line executes once and replays once.
//!
//! Its own test binary on purpose: the compile cache is process-global,
//! and the shard's counters must count this test's requests alone.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcc_route::{Backend, RouteConfig, Router};
use mcc_serve::proto::{self, Envelope, Response};
use mcc_serve::proto2::{Caps, Client, Handshake};
use mcc_serve::tcp::serve_lines;
use mcc_serve::{ServeConfig, Server};

/// Serves `handler` on an ephemeral port; returns the address and the
/// stop flag.
fn listen(handler: Arc<dyn mcc_serve::tcp::LineHandler>) -> (String, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let st = Arc::clone(&stop);
    std::thread::spawn(move || serve_lines(handler, listener, st));
    (addr, stop)
}

#[test]
fn v2_frame_and_mcc1_line_with_one_identity_execute_once() {
    let cache = std::env::temp_dir().join(format!("mcc-client-identity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::env::set_var("MCC_CACHE_DIR", &cache);

    let shard = Arc::new(Server::start(ServeConfig::default()));
    let (shard_addr, shard_stop) = listen(Arc::clone(&shard) as _);
    let cfg = RouteConfig::default();
    let router = Arc::new(Router::new(
        vec![Arc::new(cfg.tcp_backend("b0", &shard_addr)) as Arc<dyn Backend>],
        cfg,
    ));
    let (router_addr, router_stop) = listen(Arc::clone(&router) as _);

    let body = proto::compile_line("ident", "hm1", "yalll", "; identity\nreg a = R0\nexit a\n");
    let timeout = Some(Duration::from_secs(30));

    // First as a v2 frame carrying (c, 9) in its header...
    let stream = TcpStream::connect(&router_addr).unwrap();
    let want = Caps {
        compress: false,
        window: 4,
    };
    let mut v2 = match Client::handshake(stream, timeout, &want).unwrap() {
        Handshake::V2(c) => c,
        Handshake::V1Peer => panic!("the router must negotiate v2"),
    };
    let first = v2
        .call("c", 9, body.trim_end())
        .expect("the v2 frame answers");

    // ...then as an `@mcc1` line with the same identity, on a second
    // connection.
    let stream = TcpStream::connect(&router_addr).unwrap();
    stream.set_read_timeout(timeout).unwrap();
    let mut w = stream.try_clone().unwrap();
    w.write_all(proto::wrap_envelope("c", 9, body.trim_end()).as_bytes())
        .unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    let second = match proto::unwrap_envelope(&line) {
        Envelope::Enveloped { cid, rid, body } => {
            assert_eq!(
                (cid.as_str(), rid),
                ("c", 9),
                "the answer echoes the identity"
            );
            body
        }
        other => panic!("an enveloped request gets an enveloped answer: {other:?} {line}"),
    };

    for answer in [&first, &second] {
        assert_eq!(Response::field_num(answer, "code"), Some(200), "{answer}");
    }
    let checksum = Response::field_str(&first, "checksum");
    assert!(checksum.is_some(), "{first}");
    assert_eq!(Response::field_str(&second, "checksum"), checksum);
    let counters = shard.counters();
    assert_eq!(
        counters.accepted.load(Ordering::Relaxed),
        1,
        "the shard executed the compile once"
    );
    assert_eq!(
        counters.replayed.load(Ordering::Relaxed),
        1,
        "the line replayed the frame's execution"
    );

    drop(v2);
    router_stop.store(true, Ordering::SeqCst);
    shard_stop.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&cache);
}
