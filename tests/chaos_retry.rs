//! Exactly-once over real TCP: a fault-injecting proxy kills the
//! connection *after* the server executed the compile but *before* the
//! client could read the response. The hardened client retries the same
//! frame — same request id — and the server's idempotency window must
//! replay the recorded response instead of compiling a second time.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcc::chaosnet::{ChaosProxy, Fault, FaultPlan};
use mcc::route::{Backend, TcpBackend};
use mcc::serve::proto::{self, Response};
use mcc::serve::{tcp, ServeConfig, Server};

#[test]
fn reset_after_execution_is_replayed_not_reexecuted() {
    let server = Arc::new(Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server_addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || {
            let _ = tcp::serve_lines(server, listener, stop);
        })
    };

    // Frame numbering counts request frames only: frame 0 is the clean
    // warm-up ping, frame 1 — the compile — is executed upstream but its
    // response dies with the connection, frame 2 (the retry) is clean.
    let proxy_listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let mut proxy = ChaosProxy::start_with(
        proxy_listener,
        &server_addr,
        Box::new(|n| (n == 1).then_some(Fault::ResetPostWrite)),
        0,
        FaultPlan::default(),
    )
    .expect("start proxy");

    let backend = TcpBackend::new("b0", proxy.addr(), 1, 3)
        .with_wire(Some(Duration::from_secs(2)), 2);

    let ping = backend.call("{\"op\":\"ping\"}\n", "t").expect("warm-up ping");
    assert_eq!(Response::field_num(&ping, "code"), Some(200), "{ping}");

    // A source no other test compiles (the nonce comment carries the
    // process id), so this request is a genuine cold execution.
    let src = format!(
        "reg x = R0\nconst x, 200\nsub x, x, 100\nexit x\n; nonce pid-{}\n",
        std::process::id()
    );
    let bare = proto::compile_line("t-1", "hm1", "yalll", &src);
    let frame = proto::wrap_envelope("t", 7, bare.trim_end());

    let resp = backend.call(&frame, "t").expect("compile survives the reset");
    assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
    assert!(Response::field_str(&resp, "checksum").is_some(), "{resp}");

    let c = server.counters();
    assert_eq!(
        c.accepted.load(Ordering::Relaxed),
        1,
        "the compile must be admitted exactly once"
    );
    assert_eq!(
        c.completed.load(Ordering::Relaxed),
        1,
        "the compile must execute exactly once"
    );
    assert_eq!(
        c.replayed.load(Ordering::Relaxed),
        1,
        "the retry must be served from the idempotency window"
    );

    // The injected fault really happened — the proxy counted it.
    assert!(
        proxy.injected().iter().any(|&(kind, n)| kind == "reset-post-write" && n == 1),
        "{:?}",
        proxy.injected()
    );

    proxy.stop();
    stop.store(true, Ordering::SeqCst);
    let _ = acceptor.join();
    server.drain();
}

/// The same compile over protocol v2, reset twice: on the connection it
/// went out on and again on its first retry's fresh connection, so only
/// the second retry reads an answer.
///
/// On v2 the hello counts as a frame, and every connection opens with
/// one. Frame 0 is the warm-up connection's hello and frame 1 its ping;
/// frame 2 is the compile on that connection, executed upstream and then
/// reset. The first retry dials again: frame 3 is its hello and frame 4
/// the compile, replayed upstream and reset too. The second retry's
/// hello (frame 5) and compile (frame 6) pass clean.
#[test]
fn v2_compile_reset_twice_is_replayed_on_its_second_retry() {
    let server = Arc::new(Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind server");
    let server_addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor = {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        std::thread::spawn(move || {
            let _ = tcp::serve_lines(server, listener, stop);
        })
    };

    let proxy_listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let mut proxy = ChaosProxy::start_with(
        proxy_listener,
        &server_addr,
        Box::new(|n| (n == 2 || n == 4).then_some(Fault::ResetPostWrite)),
        0,
        FaultPlan::default(),
    )
    .expect("start proxy");

    let backend = TcpBackend::new("b0", proxy.addr(), 1, 3)
        .with_wire(Some(Duration::from_secs(2)), 2)
        .with_proto2(true);

    let ping = backend
        .call("{\"op\":\"ping\"}\n", "t")
        .unwrap_or_else(|e| panic!("{}: warm-up ping: {e}", backend.name()));
    assert_eq!(Response::field_num(&ping, "code"), Some(200), "{ping}");

    // Its own nonce: the compile cache is process-global, so this source
    // must differ from every other test's to be a cold execution.
    let src = format!(
        "reg x = R0\nconst x, 200\nsub x, x, 100\nexit x\n; nonce v2-pid-{}\n",
        std::process::id()
    );
    let bare = proto::compile_line("t-2", "hm1", "yalll", &src);
    let frame = proto::wrap_envelope("t2", 9, bare.trim_end());

    let resp = backend
        .call(&frame, "t")
        .unwrap_or_else(|e| panic!("{}: compile after two resets: {e}", backend.name()));
    assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
    assert!(Response::field_str(&resp, "checksum").is_some(), "{resp}");

    let c = server.counters();
    assert_eq!(
        c.accepted.load(Ordering::Relaxed),
        1,
        "the compile must be admitted exactly once"
    );
    assert_eq!(
        c.completed.load(Ordering::Relaxed),
        1,
        "the compile must execute exactly once"
    );
    assert!(
        c.replayed.load(Ordering::Relaxed) >= 1,
        "the retries must be served from the idempotency window"
    );
    let resets: Vec<u64> = proxy
        .injected()
        .iter()
        .filter(|&&(kind, _)| kind == "reset-post-write")
        .map(|&(_, n)| n)
        .collect();
    assert_eq!(resets, [2], "both resets were injected: {:?}", proxy.injected());

    proxy.stop();
    stop.store(true, Ordering::SeqCst);
    let _ = acceptor.join();
    server.drain();
}
