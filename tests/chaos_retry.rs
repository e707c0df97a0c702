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
