//! Retry isolation on the shared router→shard connection: one reset of
//! that connection, while a burst of compiles is in flight on it, must
//! cost nothing but a private retry of each stranded request — every
//! request answers `200` from its own shard, nothing fails over, and
//! nothing runs twice.
//!
//! Its own test binary on purpose: the compile cache is process-global,
//! so only a process running nothing else can read exactly-once off
//! its miss counter.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mcc_chaosnet::{ChaosProxy, Fault, FaultPlan};
use mcc_route::{Backend, RouteConfig, Router};
use mcc_serve::metrics;
use mcc_serve::proto::{self, Response};
use mcc_serve::tcp::{serve_lines, LineHandler, WireSubmission};
use mcc_serve::{ServeConfig, Server};

/// Compiles in the burst.
const BURST: usize = 8;

/// The proxy frame that is reset: frame 0 is the hello, so frame 3 is
/// the third compile, with the five behind it still in flight.
const RESET_FRAME: u64 = 3;

/// A TCP shard on an ephemeral port.
fn tcp_shard() -> (Arc<Server>, String, Arc<AtomicBool>) {
    let server = Arc::new(Server::start(ServeConfig::default()));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let (s, st) = (Arc::clone(&server), Arc::clone(&stop));
    std::thread::spawn(move || serve_lines(s, listener, st));
    (server, addr, stop)
}

fn stat(server: &Server, field: &str) -> u64 {
    let line = server.handle_line("{\"op\":\"stats\"}", "t").to_line();
    Response::field_num(&line, field).unwrap_or_else(|| panic!("no `{field}` in {line}"))
}

fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in the exposition"))
}

#[test]
fn one_reset_retries_each_stranded_request_on_its_own() {
    let cache = std::env::temp_dir().join(format!("mcc-retry-isolation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::env::set_var("MCC_CACHE_DIR", &cache);

    let (s0, addr0, stop0) = tcp_shard();
    let (s1, addr1, stop1) = tcp_shard();
    let mut proxy = ChaosProxy::start_with(
        TcpListener::bind("127.0.0.1:0").unwrap(),
        &addr0,
        Box::new(|n| (n == RESET_FRAME).then_some(Fault::ResetPostWrite)),
        0,
        FaultPlan::default(),
    )
    .unwrap();

    // b0 sits behind the proxy; b1 is a healthy ring successor, so a
    // transport that charged the reset to every stranded request would
    // show up as failovers (one retry per call is the default budget).
    let cfg = RouteConfig {
        hedge_after: None,
        ..RouteConfig::default()
    };
    let router = Router::new(
        vec![
            Arc::new(cfg.tcp_backend("b0", proxy.addr())) as Arc<dyn Backend>,
            Arc::new(cfg.tcp_backend("b1", &addr1)) as Arc<dyn Backend>,
        ],
        cfg,
    );
    let lines: Vec<String> = (0u64..)
        .filter_map(|n| {
            let src = format!("; iso{n}\nreg a = R0\nconst a, 9\nexit a\n");
            (router.placement("hm1", "yalll", &src)[0] == 0)
                .then(|| proto::compile_line(&format!("r{n}"), "hm1", "yalll", &src))
        })
        .take(BURST)
        .collect();

    // One burst, admitted the way the inline v2 loop admits it: every
    // compile dispatched, one flush, then the answers in order.
    let answers: Vec<_> = lines
        .iter()
        .map(|l| match router.submit_wire(l, None, "t") {
            WireSubmission::Pending(answer) => answer,
            WireSubmission::Done(r) => panic!("a compile is answered at collection: {r}"),
        })
        .collect();
    router.flush_submitted();
    for (i, answer) in answers.into_iter().enumerate() {
        let r = answer();
        assert_eq!(
            Response::field_num(&r, "code"),
            Some(200),
            "request {i}: {r}"
        );
        assert_eq!(
            Response::field_str(&r, "backend").as_deref(),
            Some("b0"),
            "request {i}"
        );
    }

    let c = router.counters();
    assert_eq!(
        c.failovers.load(Ordering::Relaxed),
        0,
        "one fault fails nothing over"
    );
    let stranded = c.pipe_fallbacks.load(Ordering::Relaxed);
    assert!(
        stranded >= 4,
        "the reset stranded the requests behind it: {stranded}"
    );
    assert_eq!(
        stat(&s0, "cache_misses"),
        BURST as u64,
        "each request compiled once"
    );
    assert_eq!(
        stat(&s0, "accepted"),
        BURST as u64,
        "b0 executed each request once"
    );
    assert_eq!(stat(&s1, "accepted"), 0, "b1 executed nothing");
    assert!(
        stat(&s0, "replayed") >= 1,
        "the request executed before the reset replayed"
    );

    let text = router.metrics_text();
    metrics::validate(&text).expect("the router exposition validates");
    assert_eq!(metric(&text, "mcc_route_pipe_fallbacks_total"), stranded);

    proxy.stop();
    stop0.store(true, Ordering::SeqCst);
    stop1.store(true, Ordering::SeqCst);
    let _ = std::fs::remove_dir_all(&cache);
}
