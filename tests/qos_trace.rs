//! QoS observability, end to end: the `--trace` journal's torn-tail
//! replay discipline against a live server, and a Prometheus scrape of a
//! real `mcc serve` daemon over TCP.

use std::time::Duration;

use mcc::fleet::child;
use mcc::serve::proto::{compile_line_qos, Response};
use mcc::serve::{metrics, trace, ServeConfig, Server};

mod common;

/// A YALLL kernel that always compiles; the nonce comment keeps each
/// request's cache key distinct so every request really executes.
fn src(nonce: usize) -> String {
    format!("reg a = R0\nstart: add a, a, 1\n exit\n; nonce {nonce}\n")
}

#[test]
fn trace_journal_replays_exactly_and_survives_a_torn_tail() {
    let dir = std::env::temp_dir().join(format!("mcc-qos-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");

    let server = Server::start(ServeConfig {
        workers: 2,
        trace_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    for k in 0..10 {
        let line = compile_line_qos(
            &format!("r{k}"),
            "hm1",
            "yalll",
            &src(k),
            Some(if k % 2 == 0 { "acme" } else { "blue" }),
            Some(if k % 3 == 0 { "batch" } else { "interactive" }),
        );
        let r = server.handle_line(&line, "client-a");
        assert_eq!(r.code, 200, "{}", r.to_line());
    }
    // A malformed class is rejected 400 — and still traced.
    let bad = compile_line_qos("rbad", "hm1", "yalll", &src(99), Some("acme"), Some("warp"));
    assert_eq!(server.handle_line(&bad, "client-a").code, 400);
    server.drain();
    drop(server);

    let (records, torn) = trace::replay(&path).expect("trace replays");
    assert!(!torn, "clean shutdown must not read as torn");
    assert_eq!(records.len(), 11, "one sealed record per resolved request");
    assert_eq!(records[0].tenant, "acme");
    assert_eq!(records[0].seq, 1);
    assert!(records.iter().any(|r| r.code == 400), "the reject is traced too");
    assert!(
        records.windows(2).all(|w| w[0].seq + 1 == w[1].seq),
        "sequence numbers are dense"
    );

    // Tear the tail mid-record: the durable prefix must replay unchanged.
    let mut raw = std::fs::read(&path).unwrap();
    raw.extend_from_slice(b"{\"seq\":12,\"client\":\"client-a\",\"tena");
    std::fs::write(&path, &raw).unwrap();
    let (after, torn) = trace::replay(&path).expect("torn trace still replays");
    assert!(torn, "the torn tail must be detected");
    assert_eq!(after.len(), 11, "the prefix survives");
    assert_eq!(after, records);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_live_daemon_answers_a_prometheus_scrape() {
    let dir = std::env::temp_dir().join(format!("mcc-qos-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (trace, cache) = (dir.join("trace.jsonl"), dir.join("cache"));
    let (mut daemon, addr) = common::spawn_daemon(
        &[
            "serve",
            "--port",
            "0",
            "--jobs",
            "2",
            "--queue-bound",
            "8",
            "--tenant-weight",
            "acme=4",
            "--tenant-quota",
            "64",
            "--trace",
            trace.to_str().unwrap(),
        ],
        &[("MCC_CACHE_DIR", cache.as_path())],
    );
    let patience = Duration::from_secs(30);
    let compile = "{\"op\":\"compile\",\"id\":\"q1\",\"machine\":\"hm1\",\"lang\":\"yalll\",\
                   \"tenant\":\"acme\",\"class\":\"interactive\",\
                   \"src\":\"reg a = R0\\nconst a, 3\\nexit a\\n\"}\n";
    let resp = child::line_call(&addr, compile, patience).expect("daemon answers the compile");
    assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");

    let reply = child::line_call(&addr, "{\"op\":\"metrics\",\"id\":\"m1\"}\n", patience)
        .expect("daemon answers metrics");
    assert_eq!(
        Response::field_str(&reply, "format").as_deref(),
        Some("prometheus-text"),
        "{reply}"
    );
    let text = Response::field_str(&reply, "text").expect("metrics text field");
    for needle in ["mcc_serve_requests_total", "tenant=\"acme\"", "mcc_serve_latency_us_bucket"] {
        assert!(text.contains(needle), "the scrape lacks {needle}:\n{text}");
    }
    metrics::validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));

    common::sigterm(&daemon);
    let status = common::wait_exit(&mut daemon, "mcc serve");
    assert!(status.success(), "a drained daemon exits 0, got {status}");
    let traced = std::fs::metadata(&trace).map_or(0, |m| m.len());
    assert!(traced > 0, "the trace journal is not empty");
    std::fs::remove_dir_all(&dir).ok();
}
