//! What the readers in this tree take from the `stats` and `metrics`
//! ops: every `stats` field some code reads, under its name, and every
//! metric name a test, a bench or CI reads, on one shard and on a router
//! over two shards.

use std::sync::Arc;

use mcc::route::{Backend, InProcBackend, RouteConfig, Router};
use mcc::serve::metrics;
use mcc::serve::proto::{compile_line_qos, Response};
use mcc::serve::{ServeConfig, Server};

/// Shard `stats` fields read by perfbench, bench-serve and the tests.
const SHARD_FIELDS: [&str; 13] = [
    "accepted",
    "bad_requests",
    "cache_hits",
    "cache_misses",
    "corrupt_frames",
    "idle_reaped",
    "oversized_frames",
    "queue_bound",
    "quota_shed",
    "replayed",
    "shed",
    "v2_connections",
    "v2_frames",
];

/// Router `stats` fields read by perfbench and the tests.
const ROUTER_FIELDS: [&str; 5] = ["hedges", "failovers", "bad_requests", "hedge_losses", "joins"];

/// Shard metric names read by the tests, the diurnal bench and CI.
const SERVE_NAMES: [&str; 3] = [
    "mcc_serve_requests_total",
    "mcc_serve_latency_us",
    "mcc_serve_tier_total",
];

/// Router metric names read by the tests.
const ROUTE_NAMES: [&str; 4] = [
    "mcc_route_routed_total",
    "mcc_route_pipe_frames_total",
    "mcc_route_pipe_writes_total",
    "mcc_route_pipe_fallbacks_total",
];

fn compile(id: &str, nonce: usize, tenant: &str) -> String {
    let src = format!("reg a = R0\nstart: add a, a, 1\n exit\n; readers {nonce}\n");
    compile_line_qos(id, "hm1", "yalll", &src, Some(tenant), Some("interactive"))
}

fn op(name: &str) -> String {
    format!("{{\"op\":\"{name}\",\"id\":\"{name}\"}}\n")
}

/// The exposition carried by a `metrics` answer, validated.
fn exposition(reply: &str) -> String {
    assert_eq!(Response::field_num(reply, "code"), Some(200), "{reply}");
    assert_eq!(
        Response::field_str(reply, "format").as_deref(),
        Some("prometheus-text")
    );
    let text = Response::field_str(reply, "text").expect("metrics text field");
    metrics::validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    text
}

/// Sum of the merged `code="200"` request lines for one tenant.
fn served(text: &str, tenant: &str) -> u64 {
    let label = format!("tenant=\"{tenant}\"");
    text.lines()
        .filter(|l| l.starts_with("mcc_serve_requests_total{shard="))
        .filter(|l| l.contains(&label) && l.contains("code=\"200\""))
        .map(|l| l.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()).unwrap_or(0))
        .sum()
}

#[test]
fn a_shard_keeps_every_read_stats_field_and_metric_name() {
    let server = Server::start(ServeConfig::default());
    let r = server.handle_line(&compile("s0", 0, "acme"), "client");
    assert_eq!(r.code, 200, "{}", r.to_line());

    let stats = server.handle_line(&op("stats"), "client").to_line();
    for field in SHARD_FIELDS {
        assert!(
            Response::field_num(&stats, field).is_some(),
            "shard stats lack `{field}`: {stats}"
        );
    }
    let text = exposition(&server.handle_line(&op("metrics"), "client").to_line());
    for name in SERVE_NAMES {
        assert!(text.contains(name), "shard exposition lacks `{name}`:\n{text}");
    }
    assert!(text.contains("tenant=\"acme\""), "{text}");
    server.shutdown();
}

#[test]
fn a_router_keeps_every_read_stats_field_and_metric_name() {
    let backends: Vec<Arc<dyn Backend>> = (0..2)
        .map(|i| {
            let shard = Arc::new(Server::start(ServeConfig::default()));
            Arc::new(InProcBackend::new(&format!("b{i}"), shard)) as Arc<dyn Backend>
        })
        .collect();
    let router = Router::new(
        backends,
        RouteConfig {
            hedge_after: None,
            ..RouteConfig::default()
        },
    );
    for k in 0..8 {
        let tenant = if k % 2 == 0 { "acme" } else { "blue" };
        let resp = router.handle_line(&compile(&format!("r{k}"), 100 + k, tenant), "client");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
    }

    let stats = router.handle_line(&op("stats"), "client");
    for field in ROUTER_FIELDS {
        assert!(
            Response::field_num(&stats, field).is_some(),
            "router stats lack `{field}`: {stats}"
        );
    }
    let text = exposition(&router.handle_line(&op("metrics"), "client"));
    for name in SERVE_NAMES.iter().chain(&ROUTE_NAMES) {
        assert!(text.contains(name), "router exposition lacks `{name}`:\n{text}");
    }
    for label in ["tenant=\"acme\"", "shard=\"b0\"", "shard=\"b1\""] {
        assert!(text.contains(label), "router exposition lacks {label}:\n{text}");
    }
    assert!(text.contains("mcc_route_routed_total 8\n"), "{text}");
    // Every compile lands in exactly one tenant's counter on exactly one
    // shard.
    assert_eq!(served(&text, "acme"), 4, "{text}");
    assert_eq!(served(&text, "blue"), 4, "{text}");
    router.stop_probes();
}
