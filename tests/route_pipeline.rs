//! The pipelined router→shard hop through real processes: a pipelined
//! client burst reaches the shards over their shared v2 connections in
//! fewer writes than frames, and a shard that a fleet restarts and
//! rejoins keeps that transport.

use std::net::TcpStream;
use std::process::Child;
use std::time::Duration;

use mcc::fleet::{child, Fleet, FleetConfig, ShardInfo, ShardSpec, ShardState};
use mcc::route::{point_for, Ring};
use mcc::serve::metrics;
use mcc::serve::proto::{self, Response};
use mcc::serve::proto2::{self, FrameType};

mod common;
use common::spawn_daemon;

const PATIENCE: Duration = Duration::from_secs(30);

/// Daemons killed on drop, so a failing test leaves none running.
struct Daemons(Vec<Child>);

impl Drop for Daemons {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The router's exposition, validated.
fn router_metrics(addr: &str) -> String {
    let reply = child::line_call(addr, "{\"op\":\"metrics\",\"id\":\"m\"}\n", PATIENCE)
        .expect("router answers metrics");
    let text = Response::field_str(&reply, "text").expect("metrics text");
    metrics::validate(&text).expect("the router exposition validates");
    text
}

/// One unlabelled series' value.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no `{name}` in the exposition"))
}

#[test]
fn a_pipelined_burst_reaches_the_shards_in_fewer_writes_than_frames() {
    let base = std::env::temp_dir().join(format!("mcc-route-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut daemons = Daemons(Vec::new());
    let mut shards = Vec::new();
    for i in 0..2 {
        let dir = base.join(format!("shard{i}"));
        std::fs::create_dir_all(&dir).unwrap();
        let (child, addr) = spawn_daemon(
            &["serve", "--port", "0"],
            &[("MCC_CACHE_DIR", dir.as_path())],
        );
        daemons.0.push(child);
        shards.push(addr);
    }
    // No hedging, so every compile is exactly one frame.
    let (router, raddr) = spawn_daemon(
        &[
            "route",
            "--port",
            "0",
            "--hedge-ms",
            "0",
            "--backend",
            &shards[0],
            "--backend",
            &shards[1],
        ],
        &[],
    );
    daemons.0.push(router);

    const BURST: u64 = 64;
    let stream = TcpStream::connect(&raddr).expect("router accepts");
    let want = proto2::Caps {
        compress: false,
        window: BURST as u32,
    };
    let proto2::Handshake::V2(c) =
        proto2::Client::handshake(stream, Some(PATIENCE), &want).expect("handshake")
    else {
        panic!("the router speaks v2");
    };
    let (mut tx, mut rx) = c.split();
    for i in 0..BURST {
        let src = format!("; burst{i}\nreg a = R0\nconst a, 5\nexit a\n");
        let line = proto::compile_line(&format!("p{i}"), "hm1", "yalll", &src);
        tx.queue(FrameType::Request, "", i, &line);
    }
    tx.flush().expect("the whole burst goes out in one write");
    let mut backends = std::collections::BTreeSet::new();
    for _ in 0..BURST {
        let f = rx.recv().expect("every compile answers");
        assert_eq!(
            Response::field_num(&f.body, "code"),
            Some(200),
            "{}",
            f.body
        );
        backends.insert(Response::field_str(&f.body, "backend").unwrap_or_default());
    }
    assert_eq!(
        backends.len(),
        2,
        "the burst spread over both shards: {backends:?}"
    );

    let text = router_metrics(&raddr);
    assert_eq!(metric(&text, "mcc_route_pipe_frames_total"), BURST);
    let writes = metric(&text, "mcc_route_pipe_writes_total");
    assert!(writes < BURST, "{BURST} frames took {writes} writes");
    assert_eq!(metric(&text, "mcc_route_pipe_fallbacks_total"), 0);

    drop((tx, rx, daemons));
    let _ = std::fs::remove_dir_all(&base);
}

/// Holds once shard `name` is up and joined after `restarts` restarts.
fn up(name: &'static str, restarts: u64) -> impl Fn(&[ShardInfo]) -> bool {
    move |shards| {
        shards.iter().any(|s| {
            s.name == name && s.state == ShardState::Up && s.joined && s.restarts >= restarts
        })
    }
}

#[test]
fn a_rejoined_shard_keeps_the_shared_connection() {
    let base = std::env::temp_dir().join(format!("mcc-route-rejoin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cfg = FleetConfig::new(env!("CARGO_BIN_EXE_mcc").into(), base.clone());
    let mut fleet = Fleet::start(cfg, vec![ShardSpec::stock("b0"), ShardSpec::stock("b1")])
        .expect("the fleet starts");
    assert!(
        fleet.wait_until(PATIENCE, up("b0", 0)),
        "{:?}",
        fleet.snapshot()
    );

    assert!(fleet.kill_shard("b0"), "b0 has a child to kill");
    assert!(
        fleet.wait_until(PATIENCE, up("b0", 1)),
        "b0 restarted and rejoined: {:?}",
        fleet.snapshot()
    );

    // Compiles the ring places on b0, which the router now reaches
    // through the transport its wire `join` built.
    let ring = Ring::new(&["b0".to_string(), "b1".to_string()], 64);
    let srcs: Vec<String> = (0u64..)
        .map(|n| format!("; rejoin{n}\nreg a = R0\nconst a, 3\nexit a\n"))
        .filter(|src| ring.successors(point_for("hm1", "yalll", src))[0] == 0)
        .take(8)
        .collect();
    let addr = fleet.router_addr();
    let before = metric(&router_metrics(&addr), "mcc_route_pipe_frames_total");
    for (i, src) in srcs.iter().enumerate() {
        let line = proto::compile_line(&format!("j{i}"), "hm1", "yalll", src);
        let resp = child::line_call(&addr, &line, PATIENCE).expect("router answers");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
        assert_eq!(
            Response::field_str(&resp, "backend").as_deref(),
            Some("b0"),
            "{resp}"
        );
    }
    let after = metric(&router_metrics(&addr), "mcc_route_pipe_frames_total");
    assert!(
        after >= before + srcs.len() as u64,
        "the rejoined shard's compiles rode the shared connection: {before} -> {after}"
    );

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&base);
}
