//! Drain propagation, end to end through real processes: SIGTERM to a
//! running `mcc route` must stop admission, answer every in-flight
//! request exactly once (200 or a structured 503 — never silence),
//! propagate the drain to every backend so the whole fleet exits 0, and
//! leave cache journals whose counters prove each accepted compile
//! executed exactly once (the PR 5 drain-test accounting, lifted to the
//! fleet level).
//!
//! Single `#[test]` on purpose: this file owns three child processes
//! and their cache directories.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcc::serve::proto::{self, Response};

mod common;
use common::{sigterm, spawn_daemon, wait_exit};

#[test]
fn sigterm_drains_router_and_backends_answering_everything_exactly_once() {
    let base = std::env::temp_dir().join(format!("mcc-route-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let shard_dirs: Vec<_> = (0..2).map(|i| base.join(format!("shard{i}"))).collect();
    let mut fleet = Vec::new();
    for dir in &shard_dirs {
        std::fs::create_dir_all(dir).unwrap();
        fleet.push(spawn_daemon(
            &["serve", "--port", "0"],
            &[("MCC_CACHE_DIR", dir.as_path())],
        ));
    }
    let (mut router, router_addr) = spawn_daemon(
        &[
            "route",
            "--backend",
            &fleet[0].1,
            "--backend",
            &fleet[1].1,
            "--port",
            "0",
            "--hedge-ms",
            "0", // hedging duplicates compiles; off, so cache counters count exactly
        ],
        &[],
    );

    // Closed-loop clients hammer the router with distinct cold compiles
    // until their connection dies with the drained daemon.
    const CLIENTS: usize = 3;
    let stop_sending = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for t in 0..CLIENTS {
        let addr = router_addr.clone();
        let stop_sending = Arc::clone(&stop_sending);
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).expect("router accepts");
            stream.set_nodelay(true).ok();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let (mut n200, mut n503) = (0u64, 0u64);
            for i in 0..5000 {
                // After the router exits, the send or the read fails —
                // that is the clean end of this client, not a violation.
                let src = format!("reg a = R0\nconst a, {}\nadd a, a, 1\nexit a\n", t * 10_000 + i);
                let line = proto::compile_line(&format!("c{t}-{i}"), "hm1", "yalll", &src);
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                let mut resp = String::new();
                match reader.read_line(&mut resp) {
                    Ok(n) if n > 0 => {}
                    _ => break,
                }
                // Every answered request resolves to exactly one
                // structured response: 200 (compiled) or 503 (draining).
                match Response::field_num(&resp, "code") {
                    Some(200) => n200 += 1,
                    Some(503) => n503 += 1,
                    other => panic!("unexpected response code {other:?}: {resp}"),
                }
                if stop_sending.load(Ordering::Relaxed) && n503 > 0 {
                    break;
                }
            }
            (n200, n503)
        }));
    }

    // Mid-burst: SIGTERM the router. It must drain itself, answer what
    // is in flight, propagate the drain to both backends, and exit 0.
    std::thread::sleep(Duration::from_millis(300));
    sigterm(&router);
    stop_sending.store(true, Ordering::Relaxed);

    let (mut n200, mut n503) = (0u64, 0u64);
    for c in clients {
        let (a, b) = c.join().expect("client thread survived the drain");
        n200 += a;
        n503 += b;
    }
    assert!(n200 > 0, "some compiles completed before the drain");

    let status = wait_exit(&mut router, "mcc route");
    assert!(status.success(), "drained router exits 0, got {status}");
    for (i, (child, _)) in fleet.iter_mut().enumerate() {
        let status = wait_exit(child, "mcc serve");
        assert!(
            status.success(),
            "drain propagated: backend {i} exits 0, got {status}"
        );
    }

    // Exactly-once accounting across the fleet: with hedging off and
    // all-distinct sources, every 200 the clients saw is exactly one
    // cache miss and one store on exactly one shard — nothing executed
    // twice, nothing executed without being answered.
    let (mut misses, mut stores) = (0u64, 0u64);
    for dir in &shard_dirs {
        let stats = mcc::cache::read_stats(dir);
        misses += stats.misses;
        stores += stats.stores;
    }
    assert_eq!(
        misses, n200,
        "each answered 200 executed exactly once across the fleet ({n503} late requests shed)"
    );
    assert_eq!(stores, n200, "each executed compile persisted exactly once");

    let _ = std::fs::remove_dir_all(&base);
}
