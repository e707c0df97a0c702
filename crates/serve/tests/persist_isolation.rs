//! Pressure on one server must not change what another server in the
//! same process persists. Server A admits a request at pressure tier 2,
//! which keeps that request's artifact out of the disk tier. While A
//! still holds it, server B compiles a fresh program at tier 0, and
//! that artifact must reach the disk tier.
//!
//! Single `#[test]` on purpose: the global cache (and its
//! `MCC_CACHE_DIR`) is process-wide state, so this file owns the whole
//! process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mcc_serve::proto::{self, Response};
use mcc_serve::{ServeConfig, Server};

/// A straight-line program long enough that compiling it keeps a
/// worker busy for a while: `mcc compile --no-cache` takes 0.2-0.33 s
/// in debug and 31-36 ms in release on a 2-CPU host, whole process.
fn long_program(seed: usize) -> String {
    let mut src = format!("reg a = R0\nreg b = R1\nconst a, {seed}\nconst b, 5\n");
    for i in 0..16_000 {
        src.push_str(if i % 2 == 0 { "add a, a, b\n" } else { "add b, b, a\n" });
    }
    src.push_str("exit a\n");
    src
}

fn stat(server: &Server, field: &str) -> u64 {
    let stats = server.handle_line("{\"op\":\"stats\"}\n", "test").to_line();
    Response::field_num(&stats, field).expect("stats field present")
}

#[test]
fn tier_two_on_one_server_leaves_another_servers_disk_persistence_alone() {
    let dir = std::env::temp_dir().join(format!("mcc-serve-persist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("MCC_CACHE_DIR", &dir);
    assert!(mcc_cache::attach_default_disk().unwrap());

    // A: one worker, bound 2. The first request is admitted at depth 0
    // (tier 0) and occupies the worker; the second is admitted at depth
    // 1 of 2, which is tier 2.
    let a = Arc::new(Server::start(ServeConfig {
        workers: 1,
        queue_bound: 2,
        deadline: Duration::from_secs(120),
        ..ServeConfig::default()
    }));
    let mut held = Vec::new();
    for i in 0..2 {
        let server = Arc::clone(&a);
        held.push(std::thread::spawn(move || {
            let line = proto::compile_line(&format!("a{i}"), "hm1", "yalll", &long_program(i));
            server.handle_line(&line, "a").code
        }));
        let deadline = Instant::now() + Duration::from_secs(30);
        while stat(&a, "queue_depth") < i as u64 + 1 {
            assert!(Instant::now() < deadline, "request a{i} was never admitted");
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    assert_eq!(stat(&a, "degraded_t2"), 1, "the second request is admitted at tier 2");

    // B: an idle server compiles a program nobody has compiled yet.
    let b = Server::start(ServeConfig::default());
    let src = "reg a = R0\nconst a, 424242\nadd a, a, 1\nexit a\n";
    let r = b.handle_line(&proto::compile_line("b0", "hm1", "yalll", src), "b").to_line();
    assert_eq!(Response::field_num(&r, "code"), Some(200), "{r}");
    assert_eq!(Response::field_num(&r, "tier"), Some(0), "{r}");
    assert!(
        stat(&a, "queue_depth") >= 1,
        "A still held its tier-2 request while B compiled; lengthen long_program"
    );

    for h in held {
        assert_eq!(h.join().unwrap(), 200);
    }
    a.drain();
    b.drain();

    let key = mcc_cache::key_for_wire("hm1", "yalll", src).unwrap();
    let disk = mcc_cache::DiskTier::open(&dir).unwrap();
    assert!(
        disk.lookup(key).is_some(),
        "B's tier-0 artifact is in the disk tier despite A's pressure"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
