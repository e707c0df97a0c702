//! Helpers shared by the tests that drive real `mcc` daemons.

#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::Duration;

/// Spawns one `mcc` daemon subcommand and parses the bound address off
/// its stderr banner (`… listening on ADDR …`), then keeps draining the
/// pipe so the child can never block on it.
pub fn spawn_daemon(args: &[&str], envs: &[(&str, &Path)]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcc"));
    cmd.args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("daemon spawns");
    let mut reader = BufReader::new(child.stderr.take().expect("stderr piped"));
    let mut line = String::new();
    let mut addr = None;
    while reader.read_line(&mut line).expect("banner readable") > 0 {
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().map(str::to_string);
            break;
        }
        line.clear();
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    (child, addr.expect("daemon reported its address"))
}

/// Sends SIGTERM to a daemon.
pub fn sigterm(child: &Child) {
    let term = Command::new("sh")
        .args(["-c", &format!("kill -TERM {}", child.id())])
        .status()
        .expect("kill runs");
    assert!(term.success(), "SIGTERM delivered");
}

/// Waits up to 10s for a child to exit; panics if it never does.
pub fn wait_exit(child: &mut Child, who: &str) -> ExitStatus {
    for _ in 0..1000 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    panic!("{who} did not exit within 10s of the drain");
}

/// Compares one `mcc bench-serve` stdout transcript with
/// `tests/golden/bench_serve/<mode>.txt`. `UPDATE_GOLDEN=1` rewrites
/// the golden instead.
pub fn check_bench_golden(mode: &str, stdout: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/bench_serve")
        .join(format!("{mode}.txt"));
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, stdout).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} ({e}); run UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        want,
        stdout,
        "{mode}: stdout diverges from {}",
        path.display()
    );
}
