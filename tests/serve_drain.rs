//! The lone `mcc serve` daemon over TCP: one compile answers 200, and
//! SIGTERM drains the daemon to exit 0 with its cache journal flushed.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use mcc::serve::proto::{self, Response};

mod common;
use common::{sigterm, spawn_daemon, wait_exit};

#[test]
fn serve_answers_a_compile_then_drains_to_exit_0_on_sigterm() {
    let dir = std::env::temp_dir().join(format!("mcc-serve-drain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (mut daemon, addr) = spawn_daemon(
        &["serve", "--port", "0", "--jobs", "2", "--queue-bound", "8"],
        &[("MCC_CACHE_DIR", dir.as_path())],
    );

    {
        let mut stream = TcpStream::connect(&addr).expect("daemon accepts");
        let src = "reg a = R0\nconst a, 3\nexit a\n";
        let line = proto::compile_line("ci", "hm1", "yalll", src);
        stream.write_all(line.as_bytes()).expect("request sent");
        let mut resp = String::new();
        BufReader::new(&stream)
            .read_line(&mut resp)
            .expect("response read");
        assert_eq!(Response::field_num(&resp, "code"), Some(200), "{resp}");
    }

    sigterm(&daemon);
    let status = wait_exit(&mut daemon, "mcc serve");
    assert!(status.success(), "drained daemon exits 0, got {status}");
    let log = std::fs::metadata(dir.join("cache.log")).expect("cache.log written");
    assert!(log.len() > 0, "the drain flushed the cache journal");
    let _ = std::fs::remove_dir_all(&dir);
}
