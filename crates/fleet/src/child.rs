//! Child-process plumbing shared by the fleet supervisor and the
//! bench's chaos modes: spawn-and-wait-for-banner, a zombie-free
//! reaper, and a one-shot TCP line client.

use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read};
use std::net::TcpStream;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mcc_serve::proto::MAX_FRAME_BYTES;
use mcc_serve::tcp::{read_frame_buf, write_frame, FrameBufRead};

thread_local! {
    /// Reusable read buffer for [`line_call`]: the supervisor heartbeats
    /// every tick from the same thread, and a fresh `Vec` per call was
    /// pure churn. Cleared before each call, so a timed-out partial
    /// frame never leaks into the next round trip.
    static CALL_BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Kills `child` (if still running) and **waits** on it, so the kernel
/// releases the process entry. SIGKILLing without the wait leaks a
/// zombie until the parent exits — exactly what a long soak cannot
/// afford. Idempotent: killing an already-dead child is a no-op and the
/// wait reaps whatever is there.
pub fn reap(child: &mut Child) -> Option<ExitStatus> {
    let _ = child.kill();
    child.wait().ok()
}

/// Spawns `cmd` and waits (up to `timeout`) for it to print a
/// `listening on <addr>` banner on stderr, returning the child and the
/// parsed address. The rest of the child's stderr is drained by a
/// detached thread so the pipe can never fill up and wedge the child.
///
/// On timeout, immediate exit, or EOF-before-banner the child is
/// reaped and an error describing the failure is returned.
pub fn spawn_with_banner(cmd: &mut Command, timeout: Duration) -> Result<(Child, String), String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let stderr = child.stderr.take().expect("stderr was piped");
    let (tx, rx) = mpsc::channel::<Option<String>>();
    std::thread::spawn(move || {
        let mut reader = BufReader::new(stderr);
        let mut banner = None;
        let mut line = String::new();
        while banner.is_none() {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if let Some(at) = line.find("listening on ") {
                        let rest = &line[at + "listening on ".len()..];
                        let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                        banner = Some(addr);
                    }
                }
            }
        }
        let _ = tx.send(banner.clone());
        if banner.is_some() {
            // Keep draining so the child never blocks on a full pipe.
            let mut sink = Vec::new();
            let _ = reader.read_to_end(&mut sink);
        }
    });
    match rx.recv_timeout(timeout) {
        Ok(Some(addr)) if !addr.is_empty() => Ok((child, addr)),
        Ok(_) => {
            let status = reap(&mut child);
            Err(format!(
                "child exited before its banner (status {status:?})"
            ))
        }
        Err(_) => {
            reap(&mut child);
            Err(format!("no banner within {timeout:?}"))
        }
    }
}

/// One request line → one response line over a fresh TCP connection,
/// bounded by `timeout` on connect, write, and read. The supervisor's
/// heartbeats and admin frames go through here: a fresh connection per
/// call is deliberately boring — no pool to go stale when the far side
/// restarts.
pub fn line_call(addr: &str, line: &str, timeout: Duration) -> Result<String, String> {
    let sockaddr = addr
        .parse::<std::net::SocketAddr>()
        .map_err(|e| format!("{addr}: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sockaddr, timeout).map_err(|e| format!("{addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(timeout)).ok();
    stream.set_write_timeout(Some(timeout)).ok();
    write_frame(&mut stream, line.as_bytes()).map_err(|e| format!("{addr}: write: {e}"))?;
    // Capped read: a misbehaving (or chaos-proxied) peer cannot make a
    // heartbeat buffer an endless line.
    let mut reader = BufReader::new(stream);
    CALL_BUF.with(|b| {
        let mut buf = b.borrow_mut();
        mcc_serve::buf::shrink_reusable(&mut buf);
        match read_frame_buf(&mut reader, &mut buf, MAX_FRAME_BYTES) {
            Ok(FrameBufRead::Frame) => Ok(String::from_utf8_lossy(&buf).into_owned()),
            Ok(FrameBufRead::Eof) => Err(format!("{addr}: closed mid-response")),
            Ok(FrameBufRead::TimedOut) => Err(format!("{addr}: read timed out after {timeout:?}")),
            Ok(FrameBufRead::Oversized) => Err(format!("{addr}: oversized response frame")),
            Err(e) => Err(format!("{addr}: read: {e}")),
        }
    })
}

/// Waits up to `timeout` for the child to exit on its own (no signal),
/// reaping it if it does; returns the status, or `None` on timeout.
pub fn wait_timeout(child: &mut Child, timeout: Duration) -> Option<ExitStatus> {
    let deadline = Instant::now() + timeout;
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Some(status),
            Ok(None) => {
                if Instant::now() >= deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => return None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reap_leaves_no_zombie() {
        let mut child = Command::new("sleep")
            .arg("30")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn sleep");
        let status = reap(&mut child).expect("reaped");
        assert!(!status.success(), "killed, not exited");
        // A reaped child reports its status again without blocking —
        // the process table entry is gone.
        assert!(child.try_wait().is_ok());
    }

    #[test]
    fn spawn_with_banner_rejects_a_child_that_exits_silently() {
        let err = spawn_with_banner(&mut Command::new("true"), Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("before its banner"), "{err}");
    }

    #[test]
    fn line_call_refuses_garbage_addresses() {
        assert!(line_call("not-an-addr", "x\n", Duration::from_millis(100)).is_err());
    }
}
