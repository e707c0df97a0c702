//! A real `mcc fleet` as a child process, and the client that talks to it:
//! one v2 connection, a fixed number of requests in flight, each timed
//! from its frame write to its matching response.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use mcc_serve::proto::Response;
use mcc_serve::proto2::{self, ClientReceiver, ClientSender, FrameType};

use crate::calib::Speed;
use crate::host;
use crate::span::Tracer;

/// How long a child gets to announce itself, and a call to answer.
const PATIENCE: Duration = Duration::from_secs(30);

/// How long a stopping fleet gets to drain before it is killed.
const DRAIN_GRACE: Duration = Duration::from_secs(15);

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;

/// Sends `sig` to `pid`, ignoring a process that has already gone.
fn signal(pid: u32, sig: i32) {
    let Ok(pid) = i32::try_from(pid) else { return };
    // SAFETY: kill(2) takes plain integers and touches no memory of ours;
    // a stale pid only makes it fail with ESRCH, which is ignored.
    unsafe {
        kill(pid, sig);
    }
}

/// Waits until none of `pids` is alive, or `timeout` passes; returns
/// whether they all ended.
fn wait_gone(pids: &[u32], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while pids.iter().any(|&p| host::alive(p)) {
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    true
}

/// One line in, one line out, over a fresh connection.
///
/// # Errors
///
/// Connect, write or read failures.
fn line_call(addr: &str, line: &str) -> Result<String, String> {
    mcc_fleet::child::line_call(addr, line, PATIENCE)
}

/// A running `mcc fleet --shards 2 --port 0 --cache-root <dir>`.
pub struct Fleet {
    child: Option<Child>,
    drain_log: Option<std::thread::JoinHandle<()>>,
    /// The router's address.
    pub router: String,
    /// `(name, address)` of each shard, as the supervisor announced them.
    pub shards: Vec<(String, String)>,
    /// Seconds from the spawn until a ping answered through the router.
    pub spawn_s: f64,
    log: Arc<Mutex<Vec<String>>>,
}

impl Fleet {
    /// Spawns the fleet with every cache under `cache_root` and waits
    /// until a `ping` answers through its router.
    ///
    /// # Errors
    ///
    /// Spawn failures, a fleet that exits or stays silent, or a router
    /// that never answers.
    pub fn spawn(mcc: &Path, cache_root: &Path, shards: usize) -> Result<Fleet, String> {
        let t0 = Instant::now();
        let mut child = Command::new(mcc)
            .arg("fleet")
            .arg("--shards")
            .arg(shards.to_string())
            .arg("--port")
            .arg("0")
            .arg("--cache-root")
            .arg(cache_root)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mcc.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let log = Arc::new(Mutex::new(Vec::new()));
        let (tx, rx) = mpsc::channel::<String>();
        let drain_log = {
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                    let _ = tx.send(line.clone());
                    log.lock().expect("log lock").push(line);
                }
            })
        };
        let mut fleet = Fleet {
            child: Some(child),
            drain_log: Some(drain_log),
            router: String::new(),
            shards: Vec::new(),
            spawn_s: 0.0,
            log,
        };
        let deadline = t0 + PATIENCE;
        while fleet.router.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!(
                    "mcc fleet announced no router within {PATIENCE:?}: {}",
                    fleet.log_tail()
                )
            })?;
            if let Some(rest) = line.split_once("mcc fleet: shard ").map(|(_, r)| r) {
                if let Some((name, addr)) = rest.split_once(" up at ") {
                    fleet
                        .shards
                        .push((name.to_string(), addr.trim().to_string()));
                }
            }
            if let Some((_, rest)) = line.split_once(" behind ") {
                fleet.router = rest.split(';').next().unwrap_or("").trim().to_string();
            }
        }
        loop {
            let pong = line_call(&fleet.router, "{\"op\":\"ping\",\"id\":\"ready\"}\n");
            if pong
                .as_deref()
                .is_ok_and(|p| Response::field_num(p, "code") == Some(200))
            {
                break;
            }
            if Instant::now() >= deadline {
                return Err(format!("the fleet router never answered a ping: {pong:?}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        fleet.spawn_s = t0.elapsed().as_secs_f64();
        Ok(fleet)
    }

    fn log_tail(&self) -> String {
        let log = self.log.lock().expect("log lock");
        log.iter()
            .rev()
            .take(5)
            .rev()
            .cloned()
            .collect::<Vec<_>>()
            .join(" | ")
    }

    /// The router's `stats` answer.
    ///
    /// # Errors
    ///
    /// A failed call.
    pub fn router_stats(&self) -> Result<String, String> {
        line_call(&self.router, "{\"op\":\"stats\",\"id\":\"stats\"}\n")
    }

    /// Sum of a numeric field over every shard's `stats` answer.
    ///
    /// # Errors
    ///
    /// A failed call.
    pub fn shard_stat(&self, field: &str) -> Result<u64, String> {
        let mut sum = 0;
        for (_, addr) in &self.shards {
            let line = line_call(addr, "{\"op\":\"stats\",\"id\":\"stats\"}\n")?;
            sum += Response::field_num(&line, field).unwrap_or(0);
        }
        Ok(sum)
    }

    /// Stops the fleet: SIGTERM drains the router and shards; anything
    /// still alive after the grace period is killed, and a fleet that did
    /// not drain by itself is reported on standard error. Waits until every
    /// process of the fleet has ended.
    pub fn stop(mut self) {
        self.halt(true);
    }

    fn halt(&mut self, graceful: bool) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let mut pids = host::descendants(child.id());
        pids.push(child.id());
        signal(child.id(), if graceful { SIGTERM } else { SIGKILL });
        let deadline = Instant::now() + DRAIN_GRACE;
        let mut drained = false;
        while Instant::now() < deadline {
            if let Ok(Some(status)) = child.try_wait() {
                drained = status.success();
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        for &p in &pids {
            if host::alive(p) {
                signal(p, SIGKILL);
            }
        }
        let _ = child.wait();
        wait_gone(&pids, DRAIN_GRACE);
        // The fleet held the only write end of its stderr pipe, so the
        // reader has seen end-of-file by now.
        if let Some(h) = self.drain_log.take() {
            let _ = h.join();
        }
        if graceful && !drained {
            eprintln!(
                "perfbench: mcc fleet did not drain cleanly: {}",
                self.log_tail()
            );
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.halt(false);
    }
}

/// One answered request: latency from frame write to response, and the
/// response body.
pub struct Answer {
    /// Nanoseconds from the request's frame write to its response.
    pub lat_ns: u64,
    /// The response's JSON body.
    pub body: String,
}

/// A v2 connection that keeps a fixed number of requests in flight.
pub struct Client {
    tx: ClientSender,
    rx: ClientReceiver,
    next_rid: u64,
}

impl Client {
    /// Connects to `addr` and negotiates v2 with a window of `window`.
    ///
    /// # Errors
    ///
    /// Connect or handshake failures, or a v1-only peer.
    pub fn connect(addr: &str, window: u32) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let want = proto2::Caps {
            compress: true,
            window,
        };
        match proto2::Client::handshake(stream, Some(PATIENCE), &want)? {
            proto2::Handshake::V2(c) => {
                let (tx, rx) = c.split();
                Ok(Client {
                    tx,
                    rx,
                    next_rid: 1,
                })
            }
            proto2::Handshake::V1Peer => Err(format!("{addr} answered the v2 hello as a v1 peer")),
        }
    }

    /// Sends every line in a closed loop with `window` requests in flight
    /// and returns the answers in request order, with the total pause. With
    /// a tracer, each request also gets a `request` span from write to
    /// response. With a speed kernel, the loop pauses every `every`
    /// requests — once nothing is in flight — for a host-speed burst.
    ///
    /// # Errors
    ///
    /// Transport failures, error frames, or a response to no request.
    pub fn run(
        &mut self,
        lines: &[String],
        window: usize,
        mut tracer: Option<&mut Tracer>,
        mut speed: Option<(&mut Speed, usize)>,
    ) -> Result<(Vec<Answer>, Duration), String> {
        let base = self.next_rid;
        self.next_rid += lines.len() as u64;
        let mut sent: Vec<Option<Instant>> = vec![None; lines.len()];
        let mut answers: Vec<Option<Answer>> = (0..lines.len()).map(|_| None).collect();
        let (mut next, mut inflight, mut done) = (0usize, 0usize, 0usize);
        let mut paused = Duration::ZERO;
        let mut pause_at = speed
            .as_ref()
            .map_or(lines.len(), |(_, every)| (*every).max(1));
        while done < lines.len() {
            if inflight == 0 && next == pause_at && next < lines.len() {
                if let Some((s, every)) = speed.as_mut() {
                    paused += s.sample();
                    pause_at = (pause_at + (*every).max(1)).min(lines.len());
                }
            }
            while inflight < window && next < pause_at.min(lines.len()) {
                self.tx
                    .queue(FrameType::Request, "", base + next as u64, &lines[next]);
                self.tx.flush()?;
                sent[next] = Some(Instant::now());
                next += 1;
                inflight += 1;
            }
            let f = self.rx.recv()?;
            let at = Instant::now();
            match f.ftype {
                FrameType::Response => {}
                FrameType::HelloAck => continue,
                FrameType::Error => return Err(format!("error frame: {}", f.body)),
                other => return Err(format!("unexpected {other:?} frame")),
            }
            let i = f
                .rid
                .checked_sub(base)
                .map(|i| i as usize)
                .filter(|&i| i < lines.len() && answers[i].is_none())
                .ok_or_else(|| format!("response to no pending request (rid {})", f.rid))?;
            let start = sent[i].expect("answered requests were sent");
            if let Some(t) = tracer.as_deref_mut() {
                t.record("request", i as u64, start, at);
            }
            let lat_ns = u64::try_from(at.duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            answers[i] = Some(Answer {
                lat_ns,
                body: f.body,
            });
            inflight -= 1;
            done += 1;
        }
        Ok((
            answers
                .into_iter()
                .map(|a| a.expect("every request answered"))
                .collect(),
            paused,
        ))
    }
}

/// A fresh, empty directory `name` under `root`.
///
/// # Errors
///
/// Filesystem failures.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}
