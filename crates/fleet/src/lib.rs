//! Self-healing fleet supervision for the compile service: `mcc fleet`
//! spawns the router and N `mcc serve` shards as real child processes,
//! keeps a heartbeat [`registry`] of their health, reaps and restarts
//! dead children under a budgeted, backed-off [`RestartTracker`], and
//! drives **live ring membership** — a restarted shard is re-announced
//! to the router with a `join` frame and picks its old keys back up
//! warm through its persistent per-shard disk cache.
//!
//! The microprogramming-survey connection is the same one the router
//! made: a writable control store is only as good as the machinery
//! that keeps it loaded. Surveyed installations that shipped microcode
//! to field machines paired the loader with a watchdog — verify the
//! store, reload on parity error, and fall back to a known-good image
//! after repeated failures rather than re-burning forever. `mcc fleet`
//! is that watchdog for the compile fleet: restart with backoff,
//! quarantine on a burned budget, and route around the hole.
//!
//! Determinism discipline: everything the supervisor *decides* (restart
//! delays, quarantine points) is a pure function of `(policy, seed,
//! shard name, crash ordinal)`. Wall-clock shows up only in *when*
//! those decisions execute, and all narration goes to stderr.

pub mod child;
pub mod registry;

pub use registry::{Registry, ShardInfo, ShardState};

use std::path::PathBuf;
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mcc_harness::restart::{RestartDecision, RestartPolicy, RestartTracker};
use mcc_serve::proto::{self, Response};

/// How often each `Up` shard is pinged for its heartbeat.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(100);

/// An `Up` shard silent for this long is killed and restarted.
const UNHEALTHY_AFTER: Duration = Duration::from_secs(2);

/// How long a child gets to print its listen banner.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);

/// How the supervisor runs one fleet.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The `mcc` binary to spawn for both router and shards (tests use
    /// `std::env::current_exe()`-adjacent paths; the CLI uses its own).
    pub exe: PathBuf,
    /// Router listen port; `0` lets the OS pick (the banner reports the
    /// real address either way).
    pub router_port: u16,
    /// Per-shard `--jobs`.
    pub workers: usize,
    /// Per-shard `--queue-bound`.
    pub queue_bound: usize,
    /// Seed threaded into the router and the restart backoff jitter.
    pub seed: u64,
    /// Restart budget and backoff shape, per shard.
    pub restart: RestartPolicy,
    /// Uptime after which a shard is declared stable (refills its
    /// restart budget).
    pub stable_after: Duration,
    /// Router `--hedge-ms` (0 disables hedging).
    pub hedge_ms: u64,
    /// Router `--probe-interval-ms`.
    pub probe_interval_ms: u64,
    /// Root under which each shard keeps a **persistent** cache dir
    /// (`<root>/<name>`): a restarted shard rejoins warm.
    pub cache_root: PathBuf,
    /// Narrate supervision transitions on stderr.
    pub log: bool,
}

impl FleetConfig {
    /// A config with test-friendly defaults around the two paths that
    /// have none.
    pub fn new(exe: PathBuf, cache_root: PathBuf) -> FleetConfig {
        FleetConfig {
            exe,
            router_port: 0,
            workers: 2,
            queue_bound: 64,
            seed: 0,
            restart: RestartPolicy::default(),
            stable_after: Duration::from_secs(1),
            hedge_ms: 0,
            probe_interval_ms: 50,
            cache_root,
            log: false,
        }
    }
}

/// One shard to supervise.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Ring name (also the cache subdirectory name).
    pub name: String,
    /// Argv for the first spawn; `None` means the stock
    /// `serve --port 0 --jobs W --queue-bound Q`.
    pub argv: Option<Vec<String>>,
    /// Argv for respawns after a crash; `None` means same as `argv`.
    /// Tests aim a crash-looping binary here to exercise quarantine.
    pub restart_argv: Option<Vec<String>>,
}

impl ShardSpec {
    /// A stock shard named `name`.
    pub fn stock(name: &str) -> ShardSpec {
        ShardSpec {
            name: name.to_string(),
            argv: None,
            restart_argv: None,
        }
    }
}

/// Supervisor-side state for one shard.
struct Slot {
    spec: ShardSpec,
    tracker: RestartTracker,
    child: Option<Child>,
    addr: Option<String>,
    up_since: Option<Instant>,
    last_ok: Instant,
    next_heartbeat: Instant,
    restart_due: Option<Instant>,
    stable_reported: bool,
    quarantined: bool,
    /// Lives spawned so far — folded into frame ids so every admin
    /// frame this shard ever causes has a distinct, readable id.
    incarnation: u64,
}

struct Inner {
    router: Option<Child>,
    router_addr: String,
    slots: Vec<Slot>,
}

/// A running fleet: router + shards as children, plus the supervisor
/// thread that keeps them alive. Dropping the fleet kills every child.
pub struct Fleet {
    cfg: FleetConfig,
    registry: Arc<Registry>,
    inner: Arc<Mutex<Inner>>,
    stop: Arc<AtomicBool>,
    supervisor: Option<JoinHandle<()>>,
}

impl Fleet {
    /// Spawns every shard, then the router fronting whichever shards
    /// came up, then the supervisor thread. Fails only if *no* shard
    /// comes up or the router itself cannot start; individual shard
    /// failures go down the ordinary crash path.
    pub fn start(cfg: FleetConfig, specs: Vec<ShardSpec>) -> Result<Fleet, String> {
        if specs.is_empty() {
            return Err("fleet: need at least one shard spec".to_string());
        }
        let names: Vec<String> = specs.iter().map(|s| s.name.clone()).collect();
        let registry = Arc::new(Registry::new(&names));
        let mut slots = Vec::with_capacity(specs.len());
        let now = Instant::now();
        for spec in specs {
            let mut slot = Slot {
                tracker: RestartTracker::new(cfg.restart),
                child: None,
                addr: None,
                up_since: None,
                last_ok: now,
                next_heartbeat: now,
                restart_due: None,
                stable_reported: false,
                quarantined: false,
                incarnation: 0,
                spec,
            };
            match spawn_shard(&cfg, &slot.spec, true) {
                Ok((ch, addr)) => {
                    if cfg.log {
                        eprintln!("mcc fleet: shard {} up at {addr}", slot.spec.name);
                    }
                    registry.mark_up(&slot.spec.name, &addr);
                    slot.child = Some(ch);
                    slot.addr = Some(addr);
                    slot.up_since = Some(Instant::now());
                    slot.last_ok = Instant::now();
                    slot.incarnation = 1;
                }
                Err(e) => {
                    if cfg.log {
                        eprintln!("mcc fleet: shard {} failed to start: {e}", slot.spec.name);
                    }
                    crash_decide(&cfg, &registry, &mut slot);
                }
            }
            slots.push(slot);
        }
        let up: Vec<(String, String)> = slots
            .iter()
            .filter_map(|s| s.addr.clone().map(|a| (s.spec.name.clone(), a)))
            .collect();
        if up.is_empty() {
            for s in &mut slots {
                if let Some(ch) = s.child.as_mut() {
                    child::reap(ch);
                }
            }
            return Err("fleet: no shard came up".to_string());
        }
        let (router, router_addr) = spawn_router(&cfg, &up)?;
        for (name, _) in &up {
            registry.mark_joined(name, true);
        }
        if cfg.log {
            eprintln!(
                "mcc fleet: router up at {router_addr} fronting {} of {} shards",
                up.len(),
                slots.len()
            );
        }
        let inner = Arc::new(Mutex::new(Inner {
            router: Some(router),
            router_addr,
            slots,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let supervisor = {
            let cfg = cfg.clone();
            let registry = Arc::clone(&registry);
            let inner = Arc::clone(&inner);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || supervise(&cfg, &registry, &inner, &stop, &frames))
        };
        Ok(Fleet {
            cfg,
            registry,
            inner,
            stop,
            supervisor: Some(supervisor),
        })
    }

    /// The router's current listen address. Re-read it after a router
    /// respawn if calls start failing.
    pub fn router_addr(&self) -> String {
        self.inner.lock().unwrap().router_addr.clone()
    }

    /// The heartbeat registry (shared with the supervisor).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Snapshot of every shard's registry entry.
    pub fn snapshot(&self) -> Vec<ShardInfo> {
        self.registry.snapshot()
    }

    /// SIGKILLs a shard's current child (chaos injection). The
    /// supervisor's next tick reaps the zombie and runs the ordinary
    /// crash→restart path. Returns false if the shard has no live child.
    pub fn kill_shard(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Some(slot) = inner.slots.iter_mut().find(|s| s.spec.name == name) else {
            return false;
        };
        match slot.child.as_mut() {
            Some(ch) => ch.kill().is_ok(),
            None => false,
        }
    }

    /// Polls the registry until `pred` holds or `timeout` elapses.
    pub fn wait_until(&self, timeout: Duration, pred: impl Fn(&[ShardInfo]) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.registry.snapshot()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops supervision, drains the router (which drains the shards),
    /// and reaps every child. Idempotent via Drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let mut inner = self.inner.lock().unwrap();
        let drain = "{\"op\":\"drain\",\"id\":\"fleet-drain\"}\n".to_string();
        let _ = child::line_call(&inner.router_addr, &drain, Duration::from_secs(2));
        if let Some(router) = inner.router.as_mut() {
            if child::wait_timeout(router, Duration::from_secs(5)).is_none() {
                child::reap(router);
            }
        }
        inner.router = None;
        for slot in &mut inner.slots {
            if let Some(ch) = slot.child.as_mut() {
                if let Some(addr) = &slot.addr {
                    let d = format!("{{\"op\":\"drain\",\"id\":\"fleet-drain-{}\"}}\n", slot.spec.name);
                    let _ = child::line_call(addr, &d, Duration::from_secs(2));
                }
                if child::wait_timeout(ch, Duration::from_secs(5)).is_none() {
                    child::reap(ch);
                }
            }
            slot.child = None;
        }
        if self.cfg.log {
            eprintln!("mcc fleet: shut down");
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
        let mut inner = self.inner.lock().unwrap();
        if let Some(router) = inner.router.as_mut() {
            child::reap(router);
        }
        inner.router = None;
        for slot in &mut inner.slots {
            if let Some(ch) = slot.child.as_mut() {
                child::reap(ch);
            }
            slot.child = None;
        }
    }
}

/// Builds the argv for one shard life and spawns it, waiting for the
/// banner. `first` picks `argv`; respawns prefer `restart_argv`.
fn spawn_shard(cfg: &FleetConfig, spec: &ShardSpec, first: bool) -> Result<(Child, String), String> {
    let stock = vec![
        "serve".to_string(),
        "--port".to_string(),
        "0".to_string(),
        "--jobs".to_string(),
        cfg.workers.to_string(),
        "--queue-bound".to_string(),
        cfg.queue_bound.to_string(),
    ];
    let argv: &[String] = if first {
        spec.argv.as_deref().unwrap_or(&stock)
    } else {
        spec.restart_argv
            .as_deref()
            .or(spec.argv.as_deref())
            .unwrap_or(&stock)
    };
    let mut cmd = Command::new(&cfg.exe);
    cmd.args(argv)
        .env("MCC_CACHE_DIR", cfg.cache_root.join(&spec.name));
    child::spawn_with_banner(&mut cmd, SPAWN_TIMEOUT)
}

/// Spawns the router fronting `backends` on the configured port.
fn spawn_router(cfg: &FleetConfig, backends: &[(String, String)]) -> Result<(Child, String), String> {
    let mut cmd = Command::new(&cfg.exe);
    cmd.arg("route")
        .arg("--port")
        .arg(cfg.router_port.to_string())
        .arg("--seed")
        .arg(cfg.seed.to_string())
        .arg("--hedge-ms")
        .arg(cfg.hedge_ms.to_string())
        .arg("--probe-interval-ms")
        .arg(cfg.probe_interval_ms.to_string());
    for (name, addr) in backends {
        cmd.arg("--backend").arg(format!("{name}={addr}"));
    }
    child::spawn_with_banner(&mut cmd, SPAWN_TIMEOUT)
}

/// Feeds one crash into the slot's tracker and records the verdict in
/// the registry. The caller has already reaped the child (if any).
fn crash_decide(cfg: &FleetConfig, registry: &Registry, slot: &mut Slot) {
    slot.child = None;
    slot.addr = None;
    slot.up_since = None;
    slot.stable_reported = false;
    match slot.tracker.on_crash(cfg.seed, &slot.spec.name) {
        RestartDecision::Restart { attempt, delay } => {
            registry.mark_restarting(&slot.spec.name);
            slot.restart_due = Some(Instant::now() + delay);
            if cfg.log {
                eprintln!(
                    "mcc fleet: shard {} down; restart #{attempt} in {delay:?}",
                    slot.spec.name
                );
            }
        }
        RestartDecision::Quarantine => {
            slot.quarantined = true;
            slot.restart_due = None;
            registry.mark_quarantined(&slot.spec.name);
            if cfg.log {
                eprintln!(
                    "mcc fleet: shard {} quarantined after {} restarts ({} crashes)",
                    slot.spec.name,
                    slot.tracker.restarts(),
                    slot.tracker.crashes()
                );
            }
        }
    }
}

/// One admin frame to the router, best-effort, with a readable id.
fn router_frame(inner_addr: &str, line: &str) -> Result<String, String> {
    child::line_call(inner_addr, line, Duration::from_secs(2))
}

/// The supervisor loop: reap exits, run restarts that are due, ping for
/// heartbeats, keep the router alive, maintain ring membership.
fn supervise(
    cfg: &FleetConfig,
    registry: &Registry,
    inner: &Arc<Mutex<Inner>>,
    stop: &AtomicBool,
    frames: &AtomicU64,
) {
    while !stop.load(Ordering::SeqCst) {
        {
            let mut inner = inner.lock().unwrap();
            let inner = &mut *inner;

            // 1. Reap dead shards and decide restart vs quarantine.
            for slot in &mut inner.slots {
                let exited = match slot.child.as_mut() {
                    Some(ch) => match ch.try_wait() {
                        Ok(Some(status)) => {
                            if cfg.log {
                                eprintln!(
                                    "mcc fleet: reaped shard {} (status {status})",
                                    slot.spec.name
                                );
                            }
                            true
                        }
                        Ok(None) => false,
                        Err(_) => true,
                    },
                    None => false,
                };
                if exited {
                    // Membership first: tell the router the shard is
                    // gone so its keys move to ring successors instead
                    // of burning the breaker on a dead address.
                    let id = format!(
                        "fleet-leave-{}-{}",
                        slot.spec.name,
                        frames.fetch_add(1, Ordering::Relaxed)
                    );
                    let _ = router_frame(
                        &inner.router_addr,
                        &proto::leave_line(&id, &slot.spec.name),
                    );
                    registry.mark_joined(&slot.spec.name, false);
                    crash_decide(cfg, registry, slot);
                }
            }

            // 2. Restarts that have cleared their backoff.
            for slot in &mut inner.slots {
                let due = slot
                    .restart_due
                    .is_some_and(|t| Instant::now() >= t);
                if !due || slot.quarantined {
                    continue;
                }
                slot.restart_due = None;
                registry.mark_restart_attempt(&slot.spec.name);
                match spawn_shard(cfg, &slot.spec, false) {
                    Ok((ch, addr)) => {
                        slot.child = Some(ch);
                        slot.addr = Some(addr.clone());
                        slot.up_since = Some(Instant::now());
                        slot.last_ok = Instant::now();
                        slot.stable_reported = false;
                        slot.incarnation += 1;
                        registry.mark_up(&slot.spec.name, &addr);
                        if cfg.log {
                            eprintln!(
                                "mcc fleet: shard {} back up at {addr} (life {})",
                                slot.spec.name, slot.incarnation
                            );
                        }
                        let id = format!(
                            "fleet-join-{}-{}",
                            slot.spec.name,
                            frames.fetch_add(1, Ordering::Relaxed)
                        );
                        match router_frame(
                            &inner.router_addr,
                            &proto::join_line(&id, &slot.spec.name, &addr),
                        ) {
                            Ok(resp) if Response::field_num(&resp, "code") == Some(200) => {
                                registry.mark_joined(&slot.spec.name, true);
                                if cfg.log {
                                    eprintln!(
                                        "mcc fleet: shard {} rejoined the ring",
                                        slot.spec.name
                                    );
                                }
                            }
                            Ok(resp) => {
                                if cfg.log {
                                    eprintln!(
                                        "mcc fleet: join for {} rejected: {}",
                                        slot.spec.name,
                                        resp.trim_end()
                                    );
                                }
                            }
                            Err(e) => {
                                // Router down? Its own respawn path
                                // re-fronts every Up shard.
                                if cfg.log {
                                    eprintln!(
                                        "mcc fleet: join for {} failed: {e}",
                                        slot.spec.name
                                    );
                                }
                            }
                        }
                    }
                    Err(e) => {
                        if cfg.log {
                            eprintln!(
                                "mcc fleet: respawn of {} failed: {e}",
                                slot.spec.name
                            );
                        }
                        crash_decide(cfg, registry, slot);
                    }
                }
            }

            // 3. Heartbeats: ping Up shards, kill the silent ones.
            for slot in &mut inner.slots {
                let Some(addr) = slot.addr.clone() else { continue };
                if Instant::now() < slot.next_heartbeat {
                    continue;
                }
                slot.next_heartbeat = Instant::now() + HEARTBEAT_INTERVAL;
                let id = format!(
                    "fleet-hb-{}-{}",
                    slot.spec.name,
                    frames.fetch_add(1, Ordering::Relaxed)
                );
                let ping = format!("{{\"op\":\"ping\",\"id\":\"{id}\"}}\n");
                match child::line_call(&addr, &ping, HEARTBEAT_INTERVAL.max(Duration::from_millis(250))) {
                    Ok(pong) if Response::field_str(&pong, "pong").is_some() => {
                        slot.last_ok = Instant::now();
                        registry.heartbeat(
                            &slot.spec.name,
                            Response::field_num(&pong, "queue_depth").unwrap_or(0),
                            Response::field_str(&pong, "draining").as_deref() == Some("true"),
                        );
                        if !slot.stable_reported
                            && slot
                                .up_since
                                .is_some_and(|t| t.elapsed() >= cfg.stable_after)
                        {
                            slot.tracker.on_stable();
                            slot.stable_reported = true;
                            if cfg.log {
                                eprintln!(
                                    "mcc fleet: shard {} stable; restart budget refilled",
                                    slot.spec.name
                                );
                            }
                        }
                    }
                    _ => {
                        if slot.last_ok.elapsed() >= UNHEALTHY_AFTER {
                            if cfg.log {
                                eprintln!(
                                    "mcc fleet: shard {} unresponsive for {:?}; killing it",
                                    slot.spec.name,
                                    slot.last_ok.elapsed()
                                );
                            }
                            if let Some(ch) = slot.child.as_mut() {
                                child::reap(ch);
                            }
                            // The reap above already waited; the next
                            // tick's try_wait sees no child, so take the
                            // crash path here.
                            let id = format!(
                                "fleet-leave-{}-{}",
                                slot.spec.name,
                                frames.fetch_add(1, Ordering::Relaxed)
                            );
                            let _ = router_frame(
                                &inner.router_addr,
                                &proto::leave_line(&id, &slot.spec.name),
                            );
                            registry.mark_joined(&slot.spec.name, false);
                            crash_decide(cfg, registry, slot);
                        }
                    }
                }
            }

            // 4. Keep the router itself alive.
            let router_dead = match inner.router.as_mut() {
                Some(r) => matches!(r.try_wait(), Ok(Some(_)) | Err(_)),
                None => true,
            };
            if router_dead && !stop.load(Ordering::SeqCst) {
                inner.router = None;
                let up: Vec<(String, String)> = inner
                    .slots
                    .iter()
                    .filter_map(|s| s.addr.clone().map(|a| (s.spec.name.clone(), a)))
                    .collect();
                if !up.is_empty() {
                    // Respawn on the same port so clients holding the
                    // old address keep working.
                    let mut rcfg = cfg.clone();
                    if let Some(port) = inner.router_addr.rsplit(':').next() {
                        if let Ok(p) = port.parse::<u16>() {
                            rcfg.router_port = p;
                        }
                    }
                    match spawn_router(&rcfg, &up) {
                        Ok((ch, addr)) => {
                            if cfg.log {
                                eprintln!("mcc fleet: router respawned at {addr}");
                            }
                            inner.router = Some(ch);
                            inner.router_addr = addr;
                            for (name, _) in &up {
                                registry.mark_joined(name, true);
                            }
                        }
                        Err(e) => {
                            if cfg.log {
                                eprintln!("mcc fleet: router respawn failed: {e}; will retry");
                            }
                        }
                    }
                }
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
