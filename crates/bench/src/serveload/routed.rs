//! The routed modes: `--backends N` scaling bursts over an in-process
//! fleet, and `--kill-at K` chaos bursts over spawned `mcc serve`
//! children with one shard SIGKILLed mid-run.
//!
//! The determinism split is the same as the single-server mode, with
//! one addition: the *placement* stdout table is computed analytically
//! from the ring (a pure function of seed, corpus, and backend names),
//! never from which shard actually answered — hedging and failover make
//! the served counts timing-dependent, so those go to stderr and JSON.

use super::*;
use mcc_route::{Backend, InProcBackend, RouteConfig, Router, TcpBackend};
use std::sync::Mutex;

/// Fleet sizes for the scaling table: 1, 2, 4, … doubling up to and
/// including `n`.
fn fleet_sizes(n: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut s = 1;
    while s < n {
        v.push(s);
        s *= 2;
    }
    v.push(n);
    v
}

/// Shard names for a fleet of `n` (ring placement hashes these, so
/// they are part of the deterministic contract).
fn names(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("b{i}")).collect()
}

/// The analytic primary-placement counts for the burst: which shard
/// the ring gives each scheduled request, ignoring runtime health.
pub(super) fn placement_counts(
    cfg: &LoadConfig,
    entries: &[Entry],
    n: usize,
    total: usize,
    nonce_base: usize,
) -> Vec<u64> {
    let ring = mcc_route::Ring::new(&names(n), RouteConfig::default().vnodes);
    let mut counts = vec![0u64; n];
    for k in 0..total {
        let e = &entries[pick(cfg.seed, k, entries.len())];
        let point = mcc_route::point_for(e.machine, "yalll", &nonce_src(e, nonce_base + k));
        counts[ring.primary(point)] += 1;
    }
    counts
}

/// `--backends N` without `--kill-at`: one routed burst per fleet
/// size (1, 2, 4, … N) over in-process shards, with the analytic
/// placement table on stdout and the scaling numbers in the JSON.
pub(super) fn run_scaling(cfg: &LoadConfig) -> Result<(), String> {
    let entries = corpus();
    let total = requests(cfg);
    // Distinct nonce ranges per fleet run: the cache is process-wide
    // and every request must stay a genuine cold compile.
    let stride = total + entries.len() + 1;

    println!(
        "bench-serve scaling seed={} rps={} duration_ms={} requests={} corpus={} fleets={:?}",
        cfg.seed,
        cfg.rps,
        cfg.duration_ms,
        total,
        entries.len(),
        fleet_sizes(cfg.backends)
    );

    let mut scaling_rows = Vec::new();
    for (run_idx, n) in fleet_sizes(cfg.backends).into_iter().enumerate() {
        let nonce_base = run_idx * stride;
        let shards: Vec<Arc<dyn Backend>> = names(n)
            .iter()
            .map(|name| {
                Arc::new(InProcBackend::new(
                    name,
                    Arc::new(Server::start(ServeConfig {
                        workers: cfg.workers,
                        queue_bound: cfg.queue_bound,
                        ..ServeConfig::default()
                    })),
                )) as Arc<dyn Backend>
            })
            .collect();
        let router = Router::new(
            shards,
            RouteConfig {
                seed: cfg.seed,
                ..RouteConfig::default()
            },
        );

        let canonical = warm(&entries, nonce_base + total, |line| {
            Ok(router.handle_line(line, "warmup"))
        })?;
        let start = Instant::now();
        let samples = burst(cfg, &entries, total, nonce_base, "client", None, |who, line| {
            Some(router.handle_line(line, who))
        });
        let elapsed_ms = start.elapsed().as_millis() as u64;
        router.drain();

        let dropped = total - samples.len();
        let conforms = mismatches(&samples, &canonical) == 0;
        let placement = placement_counts(cfg, &entries, n, total, nonce_base);
        let placed: Vec<String> = placement
            .iter()
            .enumerate()
            .map(|(i, c)| format!("b{i}:{c}"))
            .collect();
        println!(
            "scaling backends={n} requests={total} placement=[{}] dropped={dropped} conformance={}",
            placed.join(" "),
            verdict(conforms)
        );

        let (ok, shed) = (count(&samples, 200), count(&samples, 503));
        let [p50, p95, p99] = percentiles(&samples, [50, 95, 99]);
        let throughput = (samples.len() as u64 * 1000).checked_div(elapsed_ms).unwrap_or(0);
        let c = router.counters();
        let (failovers, hedges) = (
            c.failovers.load(Ordering::Relaxed),
            c.hedges.load(Ordering::Relaxed),
        );
        eprintln!(
            "scaling backends={n} elapsed_ms={elapsed_ms} ok={ok} shed503={shed} \
             p50us={p50} p95us={p95} p99us={p99} throughput_rps={throughput} \
             failovers={failovers} hedges={hedges}"
        );
        scaling_rows.push(format!(
            "{{\"backends\":{n},\"requests\":{total},\"ok\":{ok},\"shed\":{shed},\
             \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\
             \"throughput_rps\":{throughput},\"failovers\":{failovers},\
             \"hedges\":{hedges}}}"
        ));

        if dropped != 0 {
            return Err(format!("scaling backends={n}: {dropped} requests got no response"));
        }
        if !conforms {
            return Err(format!("scaling backends={n}: checksum conformance violated"));
        }
    }

    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve\",\"mode\":\"scaling\",\"seed\":{},\"rps\":{},\
             \"duration_ms\":{},\"clients\":{},\"workers\":{},\"queue_bound\":{},\
             \"backends\":{}",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            cfg.workers,
            cfg.queue_bound,
            cfg.backends
        ),
        Some(("scaling", &scaling_rows)),
    )
}

/// Deterministic overload proof for the kill mode: after the burst,
/// concentrate more in-flight cold compiles on one surviving shard
/// than its admission bound admits. The shard must answer the
/// overflow with structured `503`s — shedding, not queueing without
/// bound — and the router must pass them through untouched. Keys are
/// chosen analytically so every probe request is ring-owned by the
/// target shard; the probe stops shortly after the first shed.
fn overload_probe(
    router: &Router,
    entries: &[Entry],
    cfg: &LoadConfig,
    target: usize,
    n: usize,
    nonce_base: usize,
) -> u64 {
    let ring = mcc_route::Ring::new(&names(n), RouteConfig::default().vnodes);
    let threads = cfg.queue_bound * 2 + 4;
    let cap = threads * 50;
    // Scan nonces for keys the ring places on the target shard.
    let mut owned = Vec::with_capacity(cap);
    let mut j = 0usize;
    while owned.len() < cap && j < cap * n * 4 {
        let entry = pick(cfg.seed, j, entries.len());
        let e = &entries[entry];
        let point = mcc_route::point_for(e.machine, "yalll", &nonce_src(e, nonce_base + j));
        if ring.primary(point) == target {
            owned.push((j, entry));
        }
        j += 1;
    }
    let shed = AtomicU64::new(0);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if shed.load(Ordering::Relaxed) > 0 {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(j, entry)) = owned.get(i) else { break };
                let line = proto_line(&entries[entry], nonce_base + j, "overload");
                let resp = router.handle_line(&line, "overload");
                if Response::field_num(&resp, "code") == Some(503) {
                    shed.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    shed.load(Ordering::Relaxed)
}

/// One spawned `mcc serve` child and the address it bound.
pub(super) struct Shard {
    pub(super) child: Mutex<std::process::Child>,
    pub(super) addr: String,
}

/// Kills every child on drop — panics and early `?` returns must
/// not leak daemon processes.
pub(super) struct FleetGuard(pub(super) Vec<Shard>);

impl Drop for FleetGuard {
    fn drop(&mut self) {
        for s in &self.0 {
            mcc_fleet::child::reap(&mut s.child.lock().unwrap());
        }
    }
}

/// Spawns one `mcc serve --port 0` child with its own cache dir and
/// waits for the address it reports.
pub(super) fn spawn_shard(cfg: &LoadConfig, cache_dir: &std::path::Path) -> Result<Shard, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["serve", "--port", "0", "--jobs", &cfg.workers.to_string()])
        .args(["--queue-bound", &cfg.queue_bound.to_string()])
        .env("MCC_CACHE_DIR", cache_dir);
    let (child, addr) = mcc_fleet::child::spawn_with_banner(&mut cmd, Duration::from_secs(10))
        .map_err(|e| format!("spawning mcc serve: {e}"))?;
    Ok(Shard {
        child: Mutex::new(child),
        addr,
    })
}

/// `--backends N --kill-at K`: a routed burst over real `mcc serve`
/// children with the seed-chosen victim SIGKILLed when request `K`
/// is drawn. Proves zero dropped requests, checksum conformance,
/// failover to the ring successor, and victim quiescence.
pub(super) fn run_kill(cfg: &LoadConfig, kill_at: usize) -> Result<(), String> {
    if cfg.backends < 2 {
        return Err("--kill-at needs --backends >= 2 (someone must survive)".to_string());
    }
    let entries = corpus();
    let total = requests(cfg);
    if kill_at >= total {
        return Err(format!("--kill-at {kill_at} is past the last request ({total})"));
    }

    let n = cfg.backends;
    let victim = (splitmix64(cfg.seed ^ 0xdead) % n as u64) as usize;
    let victim_name = format!("b{victim}");

    let base = std::env::temp_dir().join(format!("mcc-bench-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut fleet = FleetGuard(Vec::new());
    for i in 0..n {
        fleet.0.push(spawn_shard(cfg, &base.join(format!("shard{i}")))?);
    }

    let backends: Vec<Arc<dyn Backend>> = fleet
        .0
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Arc::new(TcpBackend::new(&format!("b{i}"), &s.addr, cfg.seed, 2)) as Arc<dyn Backend>
        })
        .collect();
    let router = Arc::new(Router::new(
        backends,
        RouteConfig {
            seed: cfg.seed,
            probe_interval: Duration::from_millis(25),
            hedge_after: Some(Duration::from_millis(100)),
            ..RouteConfig::default()
        },
    ));
    Router::start_probes(&router);

    let canonical = warm(&entries, total, |line| Ok(router.handle_line(line, "warmup")))?;
    // Kill *and wait*: a SIGKILL without the `waitpid` leaves a zombie
    // holding a process-table slot for the rest of the run. The fleet
    // crate's reaper does both.
    let kill = || {
        mcc_fleet::child::reap(&mut fleet.0[victim].child.lock().unwrap());
    };
    let start = Instant::now();
    let samples = burst(cfg, &entries, total, 0, "client", Some((kill_at, &kill)), |who, line| {
        Some(router.handle_line(line, who))
    });
    let elapsed_ms = start.elapsed().as_millis() as u64;
    // Overload proof, while the survivors are still up: more
    // concurrent cold compiles than one shard's admission bound must
    // shed structured 503s, never queue without bound.
    let probe_target = (0..n).find(|&i| i != victim).expect("backends >= 2");
    let overload_shed =
        overload_probe(&router, &entries, cfg, probe_target, n, total + entries.len());
    router.drain();

    // ---- invariants ----
    let dropped = total - samples.len();
    let conforms = mismatches(&samples, &canonical) == 0;
    let c = router.counters();
    let (failovers, hedges) = (
        c.failovers.load(Ordering::Relaxed),
        c.hedges.load(Ordering::Relaxed),
    );
    // Victim quiescence: past the kill index plus a scheduling
    // margin, the dead shard must serve nothing. The margin covers
    // requests drawn before the kill but sent around it.
    let margin = cfg.clients * 2 + (cfg.rps / 10) as usize;
    let late_victim = samples
        .iter()
        .filter(|s| s.k >= kill_at + margin && s.backend == victim_name)
        .count();
    // Successor takeover: at least one post-kill request whose ring
    // primary was the victim answered 200 from a surviving shard.
    let ring = mcc_route::Ring::new(&names(n), RouteConfig::default().vnodes);
    let takeover = samples.iter().any(|s| {
        let e = &entries[s.entry];
        s.k > kill_at
            && s.code == 200
            && ring.primary(mcc_route::point_for(e.machine, "yalll", &nonce_src(e, s.k)))
                == victim
            && !s.backend.is_empty()
            && s.backend != victim_name
    });

    println!(
        "bench-serve kill seed={} rps={} duration_ms={} requests={} backends={n} \
         kill_at={kill_at} victim={victim_name}",
        cfg.seed, cfg.rps, cfg.duration_ms, total
    );
    println!(
        "dropped={dropped} conformance={} victim_quiesced={} successor_takeover={} \
         overload_shed={}",
        verdict(conforms),
        verdict(late_victim == 0),
        verdict(takeover),
        verdict(overload_shed > 0)
    );

    let (ok, shed) = (count(&samples, 200), count(&samples, 503));
    let [p50, p95, p99] = percentiles(&samples, [50, 95, 99]);
    let throughput = (samples.len() as u64 * 1000).checked_div(elapsed_ms).unwrap_or(0);
    let served: Vec<String> = router
        .backend_names()
        .into_iter()
        .map(|name| format!("{name}:{}", router.served_of(&name).unwrap_or(0)))
        .collect();
    eprintln!(
        "kill timing: clients={} elapsed_ms={elapsed_ms} ok={ok} shed503={shed} \
         overload_shed={overload_shed} p50us={p50} p95us={p95} p99us={p99} \
         throughput_rps={throughput} failovers={failovers} hedges={hedges} served=[{}]",
        cfg.clients,
        served.join(" ")
    );
    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve\",\"mode\":\"kill\",\"seed\":{},\"rps\":{},\
             \"duration_ms\":{},\"clients\":{},\"backends\":{n},\"kill_at\":{kill_at},\
             \"victim\":\"{victim_name}\",\"requests\":{total},\"responses\":{},\
             \"dropped\":{dropped},\"ok\":{ok},\"shed\":{},\
             \"overload_shed\":{overload_shed},\"failovers\":{failovers},\
             \"hedges\":{hedges},\"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\
             \"throughput_rps\":{throughput},\"elapsed_ms\":{elapsed_ms},\
             \"conformance\":\"{}\"",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            samples.len(),
            shed + overload_shed,
            verdict(conforms)
        ),
        None,
    )?;

    drop(fleet);
    let _ = std::fs::remove_dir_all(&base);

    if dropped != 0 {
        return Err(format!("{dropped} requests got no response"));
    }
    if !conforms {
        return Err("checksum conformance violated".to_string());
    }
    if failovers == 0 {
        return Err("killing a shard mid-burst produced no failovers".to_string());
    }
    if late_victim != 0 {
        return Err(format!(
            "{late_victim} responses attributed to {victim_name} after the kill margin"
        ));
    }
    if !takeover {
        return Err("no victim-owned key was served by a surviving shard".to_string());
    }
    if overload_shed == 0 {
        return Err("overload probe produced no 503 shed on the surviving shard".to_string());
    }
    Ok(())
}
