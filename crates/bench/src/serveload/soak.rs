//! `--chaos-soak`: the self-healing proof. A real supervised fleet
//! (router + shards as child processes under [`mcc_fleet::Fleet`]) is
//! driven through several paced bursts while a seeded kill schedule
//! SIGKILLs one shard mid-burst — including, once, a shard sabotaged to
//! crash-loop on respawn. The gates are the fleet's whole value
//! proposition:
//!
//! * **zero accepted requests dropped** across every burst, kills and
//!   all — failover plus live `leave`/`join` ring membership absorb the
//!   losses;
//! * every killed healthy shard **restarts and serves again** — its
//!   `"backend"` tag reappears on ring-owned keys after rejoin;
//! * the sabotaged shard is **quarantined after its restart budget**,
//!   not hot-looped, and no healthy shard is ever quarantined;
//! * checksums stay conformant fleet-wide.
//!
//! Determinism split, as everywhere in `bench-serve`: the schedule and
//! the verdict lines on stdout are pure functions of the seed (CI diffs
//! them across `--jobs`); latency, inflation ratios, and served counts
//! go to stderr and `BENCH_serve.json`.

use super::*;
use mcc_fleet::child::line_call;
use mcc_fleet::{Fleet, FleetConfig, ShardSpec, ShardState};
use mcc_harness::backoff::BackoffConfig;
use mcc_harness::restart::RestartPolicy;
use mcc_route::RouteConfig;

/// The sabotage shard: comes up healthy, but its respawn argv is
/// deliberately unparseable, so every post-kill life dies before the
/// banner and the restart budget drains to quarantine.
const SABOTAGE: &str = "bx";

/// After a healthy victim rejoins: compile a handful of keys the ring
/// places on it (analytically, over the currently joined members) and
/// count `200`s tagged with its name. Retries a few rounds — the join
/// frame lands asynchronously with the probe.
fn rejoin_served(
    addr: &str,
    fleet: &Fleet,
    entries: &[Entry],
    cfg: &LoadConfig,
    victim: &str,
    probe_base: usize,
) -> u64 {
    for _round in 0..50 {
        let members: Vec<String> = fleet
            .snapshot()
            .iter()
            .filter(|s| s.joined)
            .map(|s| s.name.clone())
            .collect();
        if !members.contains(&victim.to_string()) {
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        let ring = mcc_route::Ring::new(&members, RouteConfig::default().vnodes);
        let mut served = 0u64;
        let mut sent = 0usize;
        let mut j = 0usize;
        while sent < 8 && j < 16_384 {
            let entry = pick(cfg.seed, j, entries.len());
            let e = &entries[entry];
            let point = mcc_route::point_for(e.machine, "yalll", &nonce_src(e, probe_base + j));
            if members[ring.primary(point)] == victim {
                sent += 1;
                let line = proto_line(e, probe_base + j, "rejoin");
                if let Ok(resp) = line_call(addr, &line, Duration::from_secs(15)) {
                    let s = Sample::of(j, entry, &resp, 0);
                    if s.code == 200 && s.backend == victim {
                        served += 1;
                    }
                }
            }
            j += 1;
        }
        if served > 0 {
            return served;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    0
}

/// The soak driver. See the module docs for the gates.
pub(super) fn run(cfg: &LoadConfig) -> Result<(), String> {
    if cfg.backends < 2 {
        return Err("--chaos-soak needs --backends >= 2 (someone must survive)".to_string());
    }
    if cfg.bursts < 4 {
        return Err(
            "--chaos-soak needs --bursts >= 4 (a baseline plus at least three kills)".to_string(),
        );
    }
    let entries = corpus();
    let total = requests(cfg).max(8);
    let n = cfg.backends;
    let bursts = cfg.bursts;
    let healthy: Vec<String> = (0..n).map(|i| format!("b{i}")).collect();

    // ---- the seeded schedule (stdout; pure function of the seed) ----
    // The sabotage kill lands mid-sequence so healthy kills bracket it.
    let sab_burst = 1 + (bursts - 2) / 2;
    let mut schedule: Vec<(usize, String, usize)> = Vec::new();
    for b in 1..bursts {
        let kill_at =
            total / 4 + (splitmix64(cfg.seed ^ 0x50AC ^ b as u64) % (total / 2).max(1) as u64) as usize;
        let victim = if b == sab_burst {
            SABOTAGE.to_string()
        } else {
            healthy[(splitmix64(cfg.seed ^ 0xC1A05 ^ b as u64) % n as u64) as usize].clone()
        };
        schedule.push((b, victim, kill_at));
    }

    println!(
        "bench-serve chaos-soak seed={} rps={} duration_ms={} bursts={bursts} backends={n} \
         requests_per_burst={total} corpus={} shards=[{} {SABOTAGE}]",
        cfg.seed,
        cfg.rps,
        cfg.duration_ms,
        entries.len(),
        healthy.join(" ")
    );
    for (b, victim, kill_at) in &schedule {
        println!("schedule burst={b} victim={victim} kill_at={kill_at}");
    }

    // ---- the fleet ----
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cache_root = std::env::temp_dir().join(format!("mcc-bench-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_root);
    let mut fcfg = FleetConfig::new(exe, cache_root.clone());
    fcfg.workers = cfg.workers;
    fcfg.queue_bound = cfg.queue_bound;
    fcfg.seed = cfg.seed;
    fcfg.hedge_ms = 0; // exactly-once attribution: no hedges
    fcfg.probe_interval_ms = 25;
    fcfg.restart = RestartPolicy {
        budget: 2,
        backoff: BackoffConfig {
            base: Duration::from_millis(50),
            cap: Duration::from_millis(250),
        },
    };
    fcfg.stable_after = Duration::from_millis(500);
    fcfg.log = true;
    let budget = fcfg.restart.budget;

    let mut specs: Vec<ShardSpec> = healthy.iter().map(|name| ShardSpec::stock(name)).collect();
    specs.push(ShardSpec {
        name: SABOTAGE.to_string(),
        argv: None,
        restart_argv: Some(vec![
            "serve".to_string(),
            "--port".to_string(),
            "not-a-port".to_string(),
        ]),
    });
    // An early return drops the fleet, which reaps every child.
    let mut fleet = Fleet::start(fcfg, specs)?;
    if !fleet.wait_until(Duration::from_secs(30), |shards| {
        shards.iter().all(|s| s.state == ShardState::Up && s.joined)
    }) {
        return Err("fleet never became fully up and joined".to_string());
    }
    let addr = fleet.router_addr();

    // Nonce ranges: bursts, warm-up, and rejoin probes must never share
    // a cache key, or a request stops being a genuine cold compile.
    let stride = total + entries.len() + 1;
    let warm_base = bursts * stride;
    let probe_stride = 16_384;
    let probe_base = |b: usize| warm_base + entries.len() + b * probe_stride;

    // Warm-up over the wire pins the canonical tier-0 checksums.
    let canonical = warm(&entries, warm_base, |line| {
        line_call(&addr, line, Duration::from_secs(30)).map_err(|e| format!("warm-up: {e}"))
    })?;

    // ---- the bursts ----
    let mut burst_rows: Vec<String> = Vec::new();
    let mut baseline_p99 = 0u64;
    let mut all_ok = true;
    let mut rejoins_ok = true;
    for b in 0..bursts {
        let kill = schedule
            .iter()
            .find(|(kb, _, _)| *kb == b)
            .map(|(_, v, at)| (*at, v.as_str()));
        // The client thread that draws the kill index SIGKILLs the
        // victim's child first; the supervisor reaps and heals it while
        // the burst is still running.
        let victim = kill.map_or("", |(_, v)| v);
        let strike = || {
            fleet.kill_shard(victim);
        };
        let start = Instant::now();
        // A failed call leaves no sample: that request counts as
        // dropped and fails the gate.
        let samples = burst(
            cfg,
            &entries,
            total,
            b * stride,
            "soak",
            kill.map(|(at, _)| (at, &strike as &(dyn Fn() + Sync))),
            |_, line| line_call(&addr, line, Duration::from_secs(15)).ok(),
        );
        let elapsed_ms = start.elapsed().as_millis() as u64;

        let dropped = total - samples.len();
        let conforms = mismatches(&samples, &canonical) == 0;
        if dropped != 0 || !conforms {
            all_ok = false;
        }
        let [p50, p95, p99] = percentiles(&samples, [50, 95, 99]);
        if b == 0 {
            baseline_p99 = p99.max(1);
        }
        let (ok200, shed) = (count(&samples, 200), count(&samples, 503));

        let mut served_after = 0u64;
        let mut verdict_tail = String::new();
        match kill {
            Some((_, victim)) if victim != SABOTAGE => {
                // The healed shard must come back, rejoin the ring, and
                // serve its own keys again.
                let back = fleet.wait_until(Duration::from_secs(30), |shards| {
                    shards
                        .iter()
                        .any(|s| s.name == victim && s.state == ShardState::Up && s.joined)
                });
                served_after = if back {
                    rejoin_served(&addr, &fleet, &entries, cfg, victim, probe_base(b))
                } else {
                    0
                };
                if served_after == 0 {
                    rejoins_ok = false;
                }
                verdict_tail = format!(
                    " victim={victim} rejoined={} rejoin_served={}",
                    verdict(back),
                    verdict(served_after > 0)
                );
            }
            Some((_, victim)) => {
                // The sabotaged shard must drain its budget and land in
                // quarantine — never hot-loop.
                let quarantined = fleet.wait_until(Duration::from_secs(30), |shards| {
                    shards
                        .iter()
                        .any(|s| s.name == victim && s.state == ShardState::Quarantined)
                });
                if !quarantined {
                    all_ok = false;
                }
                verdict_tail = format!(" victim={victim} quarantined={}", verdict(quarantined));
            }
            None => {}
        }

        println!("burst={b} dropped={dropped} conformance={}{verdict_tail}", verdict(conforms));
        let inflation_pct = p99 * 100 / baseline_p99;
        // Served-by-backend tally: timing-dependent (failover and the
        // in-burst rejoin shift it), so stderr only.
        let mut by_backend: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
        for s in samples.iter().filter(|s| s.code == 200 && !s.backend.is_empty()) {
            *by_backend.entry(s.backend.as_str()).or_insert(0) += 1;
        }
        let served: Vec<String> =
            by_backend.iter().map(|(name, c)| format!("{name}:{c}")).collect();
        eprintln!(
            "soak burst={b} elapsed_ms={elapsed_ms} ok={ok200} shed503={shed} \
             p50us={p50} p95us={p95} p99us={p99} p99_inflation_pct={inflation_pct} \
             rejoin_served={served_after} served=[{}]",
            served.join(" ")
        );
        burst_rows.push(format!(
            "{{\"burst\":{b},\"victim\":\"{}\",\"kill_at\":{},\"requests\":{total},\
             \"responses\":{},\"dropped\":{dropped},\"ok\":{ok200},\"shed\":{shed},\
             \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\
             \"p99_inflation_pct\":{inflation_pct},\"rejoin_served\":{served_after},\
             \"elapsed_ms\":{elapsed_ms}}}",
            kill.map_or("", |(_, v)| v),
            kill.map_or(-1i64, |(at, _)| at as i64),
            samples.len()
        ));
    }

    // ---- fleet-wide verdicts ----
    let snapshot = fleet.snapshot();
    let quarantined: Vec<String> = snapshot
        .iter()
        .filter(|s| s.state == ShardState::Quarantined)
        .map(|s| s.name.clone())
        .collect();
    let healthy_quarantined: Vec<&String> =
        quarantined.iter().filter(|q| q.as_str() != SABOTAGE).collect();
    let sab = snapshot.iter().find(|s| s.name == SABOTAGE);
    let sab_restarts = sab.map_or(0, |s| s.restarts);
    let budget_held = sab_restarts == u64::from(budget);

    println!(
        "chaos-soak verdict: dropped={} conformance={} rejoins={} quarantined=[{}] \
         healthy_quarantined={} restart_budget={}",
        verdict(all_ok),
        verdict(all_ok),
        verdict(rejoins_ok),
        quarantined.join(" "),
        if healthy_quarantined.is_empty() { "none" } else { "VIOLATED" },
        verdict(budget_held)
    );

    let quarantined_json: Vec<String> = quarantined.iter().map(|q| format!("\"{q}\"")).collect();
    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve\",\"mode\":\"chaos-soak\",\"seed\":{},\"rps\":{},\
             \"duration_ms\":{},\"clients\":{},\"backends\":{n},\"bursts\":{bursts},\
             \"restart_budget\":{budget},\"sabotage\":\"{SABOTAGE}\",\
             \"sabotage_restarts\":{sab_restarts},\"quarantined\":[{}]",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            quarantined_json.join(",")
        ),
        Some(("bursts_detail", &burst_rows)),
    )?;

    fleet.shutdown();
    let _ = std::fs::remove_dir_all(&cache_root);

    if !all_ok {
        return Err("chaos-soak: a burst dropped requests, broke conformance, or missed quarantine"
            .to_string());
    }
    if !rejoins_ok {
        return Err("chaos-soak: a killed shard never served again after rejoin".to_string());
    }
    if !healthy_quarantined.is_empty() {
        return Err(format!(
            "chaos-soak: healthy shards were quarantined: {healthy_quarantined:?}"
        ));
    }
    if quarantined.iter().all(|q| q != SABOTAGE) {
        return Err("chaos-soak: the sabotaged shard escaped quarantine".to_string());
    }
    if !budget_held {
        return Err(format!(
            "chaos-soak: sabotage restarts {sab_restarts} != budget {budget}"
        ));
    }
    Ok(())
}
