//! The `--chaos-net` mode: a routed fleet driven through seeded
//! fault-injection proxies on **every** hop.
//!
//! Topology (all on 127.0.0.1):
//!
//! ```text
//! client ──chaos──▶ router(serve_lines) ──chaos──▶ shard b0 (mcc serve child)
//!                        │
//!                        └───────chaos──▶ shard b1 (mcc serve child)
//! ```
//!
//! Each proxy runs the full fault menu — resets (pre-write, mid-frame,
//! post-write), torn and corrupted frames, latency spikes, stalls,
//! trickle, duplication, black-holes — on a schedule that is a pure
//! function of its seed, which is itself derived from `--seed`. The
//! schedules print on stdout before anything binds a socket, so the
//! stdout transcript is seed-pure and byte-identical across `--clients`
//! and `--jobs` (the burst is deliberately a single closed-loop client:
//! the *wire* is the variable under test, not the concurrency).
//!
//! Gates (any violation is a hard error):
//! * **dropped = 0** — every request gets a response despite the faults;
//! * **double_executions = 0** — proven by a cache-counter ledger: every
//!   request is a cold compile with a unique nonce, so each execution is
//!   exactly one `cache_misses` tick on exactly one shard; Σ misses
//!   above the 200-response count means a retry or failover re-executed;
//! * **corrupt_accepted = 0** — no 200 carries a checksum that differs
//!   from the locally-pinned canon (a corrupted frame that slipped past
//!   the envelope checksum would land here);
//! * **fault_kinds = 11/11** — every fault kind injected at least once.

use super::*;
use mcc_chaosnet::{schedule_text, ChaosProxy, FaultPlan, KIND_COUNT};
use mcc_route::{Backend, RouteConfig, Router, TcpBackend};
use mcc_serve::proto;
use mcc_serve::tcp::LineHandler;
use std::net::TcpListener;
use std::sync::atomic::AtomicBool;

/// Per-proxy seeds, derived from the master seed and the proxy's slot
/// (0 = the front proxy, 1+i = shard i's proxy) so the three schedules
/// differ but remain a pure function of `--seed`.
fn proxy_seed(master: u64, slot: u64) -> u64 {
    splitmix64(master ^ (0xc11a_05ed ^ slot.wrapping_mul(0x9E37_79B9)))
}

pub(super) fn run(cfg: &LoadConfig) -> Result<(), String> {
    match cfg.proto {
        None => run_pass(cfg, false, None),
        Some(ProtoChoice::V1) => run_pass(cfg, false, Some("v1")),
        Some(ProtoChoice::V2) => run_pass(cfg, true, Some("v2")),
        Some(ProtoChoice::Both) => {
            run_pass(cfg, false, Some("v1"))?;
            run_pass(cfg, true, Some("v2"))
        }
    }
}

/// One full chaos-net battery over the chosen wire. `v2` opts every
/// backend hop (client→router and router→shard) into the binary
/// protocol; the proxies sniff the dialect themselves. `tag` suffixes
/// the seed-pure stdout lines (`proto=v1|v2`) — absent on a plain
/// `--chaos-net` run so its transcript stays byte-identical to the
/// pre-`--proto` format.
fn run_pass(cfg: &LoadConfig, v2: bool, tag: Option<&str>) -> Result<(), String> {
    let proto_sfx = tag.map(|t| format!(" proto={t}")).unwrap_or_default();
    let n = match cfg.backends {
        0 => 2,
        1 => return Err("--chaos-net needs --backends >= 2 (or omit for the default 2)".to_string()),
        n => n,
    };
    let entries = corpus();
    let total = requests(cfg);
    let plan = FaultPlan::default();

    // Full-coverage pre-check, analytically (a pure function of the
    // seed): each shard proxy sees at least two frames per request the
    // ring places on it, and one full schedule cycle needs
    // `warm + 10·stride + 1` frames. Failing loudly here beats a
    // timing-dependent `fault_kinds` verdict later.
    let cycle_frames = plan.warm + (KIND_COUNT - 1) * plan.stride + 1;
    let need = cycle_frames.div_ceil(2);
    let placement = routed::placement_counts(cfg, &entries, n, total, 0);
    for (i, &c) in placement.iter().enumerate() {
        if c < need {
            return Err(format!(
                "--chaos-net: the ring places only {c} requests on b{i}, \
                 but full fault coverage needs >= {need}; raise --rps or --duration-ms"
            ));
        }
    }

    // ---- seed-pure stdout: header and every proxy's schedule ----
    println!(
        "bench-serve chaos-net seed={} rps={} duration_ms={} requests={} backends={n} \
         warm={} stride={}{proto_sfx}",
        cfg.seed, cfg.rps, cfg.duration_ms, total, plan.warm, plan.stride
    );
    print!("{}", schedule_text("front", proxy_seed(cfg.seed, 0), &plan));
    for i in 0..n {
        print!("{}", schedule_text(&format!("b{i}"), proxy_seed(cfg.seed, 1 + i as u64), &plan));
    }

    // ---- the fleet: real `mcc serve` children, fresh cache dirs ----
    let base = std::env::temp_dir().join(format!(
        "mcc-bench-chaosnet-{}{}",
        std::process::id(),
        tag.map(|t| format!("-{t}")).unwrap_or_default()
    ));
    let _ = std::fs::remove_dir_all(&base);
    let mut fleet = routed::FleetGuard(Vec::new());
    for i in 0..n {
        fleet.0.push(routed::spawn_shard(cfg, &base.join(format!("shard{i}")))?);
    }

    // One chaos proxy per shard hop, then the router over them. Hedging
    // is off and probing effectively off: every execution path must be
    // the retry protocol, nothing may paper over a lost frame by racing
    // a second backend (that would be a double execution by design).
    let mut shard_proxies = Vec::with_capacity(n);
    for (i, s) in fleet.0.iter().enumerate() {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("chaos-net: bind: {e}"))?;
        shard_proxies.push(
            ChaosProxy::start(l, &s.addr, proxy_seed(cfg.seed, 1 + i as u64), plan)
                .map_err(|e| format!("chaos-net: shard proxy: {e}"))?,
        );
    }
    let backends: Vec<Arc<dyn Backend>> = shard_proxies
        .iter()
        .enumerate()
        .map(|(i, p)| {
            Arc::new(
                TcpBackend::new(&format!("b{i}"), p.addr(), cfg.seed, 3)
                    .with_wire(Some(Duration::from_millis(250)), 5)
                    .with_proto2(v2),
            ) as Arc<dyn Backend>
        })
        .collect();
    let router = Arc::new(Router::new(
        backends,
        RouteConfig {
            seed: cfg.seed,
            hedge_after: None,
            probe_interval: Duration::from_secs(100),
            call_timeout: Some(Duration::from_millis(250)),
            call_retries: 5,
            ..RouteConfig::default()
        },
    ));

    // The router served over real TCP, fronted by its own chaos proxy.
    let stop = Arc::new(AtomicBool::new(false));
    let rlistener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("chaos-net: bind router: {e}"))?;
    let raddr = rlistener.local_addr().map_err(|e| e.to_string())?.to_string();
    let serve_thread = {
        let (router, stop) = (Arc::clone(&router), Arc::clone(&stop));
        std::thread::spawn(move || {
            let _ = mcc_serve::tcp::serve_lines(router as Arc<dyn LineHandler>, rlistener, stop);
        })
    };
    let fl = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("chaos-net: bind: {e}"))?;
    let mut front_proxy = ChaosProxy::start(fl, &raddr, proxy_seed(cfg.seed, 0), plan)
        .map_err(|e| format!("chaos-net: front proxy: {e}"))?;

    // Canonical checksums from a *local* in-process server, outside the
    // chaotic wire entirely (nonces past the burst range keep its cache
    // keys distinct from the shards'). Compilation is deterministic
    // across processes, so these pin what the shards must answer.
    let local = Server::start(ServeConfig {
        workers: cfg.workers,
        queue_bound: cfg.queue_bound.max(entries.len()),
        ..ServeConfig::default()
    });
    let canonical = warm(&entries, total, |line| Ok(local.handle_line(line, "canon").to_line()))?;
    local.drain();

    // ---- the burst: one sequential client, enveloped requests ----
    // The client is itself a `TcpBackend` — the same hardened wire code
    // the router uses — with a deadline comfortably above the router's
    // own per-hop retries, and rid = the request index, so a duplicate
    // or replayed frame anywhere downstream dedups at the shard.
    let front = TcpBackend::new("front", front_proxy.addr(), cfg.seed, 3)
        .with_wire(Some(Duration::from_millis(900)), 6)
        .with_proto2(v2);
    let start = Instant::now();
    let mut samples = Vec::with_capacity(total);
    let mut first_errors: Vec<String> = Vec::new();
    for k in 0..total {
        let entry = pick(cfg.seed, k, entries.len());
        let bare = proto_line(&entries[entry], k, "bench");
        let frame = proto::wrap_envelope("bench", k as u64, bare.trim_end());
        let sent = Instant::now();
        match front.call(&frame, "bench") {
            Ok(resp) => {
                let micros = sent.elapsed().as_micros() as u64;
                samples.push(Sample::of(k, entry, &resp, micros));
            }
            Err(e) => {
                if first_errors.len() < 5 {
                    first_errors.push(format!("k={k}: {e}"));
                }
            }
        }
    }
    let elapsed_ms = start.elapsed().as_millis() as u64;

    // ---- the ledger: shard stats over a clean wire (no proxies) ----
    let stats_line = "{\"op\":\"stats\"}\n";
    let mut misses = 0u64;
    let mut replayed = 0u64;
    let mut shard_corrupt = 0u64;
    let mut shard_oversized = 0u64;
    for s in &fleet.0 {
        let resp = mcc_fleet::child::line_call(&s.addr, stats_line, Duration::from_secs(5))
            .map_err(|e| format!("chaos-net: shard stats: {e}"))?;
        misses += Response::field_num(&resp, "cache_misses").unwrap_or(0);
        replayed += Response::field_num(&resp, "replayed").unwrap_or(0);
        shard_corrupt += Response::field_num(&resp, "corrupt_frames").unwrap_or(0);
        shard_oversized += Response::field_num(&resp, "oversized_frames").unwrap_or(0);
    }

    // ---- verdict ----
    let responses = samples.len();
    let dropped = total - responses;
    let ok200 = count(&samples, 200);
    let corrupt_accepted = mismatches(&samples, &canonical);
    let conforms = corrupt_accepted == 0;
    // Exactly-once: every 200 is one cold compile somewhere; a miss
    // beyond that count is the same request executed twice.
    let double_executions = misses.saturating_sub(ok200);
    let mut kinds: std::collections::BTreeSet<&'static str> = std::collections::BTreeSet::new();
    let mut injected_total = 0u64;
    let mut injected_detail: Vec<String> = Vec::new();
    for (name, p) in std::iter::once(("front", &front_proxy))
        .chain(shard_proxies.iter().enumerate().map(|(i, p)| (routed_name(i), p)))
    {
        for (kind, count) in p.injected() {
            if count > 0 {
                kinds.insert(kind);
                injected_total += count;
                injected_detail.push(format!("{name}/{kind}:{count}"));
            }
        }
    }
    let covered = kinds.len() as u64;

    println!(
        "chaos-net verdict: responses={responses} dropped={dropped} \
         corrupt_accepted={corrupt_accepted} double_executions={double_executions} \
         conformance={} fault_kinds={covered}/{KIND_COUNT}{proto_sfx}",
        verdict(conforms)
    );

    // ---- timing-dependent numbers (stderr + JSON) ----
    let [p50, p95, p99] = percentiles(&samples, [50, 95, 99]);
    let rc = router.counters();
    let (failovers, router_corrupt) = (
        rc.failovers.load(Ordering::Relaxed),
        rc.corrupt_frames.load(Ordering::Relaxed),
    );
    eprintln!(
        "chaos-net timing: elapsed_ms={elapsed_ms} ok={ok200} replayed={replayed} \
         shard_misses={misses} shard_corrupt={shard_corrupt} shard_oversized={shard_oversized} \
         router_corrupt={router_corrupt} failovers={failovers} injected={injected_total} \
         p50us={p50} p95us={p95} p99us={p99} per_kind=[{}]",
        injected_detail.join(" ")
    );
    for e in &first_errors {
        eprintln!("chaos-net dropped: {e}");
    }

    // On a `--proto both` run the v2 pass's report is the one that
    // survives; the self-describing `proto` field says which it is.
    let proto_json = tag.map(|t| format!("\"proto\":\"{t}\",")).unwrap_or_default();
    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve\",\"mode\":\"chaos-net\",{proto_json}\"seed\":{},\"rps\":{},\
             \"duration_ms\":{},\"backends\":{n},\"requests\":{total},\"responses\":{responses},\
             \"dropped\":{dropped},\"ok\":{ok200},\"replayed\":{replayed},\
             \"shard_misses\":{misses},\"double_executions\":{double_executions},\
             \"corrupt_accepted\":{corrupt_accepted},\"shard_corrupt\":{shard_corrupt},\
             \"router_corrupt\":{router_corrupt},\"failovers\":{failovers},\
             \"injected\":{injected_total},\"fault_kinds\":{covered},\
             \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\"elapsed_ms\":{elapsed_ms},\
             \"conformance\":\"{}\"",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            verdict(conforms)
        ),
        None,
    )?;

    // ---- teardown (before the gates, so failures don't leak children) ----
    front_proxy.stop();
    stop.store(true, Ordering::SeqCst);
    let _ = serve_thread.join();
    router.drain();
    for p in &mut shard_proxies {
        p.stop();
    }
    drop(fleet);
    let _ = std::fs::remove_dir_all(&base);

    if dropped != 0 {
        return Err(format!("chaos-net: {dropped} requests got no response"));
    }
    if ok200 != total as u64 {
        return Err(format!("chaos-net: {} responses were not 200", total as u64 - ok200));
    }
    if !conforms {
        return Err(format!(
            "chaos-net: {corrupt_accepted} corrupt responses were accepted as 200s"
        ));
    }
    if double_executions != 0 {
        return Err(format!(
            "chaos-net: cache ledger shows {double_executions} double executions"
        ));
    }
    if covered != KIND_COUNT {
        return Err(format!("chaos-net: only {covered}/{KIND_COUNT} fault kinds were injected"));
    }
    Ok(())
}

/// Shard proxy display names, leaked once — the injected-detail lines
/// borrow them for the lifetime of the report.
fn routed_name(i: usize) -> &'static str {
    leak_name(&format!("b{i}"))
}
