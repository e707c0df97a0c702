//! The `--diurnal` QoS mode: one abusive tenant against a seeded day
//! curve of well-behaved tenants, gating the whole per-tenant QoS
//! surface end to end.
//!
//! Two phases, each against its own in-process [`Server`]:
//!
//! 1. **WFQ share.** Five tenants queue their whole demand behind one
//!    held worker: four "free" tenants (weight 2, interactive) and one
//!    "abuser" (weight 1, batch), `FREE_DEMAND` compiles each. Weighted
//!    fair queueing gives each free tenant 4× the abuser's service rate
//!    (weight ratio 2:1 × class cost ratio 1:2), so when the free
//!    tenants finish, the abuser must have been served `FREE_DEMAND/4 ±
//!    10%` — the analytic share. WFQ's share guarantee is defined for
//!    backlogged tenants, and with every lane backlogged the service
//!    order is a function of the queue alone, so the share is exact at
//!    every seed. A FIFO queue would serve the abuser once per round
//!    before the last free answer, 199 times.
//! 2. **Diurnal isolation.** Three well-behaved interactive tenants are
//!    paced by a seeded segment curve (the "day"); the abuser floods
//!    from more threads than its queue quota admits. Gates: every
//!    well-behaved request answers `200` under the latency bound, the
//!    abuser is visibly throttled (quota `503`s), nothing is dropped,
//!    the `metrics` exposition parses as Prometheus text, and the
//!    `--trace` journal replays exactly — including after a torn tail
//!    is appended.
//!
//! stdout carries only seed-determined facts and the pass/fail verdicts
//! (byte-identical across `--clients`/`--jobs`); measured numbers go to
//! stderr and `BENCH_serve.json`.

use super::*;
use mcc_serve::{metrics, trace};
use std::sync::atomic::AtomicBool;

/// Per-free-tenant demand for the WFQ share phase.
const FREE_DEMAND: u64 = 200;
/// Free tenants in the share phase.
const FREE_TENANTS: usize = 4;
/// Well-behaved tenants in the diurnal phase.
const WB_TENANTS: usize = 3;
/// Requests per well-behaved tenant across the day curve.
const WB_DEMAND: usize = 150;
/// Segments in the day curve.
const SEGMENTS: usize = 6;
/// Base inter-arrival time at curve multiplier 1, microseconds.
const BASE_GAP_US: u64 = 8_000;
/// Abuser queue quota in the diurnal phase.
const QUOTA: usize = 4;
/// Abuser flood threads (must exceed the quota to trip it).
const ABUSER_THREADS: usize = 8;
/// Well-behaved p99 latency bound, microseconds.
const P99_BOUND_US: u64 = 500_000;

/// The wire frame for one QoS request. Distinct `k` ranges per tenant
/// keep every nonce (and so every cache key) unique within a phase.
fn qos_line(e: &Entry, k: usize, tenant: &str, class: &str) -> String {
    mcc_serve::proto::compile_line_qos(
        &format!("{tenant}-{k}"),
        e.machine,
        "yalll",
        &nonce_src(e, k),
        Some(tenant),
        Some(class),
    )
}

/// The day-curve rate multiplier for one tenant segment: 1–4×, a pure
/// function of the seed.
fn curve(seed: u64, tenant: usize, segment: usize) -> u64 {
    splitmix64(seed ^ ((tenant as u64) << 32) ^ segment as u64) % 4 + 1
}

/// Phase 1: the WFQ share, read from a held backlog. A gate compile (a
/// 48,000-statement straight line) holds the one worker while every
/// tenant's whole backlog is admitted round by round, so every lane is
/// backlogged from the first pop and the service order, which the trace
/// journal records, is a pure function of the queue. Returns
/// `(abuser_served_at_free_done, free_errors)`.
fn wfq_share_phase(cfg: &LoadConfig, entries: &[Entry]) -> Result<(u64, u64), String> {
    let trace_path = std::env::temp_dir().join(format!(
        "mcc-bench-share-{}-{}.jsonl",
        std::process::id(),
        cfg.seed
    ));
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_bound: 4096,
        deadline: Duration::from_secs(120),
        tenant_weights: (0..FREE_TENANTS).map(|t| (format!("free{t}"), 2)).collect(),
        trace_path: Some(trace_path.clone()),
        ..ServeConfig::default()
    });
    let wfq_depth = || {
        let stats = server.handle_line("{\"op\":\"stats\"}\n", "bench").to_line();
        Response::field_num(&stats, "wfq_depth").unwrap_or(0)
    };
    // The frames are built before the gate starts, so that admission is
    // only intake, and the gate outlasts it many times over.
    let mut backlog = Vec::new();
    for j in 0..FREE_DEMAND as usize {
        for t in 0..FREE_TENANTS {
            let (tenant, k) = (format!("free{t}"), (t + 1) * 1_000_000 + j);
            let e = &entries[pick(cfg.seed, k, entries.len())];
            backlog.push((qos_line(e, k, &tenant, "interactive"), tenant));
        }
        let k = 9_000_000 + j;
        let e = &entries[pick(cfg.seed, k, entries.len())];
        backlog.push((qos_line(e, k, "abuser", "batch"), "abuser".to_string()));
    }
    let mut gate = String::from("reg a = R0\nreg b = R1\nconst a, 1\nconst b, 5\n");
    for i in 0..48_000 {
        gate.push_str(if i % 2 == 0 { "add a, a, b\n" } else { "add b, b, a\n" });
    }
    gate.push_str("exit a\n");
    // Every answer is read back from the trace journal once the drain
    // below has waited for it, so the submissions are not kept.
    let gate = mcc_serve::proto::compile_line("gate", "hm1", "yalll", &gate);
    server.submit_frame(&gate, None, "gate");
    let start = Instant::now();
    while wfq_depth() > 0 && start.elapsed() < Duration::from_secs(30) {
        std::thread::sleep(Duration::from_millis(1));
    }
    for (line, tenant) in &backlog {
        server.submit_frame(line, None, tenant);
    }
    let queued = wfq_depth();
    server.drain();
    drop(server);
    let replayed = trace::replay(&trace_path).map_err(|e| format!("share trace replay: {e}"));
    let _ = std::fs::remove_file(&trace_path);
    if queued != backlog.len() as u64 {
        return Err(format!(
            "the share phase's gate compile did not hold the worker while the backlog was \
             admitted ({queued} of {} queued)",
            backlog.len()
        ));
    }
    // The share counts the abuser's answers served before the last free
    // tenant's: what it gets after that is uncontended.
    let records = replayed?.0;
    let is_free = |r: &trace::TraceRecord| r.tenant.starts_with("free");
    let last_free = records.iter().rposition(is_free).unwrap_or(0);
    let served = |r: &&trace::TraceRecord| r.code == 200;
    let abuser = records[..last_free].iter().filter(|r| r.tenant == "abuser");
    let free_ok = records.iter().filter(|r| is_free(r)).filter(served).count() as u64;
    Ok((abuser.filter(served).count() as u64, FREE_TENANTS as u64 * FREE_DEMAND - free_ok))
}

/// Phase 2 outcome.
struct DiurnalOutcome {
    /// Each well-behaved tenant's samples, by tenant.
    wb: Vec<Vec<Sample>>,
    abuser_ok: u64,
    abuser_shed: u64,
    quota_shed: u64,
    metrics_ok: bool,
    metrics_err: String,
    trace_records: u64,
    trace_expected: u64,
    trace_torn_detected: bool,
}

/// Phase 2: the paced day curve with a quota-throttled flood.
fn diurnal_phase(cfg: &LoadConfig, entries: &Arc<Vec<Entry>>) -> Result<DiurnalOutcome, String> {
    let trace_path = std::env::temp_dir().join(format!(
        "mcc-bench-diurnal-{}-{}.jsonl",
        std::process::id(),
        cfg.seed
    ));
    let server = Arc::new(Server::start(ServeConfig {
        workers: cfg.workers,
        queue_bound: 32,
        tenant_quota: QUOTA,
        trace_path: Some(trace_path.clone()),
        ..ServeConfig::default()
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let abuser_ok = Arc::new(AtomicU64::new(0));
    let abuser_shed = Arc::new(AtomicU64::new(0));

    let mut abusers = Vec::new();
    for a in 0..ABUSER_THREADS {
        let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
        let (ok, shed) = (Arc::clone(&abuser_ok), Arc::clone(&abuser_shed));
        let (entries, seed) = (Arc::clone(entries), cfg.seed);
        abusers.push(std::thread::spawn(move || {
            let mut k = 8_000_000 + a * 100_000;
            while !stop.load(Ordering::Relaxed) {
                let e = &entries[pick(seed, k, entries.len())];
                let r = server.handle_line(&qos_line(e, k, "noisy", "batch"), "noisy");
                match r.code {
                    200 => {
                        ok.fetch_add(1, Ordering::Relaxed);
                    }
                    503 => {
                        shed.fetch_add(1, Ordering::Relaxed);
                        // Back off a breath instead of busy-spinning on
                        // the quota gate.
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    _ => {}
                }
                k += 1;
            }
        }));
    }

    let mut wbs = Vec::new();
    for t in 0..WB_TENANTS {
        let server = Arc::clone(&server);
        let (entries, seed) = (Arc::clone(entries), cfg.seed);
        wbs.push(std::thread::spawn(move || {
            let tenant = format!("wb{t}");
            let start = Instant::now();
            let mut due = Duration::ZERO;
            let mut samples = Vec::with_capacity(WB_DEMAND);
            for j in 0..WB_DEMAND {
                let segment = j * SEGMENTS / WB_DEMAND;
                due += Duration::from_micros(BASE_GAP_US / curve(seed, t, segment));
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let k = (t + 1) * 1_000_000 + j;
                let entry = pick(seed, k, entries.len());
                let line = qos_line(&entries[entry], k, &tenant, "interactive");
                let sent = Instant::now();
                let r = server.handle_line(&line, &tenant).to_line();
                samples.push(Sample::of(k, entry, &r, sent.elapsed().as_micros() as u64));
            }
            samples
        }));
    }

    let wb: Vec<Vec<Sample>> =
        wbs.into_iter().map(|h| h.join().expect("well-behaved thread")).collect();
    stop.store(true, Ordering::Relaxed);
    for h in abusers {
        h.join().expect("abuser thread");
    }

    let stats = server
        .handle_line("{\"op\":\"stats\",\"id\":\"diurnal\"}\n", "bench")
        .to_line();
    let quota_shed = Response::field_num(&stats, "quota_shed").unwrap_or(0);

    // Metrics-shape gate: the exposition must parse as Prometheus text
    // and carry the per-tenant series the run just generated.
    let text = server.metrics_text();
    let (metrics_ok, metrics_err) = match metrics::validate(&text) {
        Ok(()) => {
            let has_tenants = text.contains("tenant=\"noisy\"") && text.contains("tenant=\"wb0\"");
            let has_hist = text.contains("mcc_serve_latency_us_bucket");
            if has_tenants && has_hist {
                (true, String::new())
            } else {
                (false, "exposition is missing expected tenant series".to_string())
            }
        }
        Err(e) => (false, e),
    };
    server.drain();
    drop(server);

    // Trace gate: the journal must replay exactly, then keep replaying
    // the durable prefix after a torn tail is appended.
    let (clean, clean_torn) = trace::replay(&trace_path).map_err(|e| format!("trace replay: {e}"))?;
    let trace_records = clean.len() as u64;
    let mut raw = std::fs::read(&trace_path).map_err(|e| format!("trace read: {e}"))?;
    raw.extend_from_slice(b"{\"seq\":999,\"client\":\"torn");
    std::fs::write(&trace_path, &raw).map_err(|e| format!("trace write: {e}"))?;
    let (after, torn) = trace::replay(&trace_path).map_err(|e| format!("trace replay: {e}"))?;
    let trace_torn_detected =
        !clean_torn && torn && after.len() as u64 == trace_records && trace_records > 0;
    let _ = std::fs::remove_file(&trace_path);

    let expected = wb.iter().map(Vec::len).sum::<usize>() as u64
        + abuser_ok.load(Ordering::Relaxed)
        + abuser_shed.load(Ordering::Relaxed);
    Ok(DiurnalOutcome {
        wb,
        abuser_ok: abuser_ok.load(Ordering::Relaxed),
        abuser_shed: abuser_shed.load(Ordering::Relaxed),
        quota_shed,
        metrics_ok,
        metrics_err,
        trace_records,
        trace_expected: expected,
        trace_torn_detected,
    })
}

/// Runs both phases and prints the verdicts. `Err` when a gate fails.
pub(super) fn run(cfg: &LoadConfig) -> Result<(), String> {
    let entries = Arc::new(corpus());
    let analytic = FREE_DEMAND / 4;
    let tolerance = (analytic / 10).max(1);

    // ---- deterministic preamble (stdout) ----
    println!(
        "bench-serve diurnal seed={} free_tenants={FREE_TENANTS} free_demand={FREE_DEMAND} \
         wb_tenants={WB_TENANTS} wb_demand={WB_DEMAND} segments={SEGMENTS} quota={QUOTA}",
        cfg.seed
    );
    println!("wfq weights free=2 abuser=1; classes free=interactive abuser=batch");
    println!("wfq analytic_abuser_share={analytic} tolerance={tolerance}");
    let rows: Vec<Vec<String>> = (0..WB_TENANTS)
        .map(|t| {
            let mut row = vec![format!("wb{t}")];
            row.extend((0..SEGMENTS).map(|s| format!("{}x", curve(cfg.seed, t, s))));
            row
        })
        .collect();
    crate::print_table(&["tenant", "s0", "s1", "s2", "s3", "s4", "s5"], &rows);

    let start = Instant::now();
    let (measured, free_errors) = wfq_share_phase(cfg, &entries)?;
    let share_ok = free_errors == 0 && measured.abs_diff(analytic) <= tolerance;

    let out = diurnal_phase(cfg, &entries)?;
    let elapsed_ms = start.elapsed().as_millis() as u64;

    let wb_all_ok = out.wb.iter().flatten().all(|s| s.code == 200);
    let wb_requests: usize = out.wb.iter().map(Vec::len).sum();
    let dropped = (WB_TENANTS * WB_DEMAND).saturating_sub(wb_requests);
    let p99s: Vec<u64> = out.wb.iter().map(|t| percentiles(t, [99])[0]).collect();
    let p99_ok = p99s.iter().all(|&p| p < P99_BOUND_US);
    let throttled = out.abuser_shed > 0 && out.quota_shed > 0;
    let trace_ok = out.trace_torn_detected && out.trace_records == out.trace_expected;

    // ---- verdicts (stdout, deterministic in a passing run) ----
    println!(
        "verdicts wfq_share={} throttled={} p99_bound={} dropped={dropped} metrics={} trace={}",
        verdict(share_ok),
        verdict(throttled),
        verdict(p99_ok),
        verdict(out.metrics_ok),
        verdict(trace_ok)
    );

    // ---- measured numbers (stderr + JSON) ----
    eprintln!(
        "bench-serve diurnal timing: elapsed_ms={elapsed_ms} abuser_share={measured} \
         analytic={analytic} free_errors={free_errors} abuser_ok={} abuser_shed={} \
         quota_shed={} wb_p99_us={:?} trace_records={}/{}{}",
        out.abuser_ok,
        out.abuser_shed,
        out.quota_shed,
        p99s,
        out.trace_records,
        out.trace_expected,
        if out.metrics_err.is_empty() {
            String::new()
        } else {
            format!(" metrics_err={}", out.metrics_err)
        }
    );
    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve-diurnal\",\"seed\":{},\"free_demand\":{FREE_DEMAND},\
             \"analytic_share\":{analytic},\"measured_share\":{measured},\"tolerance\":{tolerance},\
             \"free_errors\":{free_errors},\"wb_requests\":{wb_requests},\"dropped\":{dropped},\
             \"wb_p99_us_max\":{},\"p99_bound_us\":{P99_BOUND_US},\"abuser_ok\":{},\
             \"abuser_shed\":{},\"quota_shed\":{},\"trace_records\":{},\"elapsed_ms\":{elapsed_ms},\
             \"wfq_share\":\"{}\",\"throttled\":\"{}\",\"p99_bound\":\"{}\",\"metrics\":\"{}\",\
             \"trace\":\"{}\"",
            cfg.seed,
            p99s.iter().copied().max().unwrap_or(0),
            out.abuser_ok,
            out.abuser_shed,
            out.quota_shed,
            out.trace_records,
            verdict(share_ok),
            verdict(throttled),
            verdict(p99_ok),
            verdict(out.metrics_ok),
            verdict(trace_ok)
        ),
        None,
    )?;

    if !share_ok {
        return Err(format!(
            "wfq share violated: abuser served {measured}, analytic {analytic} ± {tolerance} \
             (free_errors={free_errors})"
        ));
    }
    if !throttled {
        return Err("abuser was never quota-throttled".to_string());
    }
    if !p99_ok {
        return Err(format!("well-behaved p99 {p99s:?} exceeded {P99_BOUND_US}us"));
    }
    if dropped != 0 || !wb_all_ok {
        return Err(format!(
            "well-behaved tenants degraded: dropped={dropped} all_ok={wb_all_ok}"
        ));
    }
    if !out.metrics_ok {
        return Err(format!("metrics exposition invalid: {}", out.metrics_err));
    }
    if !trace_ok {
        return Err(format!(
            "trace replay violated: {}/{} records, torn_detected={}",
            out.trace_records, out.trace_expected, out.trace_torn_detected
        ));
    }
    Ok(())
}
