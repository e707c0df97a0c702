//! The `mcc bench-serve` closed-loop load generator.
//!
//! Drives an in-process [`mcc_serve::Server`] with a seeded, paced burst
//! and separates its output by determinism:
//!
//! * **stdout** carries only what is a pure function of `(seed, rps,
//!   duration)` — the scheduled request mix per corpus entry, the
//!   canonical tier-0 checksums, and the accounting invariants
//!   (`responses == requests`, `dropped == 0`, checksum conformance).
//!   It is byte-identical across `--clients` and worker counts, which is
//!   what CI diffs.
//! * **stderr and `BENCH_serve.json`** carry the timing-dependent
//!   numbers: the code histogram, shed/degrade counts, latency
//!   percentiles, and throughput.
//!
//! Every request appends a distinct YALLL comment line (`; nonce k`), so
//! the content-addressed cache sees a fresh key and every request costs a
//! real compile — that is what fills the queue and exercises the shedding
//! tiers — while the *artifact* (and therefore the checksum) stays
//! identical per `(kernel, machine, tier)`, because comments never reach
//! the parser.

mod chaosnet;
mod diurnal;
mod proto_ab;
mod soak;

use std::io::Write as _;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcc_harness::splitmix64;
use mcc_machine::machines;
use mcc_serve::{proto::Response, ServeConfig, Server};

use crate::kernels::{self, Lang};

/// Load-generator tuning (the `bench-serve` CLI flags).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Closed-loop client threads.
    pub clients: usize,
    /// Paced request rate, requests/second (global, not per client).
    pub rps: u64,
    /// Length of the schedule; total requests = `rps × duration / 1000`.
    pub duration_ms: u64,
    /// Seed for the request mix.
    pub seed: u64,
    /// Server worker threads.
    pub workers: usize,
    /// Server admission bound.
    pub queue_bound: usize,
    /// Where to write the JSON report (empty = skip).
    pub json_path: String,
    /// Routed fleet size (`0` = the classic single in-process server,
    /// no router). With `N ≥ 1` the burst runs through `mcc route` over
    /// an in-process fleet at every doubling size up to `N`, emitting
    /// the scaling table.
    pub backends: usize,
    /// Kill-one-backend mode: SIGKILL the seed-chosen victim shard when
    /// this request index is drawn (requires `backends ≥ 2`; spawns
    /// real `mcc serve` child processes).
    pub kill_at: Option<usize>,
    /// Chaos-soak mode: run `--bursts` paced bursts against a
    /// supervised [`mcc_fleet::Fleet`] under a seeded kill schedule
    /// (requires `backends ≥ 2`; one extra sabotage shard is added).
    pub chaos_soak: bool,
    /// Burst count for `--chaos-soak`: one baseline burst plus a kill
    /// per remaining burst (minimum 4).
    pub bursts: usize,
    /// Chaos-net mode: drive a routed fleet through seeded
    /// fault-injection proxies on every hop (client→router and
    /// router→shard) and gate zero drops, zero double executions, and
    /// zero corrupt frames accepted (`--chaos-net`).
    pub chaos_net: bool,
    /// Wire-protocol selection (`--proto v1|v2|both`). On its own it
    /// runs the A/B mode over a real TCP hop; combined with
    /// `--chaos-net` it picks the wire the fault battery runs on.
    /// `None` keeps every mode on its classic v1 behavior.
    pub proto: Option<ProtoChoice>,
    /// One-way emulated network delay for the `--proto` A/B, in
    /// microseconds (`--net-delay-us`; 0 = raw loopback). Both series
    /// traverse the same delay relay, so the A/B measures the protocols
    /// under a realistic link RTT instead of the loopback special case
    /// where a lockstep round trip is nearly free.
    pub net_delay_us: u64,
    /// Diurnal QoS mode (`--diurnal`): a seeded day-curve of well-behaved
    /// interactive tenants plus one flooding batch abuser, gating the WFQ
    /// share, quota throttling, latency isolation, metrics shape, and
    /// trace replay.
    pub diurnal: bool,
}

/// Which wire protocol(s) a `--proto` run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoChoice {
    /// Newline-delimited lines only.
    V1,
    /// Binary length-prefixed frames only.
    V2,
    /// Both, as back-to-back series in one report.
    Both,
}

impl ProtoChoice {
    /// Parses the `--proto` flag value.
    pub fn parse(s: &str) -> Option<ProtoChoice> {
        match s {
            "v1" => Some(ProtoChoice::V1),
            "v2" => Some(ProtoChoice::V2),
            "both" => Some(ProtoChoice::Both),
            _ => None,
        }
    }

    /// The series tags this choice runs, in order.
    fn series(self) -> &'static [&'static str] {
        match self {
            ProtoChoice::V1 => &["v1"],
            ProtoChoice::V2 => &["v2"],
            ProtoChoice::Both => &["v1", "v2"],
        }
    }
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 8,
            rps: 200,
            duration_ms: 2_000,
            seed: 42,
            workers: 2,
            queue_bound: 8,
            json_path: "BENCH_serve.json".to_string(),
            backends: 0,
            kill_at: None,
            chaos_soak: false,
            bursts: 4,
            chaos_net: false,
            proto: None,
            net_delay_us: 0,
            diurnal: false,
        }
    }
}

/// One corpus entry: a YALLL kernel rendered for one reference machine.
struct Entry {
    kernel: &'static str,
    machine: &'static str,
    src: String,
}

/// The bench corpus: every YALLL kernel of the shared suite on every
/// reference machine. (YALLL only, because its `;` comments carry the
/// cache-defeating nonce without touching the parsed program.)
fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();
    for m in machines::all() {
        for k in kernels::suite() {
            if k.lang == Lang::Yalll {
                out.push(Entry {
                    kernel: k.name,
                    machine: leak_name(&m.name),
                    src: (k.source)(&m),
                });
            }
        }
    }
    out
}

/// Machine names in the suite are `String`s on the descriptor; the bench
/// table wants `&'static str`. The corpus is built once per process.
fn leak_name(name: &str) -> &'static str {
    Box::leak(name.to_string().into_boxed_str())
}

/// Which corpus entry request `k` compiles — a pure function of the seed.
fn pick(seed: u64, k: usize, n: usize) -> usize {
    (splitmix64(seed ^ (k as u64).wrapping_mul(0x2545_F491_4F6C_DD1D)) % n as u64) as usize
}

/// One client's observation of one request.
struct Sample {
    entry: usize,
    code: u16,
    tier: u64,
    checksum: String,
    micros: u64,
}

/// Runs the load, prints the deterministic table to stdout and the
/// timing table to stderr, writes the JSON report. Returns `Err` with a
/// diagnostic when an invariant breaks (a dropped response or a checksum
/// nonconformance) — the caller turns that into a nonzero exit.
///
/// # Errors
///
/// Invariant violations and JSON-report I/O errors.
pub fn run(cfg: &LoadConfig) -> Result<(), String> {
    if cfg.diurnal {
        if cfg.chaos_net || cfg.chaos_soak || cfg.backends > 0 || cfg.proto.is_some() {
            return Err("--diurnal combines only with the default mode".to_string());
        }
        return diurnal::run(cfg);
    }
    if cfg.chaos_net {
        return chaosnet::run(cfg);
    }
    if let Some(choice) = cfg.proto {
        if cfg.chaos_soak || cfg.backends > 0 {
            return Err(
                "--proto combines only with the default mode or --chaos-net".to_string()
            );
        }
        return proto_ab::run(cfg, choice);
    }
    if cfg.chaos_soak {
        return soak::run(cfg);
    }
    if cfg.backends > 0 {
        return match cfg.kill_at {
            Some(k) => routed::run_kill(cfg, k),
            None => routed::run_scaling(cfg),
        };
    }
    let entries = corpus();
    let total = usize::try_from(cfg.rps * cfg.duration_ms / 1000).unwrap_or(usize::MAX).max(1);

    let server = Arc::new(Server::start(ServeConfig {
        workers: cfg.workers,
        queue_bound: cfg.queue_bound,
        ..ServeConfig::default()
    }));

    // Warm-up: one unloaded tier-0 compile per corpus entry pins the
    // canonical checksum every burst response is checked against.
    // Nonces beyond the burst range keep these cache keys distinct too.
    let mut canonical: Vec<String> = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let line = proto_line(e, total + i, "warm");
        let r = server.handle_line(&line, "warmup");
        if r.code != 200 {
            return Err(format!(
                "warm-up compile failed for {}/{}: {}",
                e.kernel,
                e.machine,
                r.to_line().trim_end()
            ));
        }
        let rendered = r.to_line();
        canonical.push(Response::field_str(&rendered, "checksum").unwrap_or_default());
    }

    // The paced burst: `clients` closed-loop threads share one global
    // request index; request k launches no earlier than k/rps seconds in.
    let next = Arc::new(AtomicUsize::new(0));
    let entries = Arc::new(entries);
    let start = Instant::now();
    let mut clients = Vec::new();
    for c in 0..cfg.clients.max(1) {
        let server = Arc::clone(&server);
        let next = Arc::clone(&next);
        let entries = Arc::clone(&entries);
        let (seed, rps) = (cfg.seed, cfg.rps);
        clients.push(std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= total {
                    break;
                }
                let due = Duration::from_micros(k as u64 * 1_000_000 / rps.max(1));
                if let Some(wait) = due.checked_sub(start.elapsed()) {
                    std::thread::sleep(wait);
                }
                let entry = pick(seed, k, entries.len());
                let line = proto_line(&entries[entry], k, &format!("client{c}"));
                let sent = Instant::now();
                let r = server.handle_line(&line, &format!("client{c}"));
                let rendered = r.to_line();
                samples.push(Sample {
                    entry,
                    code: r.code,
                    tier: Response::field_num(&rendered, "tier").unwrap_or(0),
                    checksum: Response::field_str(&rendered, "checksum").unwrap_or_default(),
                    micros: sent.elapsed().as_micros() as u64,
                });
            }
            samples
        }));
    }
    let mut samples: Vec<Sample> = Vec::with_capacity(total);
    for c in clients {
        samples.extend(c.join().expect("client thread"));
    }
    let elapsed = start.elapsed();
    server.drain();

    // ---- invariants (deterministic; stdout) ----
    let responses = samples.len();
    let dropped = total - responses;
    // Conformance: per (entry, tier) every 200's checksum must agree,
    // and at tier 0 it must equal the warm-up canon — the cache and the
    // shedding tiers must be invisible to correctness.
    let mut conforms = true;
    let mut tiered: std::collections::HashMap<(usize, u64), &str> =
        std::collections::HashMap::new();
    for s in samples.iter().filter(|s| s.code == 200) {
        let expect = if s.tier == 0 {
            canonical[s.entry].as_str()
        } else {
            tiered.entry((s.entry, s.tier)).or_insert(s.checksum.as_str())
        };
        if s.checksum != expect {
            conforms = false;
        }
    }

    let mut scheduled = vec![0u64; entries.len()];
    for k in 0..total {
        scheduled[pick(cfg.seed, k, entries.len())] += 1;
    }
    println!(
        "bench-serve seed={} rps={} duration_ms={} requests={} corpus={}",
        cfg.seed,
        cfg.rps,
        cfg.duration_ms,
        total,
        entries.len()
    );
    let rows: Vec<Vec<String>> = entries
        .iter()
        .enumerate()
        .map(|(i, e)| {
            vec![
                e.kernel.to_string(),
                e.machine.to_string(),
                scheduled[i].to_string(),
                canonical[i].clone(),
            ]
        })
        .collect();
    crate::print_table(&["kernel", "machine", "scheduled", "checksum"], &rows);
    println!(
        "responses={responses} dropped={dropped} conformance={}",
        if conforms { "ok" } else { "VIOLATED" }
    );

    // ---- timing-dependent numbers (stderr + JSON) ----
    let count = |code: u16| samples.iter().filter(|s| s.code == code).count() as u64;
    let (n200, n429, n500, n503, n504) =
        (count(200), count(429), count(500), count(503), count(504));
    let n400 = count(400);
    let degraded = samples.iter().filter(|s| s.code == 200 && s.tier > 0).count() as u64;
    let mut lat: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    lat.sort_unstable();
    let pct = |p: usize| lat.get(lat.len().saturating_sub(1) * p / 100).copied().unwrap_or(0);
    let (p50, p95, p99, pmax) = (pct(50), pct(95), pct(99), lat.last().copied().unwrap_or(0));
    let elapsed_ms = elapsed.as_millis() as u64;
    let throughput = (responses as u64 * 1000).checked_div(elapsed_ms).unwrap_or(0);
    let shed_permille = n503 * 1000 / total.max(1) as u64;
    eprintln!(
        "bench-serve timing: clients={} workers={} bound={} elapsed_ms={elapsed_ms} \
         ok={n200} err400={n400} rate429={n429} panic500={n500} shed503={n503} deadline504={n504} \
         degraded={degraded} p50us={p50} p95us={p95} p99us={p99} maxus={pmax} \
         throughput_rps={throughput} shed_permille={shed_permille}",
        cfg.clients, cfg.workers, cfg.queue_bound
    );

    if !cfg.json_path.is_empty() {
        let json = format!(
            "{{\"bench\":\"serve\",\"seed\":{},\"rps\":{},\"duration_ms\":{},\"clients\":{},\
             \"workers\":{},\"queue_bound\":{},\"requests\":{},\"responses\":{},\"dropped\":{},\
             \"ok\":{n200},\"compile_errors\":{n400},\"rate_limited\":{n429},\"panics\":{n500},\
             \"shed\":{n503},\"deadline_expired\":{n504},\"degraded\":{degraded},\
             \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\"max_us\":{pmax},\
             \"elapsed_ms\":{elapsed_ms},\"throughput_rps\":{throughput},\
             \"shed_permille\":{shed_permille},\"conformance\":\"{}\"}}\n",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            cfg.workers,
            cfg.queue_bound,
            total,
            responses,
            dropped,
            if conforms { "ok" } else { "violated" }
        );
        // The report must parse back under the toolkit's own reader.
        debug_assert!(mcc_harness::json::parse_object(json.trim_end()).is_some());
        std::fs::File::create(&cfg.json_path)
            .and_then(|mut f| f.write_all(json.as_bytes()))
            .map_err(|e| format!("writing {}: {e}", cfg.json_path))?;
    }

    if dropped != 0 {
        return Err(format!("{dropped} requests got no response"));
    }
    if !conforms {
        return Err("checksum conformance violated".to_string());
    }
    Ok(())
}

/// Renders the wire frame for request `k` of a corpus entry. The nonce
/// comment defeats the cache key without changing the compiled program.
fn proto_line(e: &Entry, k: usize, id_prefix: &str) -> String {
    mcc_serve::proto::compile_line(&format!("{id_prefix}-{k}"), e.machine, "yalll", &nonce_src(e, k))
}

/// The nonced source for request `k` — shared by the wire frame and the
/// analytic ring placement, which must hash byte-identical text.
fn nonce_src(e: &Entry, k: usize) -> String {
    format!("{}; nonce {k}\n", e.src)
}

/// The routed modes: `--backends N` scaling bursts over an in-process
/// fleet, and `--kill-at K` chaos bursts over spawned `mcc serve`
/// children with one shard SIGKILLed mid-run.
///
/// The determinism split is the same as the single-server mode, with
/// one addition: the *placement* stdout table is computed analytically
/// from the ring (a pure function of seed, corpus, and backend names),
/// never from which shard actually answered — hedging and failover make
/// the served counts timing-dependent, so those go to stderr and JSON.
mod routed {
    use super::*;
    use mcc_route::{Backend, InProcBackend, Router, RouteConfig, TcpBackend};
    use std::io::BufRead as _;
    use std::sync::Mutex;

    /// One request's outcome under the router.
    struct RSample {
        k: usize,
        entry: usize,
        code: u64,
        tier: u64,
        checksum: String,
        backend: String,
        micros: u64,
    }

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
    pub(super) fn placement_counts(cfg: &LoadConfig, entries: &[Entry], n: usize, total: usize, nonce_base: usize) -> Vec<u64> {
        let ring = mcc_route::Ring::new(&names(n), RouteConfig::default().vnodes);
        let mut counts = vec![0u64; n];
        for k in 0..total {
            let e = &entries[pick(cfg.seed, k, entries.len())];
            let point = mcc_route::point_for(e.machine, "yalll", &nonce_src(e, nonce_base + k));
            counts[ring.primary(point)] += 1;
        }
        counts
    }

    /// The paced burst, fired at a router. Same schedule as the
    /// single-server mode; `kill` (request index, action) runs *before*
    /// that request is sent, in the client thread that drew it.
    fn burst(
        router: &Arc<Router>,
        entries: &Arc<Vec<Entry>>,
        cfg: &LoadConfig,
        total: usize,
        nonce_base: usize,
        kill: Option<(usize, Arc<dyn Fn() + Send + Sync>)>,
    ) -> Vec<RSample> {
        let next = Arc::new(AtomicUsize::new(0));
        let start = Instant::now();
        let mut clients = Vec::new();
        for c in 0..cfg.clients.max(1) {
            let router = Arc::clone(router);
            let next = Arc::clone(&next);
            let entries = Arc::clone(entries);
            let (seed, rps) = (cfg.seed, cfg.rps);
            let kill = kill.clone();
            clients.push(std::thread::spawn(move || {
                let mut samples = Vec::new();
                loop {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    if k >= total {
                        break;
                    }
                    let due = Duration::from_micros(k as u64 * 1_000_000 / rps.max(1));
                    if let Some(wait) = due.checked_sub(start.elapsed()) {
                        std::thread::sleep(wait);
                    }
                    if let Some((at, ref action)) = kill {
                        if k == at {
                            action();
                        }
                    }
                    let entry = pick(seed, k, entries.len());
                    let line = proto_line(&entries[entry], nonce_base + k, &format!("client{c}"));
                    let sent = Instant::now();
                    let resp = router.handle_line(&line, &format!("client{c}"));
                    samples.push(RSample {
                        k,
                        entry,
                        code: Response::field_num(&resp, "code").unwrap_or(0),
                        tier: Response::field_num(&resp, "tier").unwrap_or(0),
                        checksum: Response::field_str(&resp, "checksum").unwrap_or_default(),
                        backend: Response::field_str(&resp, "backend").unwrap_or_default(),
                        micros: sent.elapsed().as_micros() as u64,
                    });
                }
                samples
            }));
        }
        let mut samples = Vec::with_capacity(total);
        for c in clients {
            samples.extend(c.join().expect("client thread"));
        }
        samples
    }

    /// Warm-up through the router: pins the canonical tier-0 checksum
    /// per corpus entry (and warms every shard's connection).
    fn warm(router: &Router, entries: &[Entry], nonce_base: usize) -> Result<Vec<String>, String> {
        let mut canonical = Vec::with_capacity(entries.len());
        for (i, e) in entries.iter().enumerate() {
            let line = proto_line(e, nonce_base + i, "warm");
            let resp = router.handle_line(&line, "warmup");
            if Response::field_num(&resp, "code") != Some(200) {
                return Err(format!(
                    "warm-up compile failed for {}/{}: {}",
                    e.kernel,
                    e.machine,
                    resp.trim_end()
                ));
            }
            canonical.push(Response::field_str(&resp, "checksum").unwrap_or_default());
        }
        Ok(canonical)
    }

    /// Checks checksum conformance: tier-0 responses must match the
    /// warm-up canon; within a `(entry, tier)` pair all must agree.
    fn conformance(samples: &[RSample], canonical: &[String]) -> bool {
        let mut ok = true;
        let mut tiered: std::collections::HashMap<(usize, u64), &str> =
            std::collections::HashMap::new();
        for s in samples.iter().filter(|s| s.code == 200) {
            let expect = if s.tier == 0 {
                canonical[s.entry].as_str()
            } else {
                tiered.entry((s.entry, s.tier)).or_insert(s.checksum.as_str())
            };
            if s.checksum != expect {
                ok = false;
            }
        }
        ok
    }

    /// Latency percentile helper.
    fn percentiles(samples: &[RSample]) -> (u64, u64, u64) {
        let mut lat: Vec<u64> = samples.iter().map(|s| s.micros).collect();
        lat.sort_unstable();
        let pct = |p: usize| lat.get(lat.len().saturating_sub(1) * p / 100).copied().unwrap_or(0);
        (pct(50), pct(95), pct(99))
    }

    /// `--backends N` without `--kill-at`: one routed burst per fleet
    /// size (1, 2, 4, … N) over in-process shards, with the analytic
    /// placement table on stdout and the scaling numbers in the JSON.
    pub(super) fn run_scaling(cfg: &LoadConfig) -> Result<(), String> {
        let entries = Arc::new(corpus());
        let total = usize::try_from(cfg.rps * cfg.duration_ms / 1000).unwrap_or(usize::MAX).max(1);
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
            let router = Arc::new(Router::new(
                shards,
                RouteConfig {
                    seed: cfg.seed,
                    ..RouteConfig::default()
                },
            ));

            let canonical = warm(&router, &entries, nonce_base + total)?;
            let start = Instant::now();
            let samples = burst(&router, &entries, cfg, total, nonce_base, None);
            let elapsed_ms = start.elapsed().as_millis() as u64;
            router.drain();

            let dropped = total - samples.len();
            let conforms = conformance(&samples, &canonical);
            let placement = placement_counts(cfg, &entries, n, total, nonce_base);
            let placed: Vec<String> = placement
                .iter()
                .enumerate()
                .map(|(i, c)| format!("b{i}:{c}"))
                .collect();
            println!(
                "scaling backends={n} requests={total} placement=[{}] dropped={dropped} conformance={}",
                placed.join(" "),
                if conforms { "ok" } else { "VIOLATED" }
            );

            let ok = samples.iter().filter(|s| s.code == 200).count() as u64;
            let shed = samples.iter().filter(|s| s.code == 503).count() as u64;
            let (p50, p95, p99) = percentiles(&samples);
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

        if !cfg.json_path.is_empty() {
            let json = format!(
                "{{\"bench\":\"serve\",\"mode\":\"scaling\",\"seed\":{},\"rps\":{},\
                 \"duration_ms\":{},\"clients\":{},\"workers\":{},\"queue_bound\":{},\
                 \"backends\":{},\"scaling\":[{}]}}\n",
                cfg.seed,
                cfg.rps,
                cfg.duration_ms,
                cfg.clients,
                cfg.workers,
                cfg.queue_bound,
                cfg.backends,
                scaling_rows.join(",")
            );
            std::fs::File::create(&cfg.json_path)
                .and_then(|mut f| f.write_all(json.as_bytes()))
                .map_err(|e| format!("writing {}: {e}", cfg.json_path))?;
        }
        Ok(())
    }

    /// Deterministic overload proof for the kill mode: after the burst,
    /// concentrate more in-flight cold compiles on one surviving shard
    /// than its admission bound admits. The shard must answer the
    /// overflow with structured `503`s — shedding, not queueing without
    /// bound — and the router must pass them through untouched. Keys are
    /// chosen analytically so every probe request is ring-owned by the
    /// target shard; the probe stops shortly after the first shed.
    fn overload_probe(
        router: &Arc<Router>,
        entries: &Arc<Vec<Entry>>,
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
        let owned = Arc::new(owned);
        let shed = Arc::new(AtomicU64::new(0));
        let next = Arc::new(AtomicUsize::new(0));
        let mut probes = Vec::new();
        for _ in 0..threads {
            let (router, entries) = (Arc::clone(router), Arc::clone(entries));
            let (owned, shed, next) = (Arc::clone(&owned), Arc::clone(&shed), Arc::clone(&next));
            probes.push(std::thread::spawn(move || loop {
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
            }));
        }
        for p in probes {
            let _ = p.join();
        }
        shed.load(Ordering::Relaxed)
    }

    /// One spawned `mcc serve` child and the address it bound.
    pub(super) struct Shard {
        pub(super) child: Arc<Mutex<std::process::Child>>,
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
    /// parses the bound address off its stderr banner.
    pub(super) fn spawn_shard(cfg: &LoadConfig, cache_dir: &std::path::Path) -> Result<Shard, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .args([
                "serve",
                "--port",
                "0",
                "--jobs",
                &cfg.workers.to_string(),
                "--queue-bound",
                &cfg.queue_bound.to_string(),
            ])
            .env("MCC_CACHE_DIR", cache_dir)
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning mcc serve: {e}"))?;
        let stderr = child.stderr.take().expect("stderr piped");
        let mut reader = std::io::BufReader::new(stderr);
        let mut addr = None;
        let mut line = String::new();
        while reader.read_line(&mut line).map_err(|e| e.to_string())? > 0 {
            if let Some(rest) = line.split("listening on ").nth(1) {
                addr = rest.split_whitespace().next().map(str::to_string);
                break;
            }
            line.clear();
        }
        // Keep draining the child's stderr so it never blocks on a full
        // pipe; the output itself is discarded.
        std::thread::spawn(move || {
            let mut sink = String::new();
            loop {
                sink.clear();
                match reader.read_line(&mut sink) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
            }
        });
        let addr = addr.ok_or("mcc serve child never reported its address")?;
        Ok(Shard {
            child: Arc::new(Mutex::new(child)),
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
        let entries = Arc::new(corpus());
        let total = usize::try_from(cfg.rps * cfg.duration_ms / 1000).unwrap_or(usize::MAX).max(1);
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

        let canonical = warm(&router, &entries, total)?;
        let kill_child = Arc::clone(&fleet.0[victim].child);
        let action: Arc<dyn Fn() + Send + Sync> = Arc::new(move || {
            // Kill *and wait*: a SIGKILL without the `waitpid` leaves a
            // zombie holding a process-table slot for the rest of the
            // run. The fleet crate's reaper does both.
            mcc_fleet::child::reap(&mut kill_child.lock().unwrap());
        });
        let start = Instant::now();
        let samples = burst(&router, &entries, cfg, total, 0, Some((kill_at, action)));
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
        let conforms = conformance(&samples, &canonical);
        let c = router.counters();
        let failovers = c.failovers.load(Ordering::Relaxed);
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
            if conforms { "ok" } else { "VIOLATED" },
            if late_victim == 0 { "ok" } else { "VIOLATED" },
            if takeover { "ok" } else { "VIOLATED" },
            if overload_shed > 0 { "ok" } else { "VIOLATED" }
        );

        let ok = samples.iter().filter(|s| s.code == 200).count() as u64;
        let shed = samples.iter().filter(|s| s.code == 503).count() as u64;
        let (p50, p95, p99) = percentiles(&samples);
        let throughput = (samples.len() as u64 * 1000).checked_div(elapsed_ms).unwrap_or(0);
        let mut served: Vec<String> = Vec::new();
        for name in router.backend_names() {
            served.push(format!("{name}:{}", router.served_of(&name).unwrap_or(0)));
        }
        eprintln!(
            "kill timing: clients={} elapsed_ms={elapsed_ms} ok={ok} shed503={shed} \
             overload_shed={overload_shed} p50us={p50} p95us={p95} p99us={p99} \
             throughput_rps={throughput} failovers={failovers} hedges={} served=[{}]",
            cfg.clients,
            c.hedges.load(Ordering::Relaxed),
            served.join(" ")
        );

        if !cfg.json_path.is_empty() {
            let json = format!(
                "{{\"bench\":\"serve\",\"mode\":\"kill\",\"seed\":{},\"rps\":{},\
                 \"duration_ms\":{},\"clients\":{},\"backends\":{n},\"kill_at\":{kill_at},\
                 \"victim\":\"{victim_name}\",\"requests\":{total},\"responses\":{},\
                 \"dropped\":{dropped},\"ok\":{ok},\"shed\":{},\
                 \"overload_shed\":{overload_shed},\"failovers\":{failovers},\
                 \"hedges\":{},\"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\
                 \"throughput_rps\":{throughput},\"elapsed_ms\":{elapsed_ms},\
                 \"conformance\":\"{}\"}}\n",
                cfg.seed,
                cfg.rps,
                cfg.duration_ms,
                cfg.clients,
                samples.len(),
                shed + overload_shed,
                c.hedges.load(Ordering::Relaxed),
                if conforms { "ok" } else { "violated" }
            );
            std::fs::File::create(&cfg.json_path)
                .and_then(|mut f| f.write_all(json.as_bytes()))
                .map_err(|e| format!("writing {}: {e}", cfg.json_path))?;
        }

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_nonempty_and_all_yalll_machines() {
        let c = corpus();
        assert!(c.len() >= 8, "4 yalll kernels x 4 machines expected, got {}", c.len());
        let machines: std::collections::HashSet<_> = c.iter().map(|e| e.machine).collect();
        assert_eq!(machines.len(), 4);
    }

    #[test]
    fn pick_is_deterministic_and_in_range() {
        for k in 0..1000 {
            assert_eq!(pick(7, k, 16), pick(7, k, 16));
            assert!(pick(7, k, 16) < 16);
        }
        assert_ne!(
            (0..64).map(|k| pick(1, k, 16)).collect::<Vec<_>>(),
            (0..64).map(|k| pick(2, k, 16)).collect::<Vec<_>>(),
            "different seeds give different schedules"
        );
    }

    #[test]
    fn nonce_comment_compiles_to_the_same_artifact() {
        let m = machines::by_name("hm1").unwrap();
        let k = kernels::suite().into_iter().find(|k| k.lang == Lang::Yalll).unwrap();
        let src = (k.source)(&m);
        let c = mcc_core::Compiler::new(m);
        let a = c.compile_contained(mcc_core::SourceLang::Yalll, &src).unwrap();
        let b = c
            .compile_contained(mcc_core::SourceLang::Yalll, &format!("{src}; nonce 99\n"))
            .unwrap();
        assert_eq!(
            mcc_cache::serialize_artifact(&a),
            mcc_cache::serialize_artifact(&b),
            "a nonce comment must be invisible to the artifact"
        );
    }

    #[test]
    fn tiny_run_is_clean_and_deterministic_on_stdout_invariants() {
        let cfg = LoadConfig {
            clients: 3,
            rps: 400,
            duration_ms: 250,
            seed: 7,
            workers: 2,
            queue_bound: 4,
            json_path: String::new(),
            ..LoadConfig::default()
        };
        run(&cfg).expect("tiny bench run upholds its invariants");
    }

    #[test]
    fn tiny_scaling_run_is_clean_over_two_fleet_sizes() {
        let cfg = LoadConfig {
            clients: 2,
            rps: 400,
            duration_ms: 150,
            seed: 11,
            workers: 2,
            queue_bound: 8,
            json_path: String::new(),
            backends: 2,
            ..LoadConfig::default()
        };
        run(&cfg).expect("tiny scaling run upholds its invariants");
    }

    #[test]
    fn soak_mode_rejects_bad_configurations() {
        let lone = LoadConfig {
            backends: 1,
            chaos_soak: true,
            json_path: String::new(),
            ..LoadConfig::default()
        };
        assert!(run(&lone).unwrap_err().contains("--backends >= 2"));
        let short = LoadConfig {
            backends: 2,
            chaos_soak: true,
            bursts: 2,
            json_path: String::new(),
            ..LoadConfig::default()
        };
        assert!(run(&short).unwrap_err().contains("--bursts >= 4"));
    }

    #[test]
    fn kill_mode_rejects_bad_configurations() {
        let lone = LoadConfig {
            backends: 1,
            kill_at: Some(5),
            json_path: String::new(),
            ..LoadConfig::default()
        };
        assert!(run(&lone).unwrap_err().contains("--backends >= 2"));
        let late = LoadConfig {
            backends: 2,
            kill_at: Some(usize::MAX),
            json_path: String::new(),
            ..LoadConfig::default()
        };
        assert!(run(&late).unwrap_err().contains("past the last request"));
    }
}
