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
//!
//! Every mode is built from the parts below: the corpus and its seeded
//! schedule, one paced [`burst`], one [`Sample`] per response, one
//! [`warm`]-up canon, one conformance count ([`mismatches`]), one
//! [`percentiles`] helper and one [`write_report`]. Each mode keeps its
//! own topology, verdict lines and report fields.

mod chaosnet;
mod diurnal;
mod routed;
mod soak;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mcc_harness::json::{get_num, get_str, parse_object};
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
    /// The wire `--chaos-net` runs its fault battery on (`--proto
    /// v1|v2|both`; `both` = two full passes). `None` is the v1 wire
    /// with the untagged transcript. Rejected without `--chaos-net`.
    pub proto: Option<ProtoChoice>,
    /// Diurnal QoS mode (`--diurnal`): a seeded day-curve of well-behaved
    /// interactive tenants plus one flooding batch abuser, gating the WFQ
    /// share, quota throttling, latency isolation, metrics shape, and
    /// trace replay.
    pub diurnal: bool,
}

/// Which wire protocol(s) a `--chaos-net --proto` run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoChoice {
    /// Newline-delimited lines only.
    V1,
    /// Binary length-prefixed frames only.
    V2,
    /// Both, as back-to-back passes.
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

/// Requests in one burst: `rps × duration`, at least one.
fn requests(cfg: &LoadConfig) -> usize {
    usize::try_from(cfg.rps * cfg.duration_ms / 1000).unwrap_or(usize::MAX).max(1)
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

/// One client's observation of one request.
struct Sample {
    /// The request's index in its burst.
    k: usize,
    /// The corpus entry it compiled.
    entry: usize,
    code: u64,
    tier: u64,
    checksum: String,
    /// The shard a router tagged the response with (empty without one).
    backend: String,
    micros: u64,
}

impl Sample {
    /// Reads one rendered response; a field it lacks reads as 0 or "".
    fn of(k: usize, entry: usize, resp: &str, micros: u64) -> Sample {
        let m = parse_object(resp.trim_end()).unwrap_or_default();
        Sample {
            k,
            entry,
            code: get_num(&m, "code").unwrap_or(0),
            tier: get_num(&m, "tier").unwrap_or(0),
            checksum: get_str(&m, "checksum").unwrap_or_default(),
            backend: get_str(&m, "backend").unwrap_or_default(),
            micros,
        }
    }
}

/// The paced closed-loop burst: `cfg.clients` threads share one request
/// index, and request `k` (corpus entry `pick(seed, k)`, nonce
/// `nonce_base + k`) launches no earlier than `k / rps` seconds in.
/// Client `c` sends as `"{client}{c}"` through `call`, which returns the
/// rendered response or `None` when the call failed — that request then
/// counts as dropped. `kill = (index, action)` runs the action in the
/// thread that draws that index, before its request is sent.
fn burst(
    cfg: &LoadConfig,
    entries: &[Entry],
    total: usize,
    nonce_base: usize,
    client: &str,
    kill: Option<(usize, &(dyn Fn() + Sync))>,
    call: impl Fn(&str, &str) -> Option<String> + Sync,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cfg.clients.max(1))
            .map(|c| {
                let (next, call) = (&next, &call);
                scope.spawn(move || {
                    let who = format!("{client}{c}");
                    let mut samples = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let due = Duration::from_micros(k as u64 * 1_000_000 / cfg.rps.max(1));
                        if let Some(wait) = due.checked_sub(start.elapsed()) {
                            std::thread::sleep(wait);
                        }
                        if let Some((at, action)) = kill {
                            if k == at {
                                action();
                            }
                        }
                        let entry = pick(cfg.seed, k, entries.len());
                        let line = proto_line(&entries[entry], nonce_base + k, &who);
                        let sent = Instant::now();
                        if let Some(resp) = call(&who, &line) {
                            let micros = sent.elapsed().as_micros() as u64;
                            samples.push(Sample::of(k, entry, &resp, micros));
                        }
                    }
                    samples
                })
            })
            .collect();
        threads.into_iter().flat_map(|t| t.join().expect("client thread")).collect()
    })
}

/// Warm-up: one unloaded compile per corpus entry (nonces from
/// `nonce_base`, past every burst's range) pins the canonical tier-0
/// checksum every burst response is checked against.
fn warm(
    entries: &[Entry],
    nonce_base: usize,
    call: impl Fn(&str) -> Result<String, String>,
) -> Result<Vec<String>, String> {
    let mut canonical = Vec::with_capacity(entries.len());
    for (i, e) in entries.iter().enumerate() {
        let resp = call(&proto_line(e, nonce_base + i, "warm"))?;
        let s = Sample::of(i, i, &resp, 0);
        if s.code != 200 {
            return Err(format!(
                "warm-up compile failed for {}/{}: {}",
                e.kernel,
                e.machine,
                resp.trim_end()
            ));
        }
        canonical.push(s.checksum);
    }
    Ok(canonical)
}

/// Checksum conformance: every 200 at tier 0 must carry its entry's
/// warm-up checksum, and the 200s of one `(entry, tier > 0)` pair must
/// agree with the first — the cache and the shedding tiers must be
/// invisible to correctness. Returns how many do not.
fn mismatches(samples: &[Sample], canonical: &[String]) -> u64 {
    let mut tiered: HashMap<(usize, u64), &str> = HashMap::new();
    let mut bad = 0;
    for s in samples.iter().filter(|s| s.code == 200) {
        let expect = if s.tier == 0 {
            canonical[s.entry].as_str()
        } else {
            tiered.entry((s.entry, s.tier)).or_insert(s.checksum.as_str())
        };
        if s.checksum != expect {
            bad += 1;
        }
    }
    bad
}

/// Latency percentiles of the samples, nearest rank rounded down: `100`
/// is the maximum, and no samples give zeros.
fn percentiles<const N: usize>(samples: &[Sample], ps: [usize; N]) -> [u64; N] {
    let mut lat: Vec<u64> = samples.iter().map(|s| s.micros).collect();
    lat.sort_unstable();
    ps.map(|p| lat.get(lat.len().saturating_sub(1) * p / 100).copied().unwrap_or(0))
}

/// How many samples answered `code`.
fn count(samples: &[Sample], code: u64) -> u64 {
    samples.iter().filter(|s| s.code == code).count() as u64
}

/// A gate's word on stdout and in the reports.
fn verdict(ok: bool) -> &'static str {
    if ok {
        "ok"
    } else {
        "VIOLATED"
    }
}

/// Writes a mode's JSON report to `path` (nothing when it is empty):
/// the flat `fields` (`"key":value,…`), then optionally one named array
/// of row objects. The flat part must parse back under the toolkit's
/// own reader; the rows (signed numbers, nesting) are beyond it.
fn write_report(path: &str, fields: &str, rows: Option<(&str, &[String])>) -> Result<(), String> {
    if path.is_empty() {
        return Ok(());
    }
    let mut json = format!("{{{fields}");
    debug_assert!(parse_object(&format!("{json}}}")).is_some(), "{json}");
    if let Some((name, rows)) = rows {
        json.push_str(&format!(",\"{name}\":[{}]", rows.join(",")));
    }
    json.push_str("}\n");
    std::fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))
}

/// Runs the selected mode: prints its deterministic transcript to
/// stdout and its timing to stderr, and writes its JSON report. Returns
/// `Err` with a diagnostic when an invariant breaks (a dropped response
/// or a checksum nonconformance) — the caller turns that into a nonzero
/// exit.
///
/// # Errors
///
/// Invariant violations, bad flag combinations and JSON-report I/O
/// errors.
pub fn run(cfg: &LoadConfig) -> Result<(), String> {
    if cfg.proto.is_some() && !cfg.chaos_net {
        return Err("--proto selects the --chaos-net wire; it needs --chaos-net".to_string());
    }
    if cfg.diurnal {
        if cfg.chaos_net || cfg.chaos_soak || cfg.backends > 0 {
            return Err("--diurnal combines only with the default mode".to_string());
        }
        return diurnal::run(cfg);
    }
    if cfg.chaos_net {
        return chaosnet::run(cfg);
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
    run_single(cfg)
}

/// The default mode: one paced burst against one in-process server.
fn run_single(cfg: &LoadConfig) -> Result<(), String> {
    let entries = corpus();
    let total = requests(cfg);
    let server = Server::start(ServeConfig {
        workers: cfg.workers,
        queue_bound: cfg.queue_bound,
        ..ServeConfig::default()
    });
    let canonical = warm(&entries, total, |line| Ok(server.handle_line(line, "warmup").to_line()))?;
    let start = Instant::now();
    let samples = burst(cfg, &entries, total, 0, "client", None, |who, line| {
        Some(server.handle_line(line, who).to_line())
    });
    let elapsed_ms = start.elapsed().as_millis() as u64;
    server.drain();

    // ---- invariants (deterministic; stdout) ----
    let responses = samples.len();
    let dropped = total - responses;
    let conforms = mismatches(&samples, &canonical) == 0;
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
    println!("responses={responses} dropped={dropped} conformance={}", verdict(conforms));

    // ---- timing-dependent numbers (stderr + JSON) ----
    let [n200, n400, n429, n500, n503, n504] =
        [200, 400, 429, 500, 503, 504].map(|c| count(&samples, c));
    let degraded = samples.iter().filter(|s| s.code == 200 && s.tier > 0).count() as u64;
    let [p50, p95, p99, pmax] = percentiles(&samples, [50, 95, 99, 100]);
    let throughput = (responses as u64 * 1000).checked_div(elapsed_ms).unwrap_or(0);
    let shed_permille = n503 * 1000 / total.max(1) as u64;
    eprintln!(
        "bench-serve timing: clients={} workers={} bound={} elapsed_ms={elapsed_ms} \
         ok={n200} err400={n400} rate429={n429} panic500={n500} shed503={n503} deadline504={n504} \
         degraded={degraded} p50us={p50} p95us={p95} p99us={p99} maxus={pmax} \
         throughput_rps={throughput} shed_permille={shed_permille}",
        cfg.clients, cfg.workers, cfg.queue_bound
    );
    write_report(
        &cfg.json_path,
        &format!(
            "\"bench\":\"serve\",\"seed\":{},\"rps\":{},\"duration_ms\":{},\"clients\":{},\
             \"workers\":{},\"queue_bound\":{},\"requests\":{total},\"responses\":{responses},\
             \"dropped\":{dropped},\"ok\":{n200},\"compile_errors\":{n400},\"rate_limited\":{n429},\
             \"panics\":{n500},\"shed\":{n503},\"deadline_expired\":{n504},\"degraded\":{degraded},\
             \"p50_us\":{p50},\"p95_us\":{p95},\"p99_us\":{p99},\"max_us\":{pmax},\
             \"elapsed_ms\":{elapsed_ms},\"throughput_rps\":{throughput},\
             \"shed_permille\":{shed_permille},\"conformance\":\"{}\"",
            cfg.seed,
            cfg.rps,
            cfg.duration_ms,
            cfg.clients,
            cfg.workers,
            cfg.queue_bound,
            verdict(conforms)
        ),
        None,
    )?;

    if dropped != 0 {
        return Err(format!("{dropped} requests got no response"));
    }
    if !conforms {
        return Err("checksum conformance violated".to_string());
    }
    Ok(())
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
    fn proto_is_only_the_chaos_net_wire() {
        let cfg = LoadConfig {
            proto: Some(ProtoChoice::Both),
            json_path: String::new(),
            ..LoadConfig::default()
        };
        assert!(run(&cfg).unwrap_err().contains("needs --chaos-net"));
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
