//! The untraced run: set-up, the measured phase, and the checks of every
//! answer, for each workload.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use mcc_cache::{Cache, Persist};
use mcc_core::{Compiler, SourceLang};
use mcc_serve::proto::Response;

use crate::calib::Speed;
use crate::draw::{self, Program, Req, Schedule, Workload};
use crate::host::{Meter, Reading};
use crate::span::Tracer;
use crate::wire::{self, Client, Fleet};

/// Set-up runs this many times per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Requests a fleet client keeps in flight.
pub const WINDOW: usize = 8;

/// Shards in the benchmark's fleet.
pub const SHARDS: usize = 2;

/// Requests per second of `--seconds`: a run's measured phase sends
/// `seconds × rate` requests. The work is fixed, not the time, so both
/// commits of a comparison compile the same programs. On the reference host
/// a phase takes about `seconds` on `compile_cold` and one and a half times
/// that on the fleet workloads, whose shorter phases spread more.
pub fn nominal_rate(w: Workload) -> usize {
    match w {
        Workload::CompileCold => 1_500,
        Workload::FleetHot => 9_000,
        Workload::FleetMixed => 4_000,
    }
}

/// Requests sent before timing starts, from the same mix.
pub fn warmup_len(w: Workload) -> usize {
    match w {
        Workload::CompileCold => 300,
        Workload::FleetHot | Workload::FleetMixed => 1_000,
    }
}

/// Host-speed bursts per measured phase (see [`crate::calib`]).
pub const BURSTS_PER_PHASE: usize = 40;

/// Rounds of the reference programs a fresh fleet may take to warm both
/// shards before set-up gives up.
const MAX_WARM_ROUNDS: usize = 400;

/// What one run works with.
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// The `mcc` binary.
    pub mcc: PathBuf,
    /// Where caches live; emptied by the caller after the run.
    pub work: PathBuf,
    /// When the process started.
    pub started: Instant,
    /// One compiler per machine and algorithm: index `machine * 2 + algo`.
    pub compilers: Vec<Compiler>,
}

impl Ctx {
    /// Logs progress on standard error, stamped with the run's age.
    pub fn note(&self, what: &str) {
        eprintln!(
            "perfbench: [{:7.3} s] {}: {what}",
            self.started.elapsed().as_secs_f64(),
            self.workload.name()
        );
    }

    /// The compiler a program is compiled with.
    pub fn compiler(&self, p: &Program) -> &Compiler {
        &self.compilers[p.machine * draw::ALGOS.len() + p.algo]
    }

    /// A program's source for its own machine.
    pub fn source(&self, p: &Program) -> String {
        p.params.source(self.compiler(p).machine())
    }

    /// The run's schedule.
    pub fn schedule(&self) -> Schedule {
        let n = nominal_rate(self.workload) * self.seconds as usize;
        Schedule::new(self.workload, self.seed, warmup_len(self.workload), n)
    }
}

/// Builds the run context.
pub fn context(workload: Workload, seed: u64, seconds: u64, mcc: PathBuf, work: PathBuf) -> Ctx {
    let started = Instant::now();
    let mut compilers = Vec::new();
    for m in 0..draw::MACHINES.len() {
        for a in 0..draw::ALGOS.len() {
            compilers.push(draw::compiler(draw::machine(m), a));
        }
    }
    Ctx {
        workload,
        seed,
        seconds,
        mcc,
        work,
        started,
        compilers,
    }
}

/// The 64 reference programs, compiled in-process and checked.
pub struct Reference {
    /// The programs, as [`draw::reference_programs`] orders them.
    pub programs: Vec<Program>,
    /// Each program's source.
    pub sources: Vec<String>,
    /// Each program's wire request.
    pub lines: Vec<String>,
    /// Each program's conformance checksum (FNV-1a of the artifact).
    pub checksums: Vec<String>,
    /// Control-store words over all 64.
    pub code_words: u64,
    /// Simulated cycles over all 64.
    pub sim_cycles: u64,
}

/// An artifact's conformance checksum, as `mcc serve` renders it.
fn checksum(art: &mcc_core::Artifact) -> String {
    let text = mcc_cache::serialize_artifact(art);
    format!("{:016x}", mcc_cache::disk::fnv1a(text.as_bytes()))
}

/// A compile request on the wire.
pub fn request_line(id: &str, p: &Program, src: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{id}\",\"machine\":\"{}\",\"lang\":\"{}\",\"algo\":\"{}\",\"src\":\"{}\"}}",
        draw::MACHINES[p.machine],
        p.params.lang().name(),
        draw::ALGOS[p.algo],
        mcc_harness::json::esc(src)
    )
}

/// Compiles `p` in-process, checks it simulates to its reference, and
/// returns the artifact.
///
/// # Errors
///
/// A compile error or a wrong simulated result.
fn compile_checked(ctx: &Ctx, p: &Program) -> Result<(mcc_core::Artifact, u64), String> {
    let c = ctx.compiler(p);
    let art = c
        .compile_contained(p.params.lang(), &ctx.source(p))
        .map_err(|e| format!("{}: {e}", p.describe()))?;
    let cycles = p.run_checked(&art)?.cycles;
    Ok((art, cycles))
}

/// Compiles, checks and measures the reference programs.
///
/// # Errors
///
/// Any reference program that fails to compile, encode or check.
pub fn reference(ctx: &Ctx) -> Result<Reference, String> {
    let programs = draw::reference_programs();
    let sources: Vec<String> = programs.iter().map(|p| ctx.source(p)).collect();
    let mut r = Reference {
        lines: programs
            .iter()
            .zip(&sources)
            .enumerate()
            .map(|(i, (p, src))| request_line(&format!("ref{i}"), p, src))
            .collect(),
        programs,
        sources,
        checksums: Vec::new(),
        code_words: 0,
        sim_cycles: 0,
    };
    for p in &r.programs {
        let (art, cycles) = compile_checked(ctx, p)?;
        let words = art.encode().map_err(|e| format!("{}: {e}", p.describe()))?;
        r.code_words += words.len() as u64;
        r.sim_cycles += cycles;
        r.checksums.push(checksum(&art));
    }
    Ok(r)
}

/// The measured phase of one run.
pub struct Phase {
    /// Per-request latency, in request order.
    pub lat_ns: Vec<u64>,
    /// Requests whose answer was not a correct success.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// CPU, wall, steal and memory over the phase.
    pub reading: Reading,
    /// Why the run did not load the layers its workload names, if so.
    pub integrity: Option<String>,
    /// Per-layer counts the phase observed.
    pub counts: Vec<(&'static str, u64)>,
    /// The host's speed over the phase.
    pub speed: Speed,
}

impl Phase {
    fn note_failure(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// The untraced run: its set-up times, the reference, and the phase.
pub struct Untraced {
    /// Seconds of each set-up.
    pub setups: Vec<f64>,
    /// The reference programs.
    pub reference: Reference,
    /// The measured phase.
    pub phase: Phase,
}

/// A cold request, rendered before timing starts.
struct ColdReq {
    prog: Program,
    lang: SourceLang,
    src: String,
}

/// Renders the cold requests of `reqs`.
fn cold_requests(ctx: &Ctx, reqs: &[Req]) -> Vec<ColdReq> {
    reqs.iter()
        .filter_map(|r| match r {
            Req::Cold(p) => Some(ColdReq {
                prog: *p,
                lang: p.params.lang(),
                src: ctx.source(p),
            }),
            Req::Hot(_) => None,
        })
        .collect()
}

fn timed<T>(t: &mut Option<&mut Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

/// One `mcc run`: compile through the cache with the disk tier, encode,
/// simulate and check. Returns the latency, whether the artifact came
/// from the cache, and the failure if any.
fn run_one(
    ctx: &Ctx,
    cache: &Cache,
    r: &ColdReq,
    t: &mut Option<&mut Tracer>,
    req: u64,
) -> (u64, bool, Result<(), String>) {
    let start = Instant::now();
    if let Some(t) = t.as_deref_mut() {
        t.enter("request", req);
    }
    let c = ctx.compiler(&r.prog);
    let mut cached = false;
    let outcome = match timed(t, "cache.compile", req, || {
        cache.compile(c, r.lang, &r.src, Persist::Disk)
    }) {
        Err(e) => Err(format!("{}: {e}", r.prog.describe())),
        Ok(art) => {
            cached = art.stats.cached.is_some();
            match timed(t, "machine.encode", req, || art.encode()) {
                Err(e) => Err(format!("{}: encode: {e}", r.prog.describe())),
                Ok(words) => {
                    std::hint::black_box(words);
                    timed(t, "sim.run", req, || r.prog.run_checked(&art)).map(|_| ())
                }
            }
        }
    };
    if let Some(t) = t.as_deref_mut() {
        t.exit();
    }
    let lat = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (lat, cached, outcome)
}

/// A fresh cache with its disk tier attached under `dir`.
fn fresh_cache(ctx: &Ctx, dir: &str) -> Result<(Cache, PathBuf), String> {
    let dir = wire::fresh_dir(&ctx.work, dir)?;
    let cache = Cache::new();
    cache
        .attach_disk(&dir)
        .map_err(|e| format!("attach {}: {e}", dir.display()))?;
    Ok((cache, dir))
}

/// Sends `reqs` through `cache`, one after another, and checks each.
fn cold_phase(ctx: &Ctx, cache: &Cache, reqs: &[ColdReq], mut t: Option<&mut Tracer>) -> Phase {
    let every = (reqs.len() / BURSTS_PER_PHASE).max(1);
    let mut speed = Speed::default();
    let mut paused = Duration::ZERO;
    let meter = Meter::start();
    let mut lat_ns = Vec::with_capacity(reqs.len());
    let mut outcomes = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        if i > 0 && i % every == 0 {
            paused += speed.sample();
        }
        let (lat, cached, outcome) = run_one(ctx, cache, r, &mut t, i as u64);
        lat_ns.push(lat);
        outcomes.push((cached, outcome));
    }
    let mut reading = meter.stop();
    reading.exclude(paused);
    let mut phase = Phase {
        lat_ns,
        failed: 0,
        errors: Vec::new(),
        reading,
        integrity: None,
        counts: Vec::new(),
        speed,
    };
    let mut cached = 0;
    for (was_cached, outcome) in outcomes {
        cached += u64::from(was_cached);
        if let Err(e) = outcome {
            phase.note_failure(e);
        }
    }
    if cached > 0 {
        phase.integrity = Some(format!(
            "compile_cold: {cached} of {} artifacts came back with stats.cached set; \
             the workload no longer measures cold compiles",
            reqs.len()
        ));
    }
    phase
}

/// `compile_cold`: set-up, then the measured phase in-process.
///
/// # Errors
///
/// Set-up failures.
fn compile_cold(ctx: &Ctx, sched: &Schedule) -> Result<Untraced, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPEATS {
        if let Some((_, _, cache, dir)) = ready.take() {
            drop(cache);
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        let reference = reference(ctx)?;
        let warm = cold_requests(ctx, &sched.warmup);
        {
            let (cache, dir) = fresh_cache(ctx, "warmup")?;
            let phase = cold_phase(ctx, &cache, &warm, None);
            if let Some(e) = phase.errors.first() {
                return Err(format!("warm-up failed: {e}"));
            }
            drop(cache);
            let _ = std::fs::remove_dir_all(dir);
        }
        let reqs = cold_requests(ctx, &sched.measured);
        let (cache, dir) = fresh_cache(ctx, "cold")?;
        setups.push(t0.elapsed().as_secs_f64());
        ctx.note(&format!("set-up {} took {:.3} s", rep + 1, setups[rep]));
        ready = Some((reference, reqs, cache, dir));
    }
    let (reference, reqs, cache, dir) = ready.expect("set-up ran");
    let mut phase = cold_phase(ctx, &cache, &reqs, None);
    ctx.note(&format!(
        "measured {} requests in {:.3} s",
        reqs.len(),
        phase.reading.wall.as_secs_f64()
    ));
    let n = cache.counters();
    let memory_entries = cache.len_memory() as u64;
    drop(cache);
    let disk_stores = mcc_cache::DiskTier::open(&dir)
        .map(|t| t.len() as u64)
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    phase.counts = vec![
        ("cache.misses", n.misses),
        ("cache.hits", n.hits()),
        ("cache.disk_stores", disk_stores),
        ("cache.memory_entries", memory_entries),
        ("cache.cold_answers", reqs.len() as u64 - n.hits()),
        ("route.hedges", 0),
        ("route.failovers", 0),
        ("serve.shed", 0),
        ("serve.degraded", 0),
    ];
    Ok(Untraced {
        setups,
        reference,
        phase,
    })
}

/// The traced twin of the measured phase on `compile_cold`: the same
/// requests through a fresh cache, with spans.
///
/// # Errors
///
/// Cache set-up failures.
pub fn compile_cold_traced(ctx: &Ctx, sched: &Schedule, t: &mut Tracer) -> Result<Phase, String> {
    let reqs = cold_requests(ctx, &sched.measured);
    let (cache, dir) = fresh_cache(ctx, "cold-traced")?;
    let phase = cold_phase(ctx, &cache, &reqs, Some(t));
    drop(cache);
    let _ = std::fs::remove_dir_all(dir);
    Ok(phase)
}

/// The wire request of each schedule entry.
pub fn fleet_lines(ctx: &Ctx, reference: &Reference, reqs: &[Req], tag: &str) -> Vec<String> {
    reqs.iter()
        .enumerate()
        .map(|(i, r)| match r {
            Req::Hot(k) => request_line(
                &format!("{tag}{i}"),
                &reference.programs[*k],
                &reference.sources[*k],
            ),
            Req::Cold(p) => request_line(&format!("{tag}{i}"), p, &ctx.source(p)),
        })
        .collect()
}

/// A fleet ready for the measured phase, and the client connected to it.
pub struct ReadyFleet {
    /// The fleet.
    pub fleet: Fleet,
    /// The client's connection to its router.
    pub client: Client,
    /// Where its caches live.
    pub dir: PathBuf,
}

/// Spawns a fleet and readies it: reference compiles through the router,
/// both shards warm on every reference program, then the warm-up.
///
/// # Errors
///
/// Spawn failures, wrong reference answers, or shards that never warm.
pub fn fleet_setup(
    ctx: &Ctx,
    reference: &Reference,
    warmup: &[String],
    name: &str,
) -> Result<ReadyFleet, String> {
    let dir = wire::fresh_dir(&ctx.work, name)?;
    let fleet = Fleet::spawn(&ctx.mcc, &dir, SHARDS)?;
    let mut client = Client::connect(&fleet.router, WINDOW as u32)?;
    let (first, _) = client.run(&reference.lines, WINDOW, None, None)?;
    for (i, a) in first.iter().enumerate() {
        let sum = Response::field_str(&a.body, "checksum");
        if Response::field_num(&a.body, "code") != Some(200)
            || sum.as_deref() != Some(&reference.checksums[i])
        {
            return Err(format!(
                "reference {} answered wrongly: {}",
                reference.programs[i].describe(),
                a.body
            ));
        }
    }
    // The router rotates a hot key between its ring primary and successor
    // by the parity of the key's count, so a key is warm only once both
    // shards have answered it. The two algorithms of one source share a
    // ring point, and so a count: alternating the round order gives each
    // of them both parities.
    let mut served: Vec<Vec<String>> = vec![Vec::new(); reference.lines.len()];
    let reversed: Vec<String> = reference.lines.iter().rev().cloned().collect();
    for round in 0..MAX_WARM_ROUNDS {
        if served.iter().all(|s| s.len() >= SHARDS) {
            break;
        }
        let lines = if round % 2 == 0 {
            &reference.lines
        } else {
            &reversed
        };
        for (i, a) in client.run(lines, WINDOW, None, None)?.0.iter().enumerate() {
            let k = if round % 2 == 0 {
                i
            } else {
                lines.len() - 1 - i
            };
            if let Some(b) = Response::field_str(&a.body, "backend") {
                if !served[k].contains(&b) {
                    served[k].push(b);
                }
            }
        }
    }
    if !served.iter().all(|s| s.len() >= SHARDS) {
        return Err(format!(
            "the reference programs did not reach all {SHARDS} shards in {MAX_WARM_ROUNDS} rounds"
        ));
    }
    client.run(warmup, WINDOW, None, None)?;
    Ok(ReadyFleet { fleet, client, dir })
}

/// The checks of one fleet answer, and what it reveals about the layers.
struct Verdict {
    ok: bool,
    code: u64,
    tier: u64,
    cached: String,
}

fn verdict(body: &str, want: Option<&str>) -> Verdict {
    let code = Response::field_num(body, "code").unwrap_or(0);
    let tier = Response::field_num(body, "tier").unwrap_or(0);
    let cached = Response::field_str(body, "cached").unwrap_or_default();
    let sum = Response::field_str(body, "checksum");
    let ok = code == 200 && tier == 0 && want.is_some() && sum.as_deref() == want;
    Verdict {
        ok,
        code,
        tier,
        cached,
    }
}

fn stat(line: &str, field: &str) -> u64 {
    Response::field_num(line, field).unwrap_or(0)
}

/// A fleet workload's measured phase, with every answer checked after it.
///
/// # Errors
///
/// Transport or stats failures.
pub fn fleet_phase(
    ctx: &Ctx,
    reference: &Reference,
    sched: &Schedule,
    ready: ReadyFleet,
    t: Option<&mut Tracer>,
) -> Result<Phase, String> {
    let ReadyFleet {
        fleet,
        mut client,
        dir,
    } = ready;
    let lines = fleet_lines(ctx, reference, &sched.measured, "m");
    let disk_records = |dir: &PathBuf| -> u64 {
        fleet
            .shards
            .iter()
            .map(|(name, _)| {
                mcc_cache::DiskTier::open(&dir.join(name))
                    .map(|d| d.len() as u64)
                    .unwrap_or(0)
            })
            .sum()
    };
    let route0 = fleet.router_stats()?;
    let (miss0, hit0, disk0) = (
        fleet.shard_stat("cache_misses")?,
        fleet.shard_stat("cache_hits")?,
        disk_records(&dir),
    );
    let mut speed = Speed::default();
    let every = (lines.len() / BURSTS_PER_PHASE).max(1);
    let meter = Meter::start();
    let (answers, paused) = client.run(&lines, WINDOW, t, Some((&mut speed, every)))?;
    let mut reading = meter.stop();
    reading.exclude(paused);
    ctx.note(&format!(
        "measured {} requests in {:.3} s",
        lines.len(),
        reading.wall.as_secs_f64()
    ));
    let route1 = fleet.router_stats()?;
    let (miss1, hit1, disk1) = (
        fleet.shard_stat("cache_misses")?,
        fleet.shard_stat("cache_hits")?,
        disk_records(&dir),
    );
    drop(client);
    fleet.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let delta = |field: &str| stat(&route1, field).saturating_sub(stat(&route0, field));
    let (hedges, failovers) = (delta("hedges"), delta("failovers"));
    let mut phase = Phase {
        lat_ns: answers.iter().map(|a| a.lat_ns).collect(),
        failed: 0,
        errors: Vec::new(),
        reading,
        integrity: None,
        counts: Vec::new(),
        speed,
    };
    let (mut shed, mut degraded, mut cold, mut not_memory, mut drawn) = (0, 0, 0, 0, 0);
    for (r, a) in sched.measured.iter().zip(&answers) {
        let want = match r {
            Req::Hot(k) => Some(reference.checksums[*k].clone()),
            Req::Cold(p) => {
                drawn += 1;
                compile_checked(ctx, p).ok().map(|(art, _)| checksum(&art))
            }
        };
        let v = verdict(&a.body, want.as_deref());
        shed += u64::from(v.code == 503);
        degraded += u64::from(v.tier > 0);
        cold += u64::from(v.cached == "cold");
        not_memory += u64::from(v.code == 200 && v.cached != "memory");
        if !v.ok {
            phase.note_failure(format!("{r:?}: {}", a.body));
        }
    }
    ctx.note("checked every answer");
    phase.integrity = match ctx.workload {
        Workload::FleetHot if not_memory > hedges => Some(format!(
            "fleet_hot: {not_memory} answers were not memory-tier hits, beyond the {hedges} hedges; \
             the workload no longer measures the warm path"
        )),
        Workload::FleetMixed if cold.abs_diff(drawn) > hedges => Some(format!(
            "fleet_mixed: {cold} answers were cold compiles for {drawn} new programs, beyond the \
             {hedges} hedges; the workload no longer mixes the intended share of cold compiles"
        )),
        _ => None,
    };
    phase.counts = vec![
        ("cache.misses", miss1.saturating_sub(miss0)),
        ("cache.hits", hit1.saturating_sub(hit0)),
        ("cache.disk_stores", disk1.saturating_sub(disk0)),
        ("cache.memory_entries", miss1),
        ("cache.cold_answers", cold),
        ("route.hedges", hedges),
        ("route.failovers", failovers),
        ("serve.shed", shed),
        ("serve.degraded", degraded),
    ];
    Ok(phase)
}

/// A fleet workload: set-up, then the measured phase through the fleet.
///
/// # Errors
///
/// Set-up or transport failures.
fn fleet(ctx: &Ctx, sched: &Schedule) -> Result<Untraced, String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for rep in 0..SETUP_REPEATS {
        if let Some((_, ReadyFleet { fleet, client, dir })) = ready.take() {
            drop(client);
            fleet.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = if rep == 0 {
            ctx.started
        } else {
            Instant::now()
        };
        let reference = reference(ctx)?;
        let warmup = fleet_lines(ctx, &reference, &sched.warmup, "w");
        let fleet = fleet_setup(ctx, &reference, &warmup, "fleet")?;
        setups.push(t0.elapsed().as_secs_f64());
        ctx.note(&format!("set-up {} took {:.3} s", rep + 1, setups[rep]));
        ready = Some((reference, fleet));
    }
    let (reference, fleet) = ready.expect("set-up ran");
    let phase = fleet_phase(ctx, &reference, sched, fleet, None)?;
    Ok(Untraced {
        setups,
        reference,
        phase,
    })
}

/// The untraced run of the context's workload.
///
/// # Errors
///
/// Set-up or transport failures.
pub fn untraced(ctx: &Ctx, sched: &Schedule) -> Result<Untraced, String> {
    match ctx.workload {
        Workload::CompileCold => compile_cold(ctx, sched),
        Workload::FleetHot | Workload::FleetMixed => fleet(ctx, sched),
    }
}
