//! The traced run's layer probes. Each layer is timed from outside by
//! calling its public functions on the run's own request mix: cold
//! requests through the compile passes, the cache's miss path, the encoder,
//! the simulator and an in-process server; hot requests through the cache's
//! memory tier, the request parser, the v2 codec, an in-process server and
//! router, and one real `mcc serve` shard over TCP. Where one layer calls
//! the next, both are timed on the same input and the difference is the
//! outer layer's own cost.

use std::collections::BTreeMap;
use std::sync::Arc;

use mcc_cache::{Cache, Persist};
use mcc_route::{Backend, InProcBackend, RouteConfig, Router, TcpBackend};
use mcc_serve::proto::{self, Response};
use mcc_serve::proto2::{self, FrameType};
use mcc_serve::{ServeConfig, Server};

use crate::bench::{self, Ctx, Reference};
use crate::draw::{Program, Req, Schedule, Workload};
use crate::replay::{self, Counts};
use crate::span::Tracer;
use crate::wire::{self, Fleet};

/// Cold requests probed per second of `--seconds`.
const COLD_PER_SECOND: usize = 150;

/// Hot requests probed per second of `--seconds`.
const HOT_PER_SECOND: usize = 300;

/// Client id the probes' enveloped frames carry.
const CID: &str = "perfbench";

/// What the probes recorded.
pub struct Probes {
    /// Spans of the replay of the 64 reference programs.
    pub reference: Tracer,
    /// Spans of the cold-request probes.
    pub cold: Tracer,
    /// Spans of the hot-request probes.
    pub hot: Tracer,
    /// Replay counts summed over the 64 reference programs.
    pub counts: Counts,
    /// Seconds from spawning the probes' fleet to its first answered ping.
    pub spawn_s: f64,
}

/// Replays the 64 reference programs pass by pass and checks that each
/// encodes to the same control-store words as `Compiler::compile_contained`.
///
/// # Errors
///
/// A pass error, or a replay that disagrees with the pipeline.
pub fn replay_reference(ctx: &Ctx, t: &mut Tracer) -> Result<Counts, String> {
    let mut total = Counts::default();
    for (i, p) in crate::draw::reference_programs().iter().enumerate() {
        let c = ctx.compiler(p);
        let lang = p.params.lang();
        let src = ctx.source(p);
        let (program, n) = replay::replay(t, i as u64, c, lang, &src)
            .map_err(|e| format!("{}: {e}", p.describe()))?;
        let outside = mcc_machine::encode_program(c.machine(), &program)
            .map_err(|e| format!("{}: {e}", p.describe()))?;
        let art = c
            .compile_contained(lang, &src)
            .map_err(|e| format!("{}: {e}", p.describe()))?;
        let inside = art.encode().map_err(|e| format!("{}: {e}", p.describe()))?;
        if outside != inside {
            return Err(format!(
                "{}: the outside replay encodes to {} words, compile_contained to {}, and they differ",
                p.describe(),
                outside.len(),
                inside.len()
            ));
        }
        total += n;
    }
    Ok(total)
}

/// The new programs of a schedule's measured phase, in order.
fn cold_programs(sched: &Schedule) -> Vec<Program> {
    sched
        .measured
        .iter()
        .filter_map(|r| match r {
            Req::Cold(p) => Some(*p),
            Req::Hot(_) => None,
        })
        .collect()
}

/// The reference programs a schedule's measured phase picks, in order.
fn hot_picks(sched: &Schedule) -> Vec<usize> {
    sched
        .measured
        .iter()
        .filter_map(|r| match r {
            Req::Hot(k) => Some(*k),
            Req::Cold(_) => None,
        })
        .collect()
}

/// Runs every probe on `sched`'s mix. A workload without new programs is
/// probed with the ones `compile_cold` draws from the same seed; one without
/// hot requests with the picks `fleet_hot` makes from it.
///
/// # Errors
///
/// Any failed call, wrong answer, or replay mismatch.
pub fn run(ctx: &Ctx, sched: &Schedule, reference: &Reference) -> Result<Probes, String> {
    let seconds = ctx.seconds as usize;
    let mut colds = cold_programs(sched);
    colds.truncate(COLD_PER_SECOND * seconds);
    if colds.is_empty() {
        colds = cold_programs(&Schedule::new(
            Workload::CompileCold,
            ctx.seed,
            0,
            COLD_PER_SECOND * seconds,
        ));
    }
    let mut hots = hot_picks(sched);
    hots.truncate(HOT_PER_SECOND * seconds);
    if hots.is_empty() {
        hots = hot_picks(&Schedule::new(
            Workload::FleetHot,
            ctx.seed,
            0,
            HOT_PER_SECOND * seconds,
        ));
    }

    let mut reference_spans = Tracer::new("reference");
    let counts = replay_reference(ctx, &mut reference_spans)?;
    let server = Arc::new(Server::start(ServeConfig::default()));
    let cold = probe_cold(ctx, &colds, &server)?;
    let (hot, spawn_s) = probe_hot(ctx, &hots, reference, &server)?;
    Ok(Probes {
        reference: reference_spans,
        cold,
        hot,
        counts,
        spawn_s,
    })
}

fn probe_cold(ctx: &Ctx, colds: &[Program], server: &Server) -> Result<Tracer, String> {
    let cache_dir = wire::fresh_dir(&ctx.work, "probe-cache")?;
    let cache = Cache::new();
    cache
        .attach_disk(&cache_dir)
        .map_err(|e| format!("attach {}: {e}", cache_dir.display()))?;
    let disk_dir = wire::fresh_dir(&ctx.work, "probe-disk")?;
    let mut disk = mcc_cache::DiskTier::open(&disk_dir)
        .map_err(|e| format!("open {}: {e}", disk_dir.display()))?;
    let mut t = Tracer::new("cold");
    for (r, p) in colds.iter().enumerate() {
        let req = r as u64;
        let c = ctx.compiler(p);
        let lang = p.params.lang();
        let src = ctx.source(p);
        let line = bench::request_line(&format!("c{r}"), p, &src);
        let fail =
            |what: &str, e: &dyn std::fmt::Display| format!("{} ({what}): {e}", p.describe());
        // One untimed compile first, so every timed call below finds the
        // input equally warm in the CPU caches.
        std::hint::black_box(
            c.compile_contained(lang, &src)
                .map_err(|e| fail("warm", &e))?,
        );
        t.enter("probe.cold", req);
        replay::replay(&mut t, req, c, lang, &src).map_err(|e| fail("replay", &e))?;
        let art = t
            .span("core.compile", req, || c.compile_contained(lang, &src))
            .map_err(|e| fail("compile", &e))?;
        let key = t.span("cache.key", req, || {
            mcc_cache::key_of(c.machine(), lang, c.options(), &src)
        });
        let missed = t
            .span("cache.compile", req, || {
                cache.compile(c, lang, &src, Persist::Disk)
            })
            .map_err(|e| fail("cache", &e))?;
        if missed.stats.cached.is_some() {
            return Err(fail("cache", &"a new program was answered from the cache"));
        }
        let payload = t.span("cache.serialize", req, || {
            mcc_cache::serialize_artifact(&art)
        });
        t.span("cache.disk_store", req, || disk.store(key, &payload))
            .map_err(|e| fail("store", &e))?;
        let words = t
            .span("machine.encode", req, || art.encode())
            .map_err(|e| fail("encode", &e))?;
        std::hint::black_box(words);
        t.span("sim.run", req, || p.run_checked(&art))?;
        let resp = t
            .span("serve.handle_cold", req, || server.handle_line(&line, CID))
            .to_line();
        t.exit();
        if Response::field_num(&resp, "code") != Some(200)
            || Response::field_str(&resp, "cached").as_deref() != Some("cold")
        {
            return Err(fail("serve", &resp.trim_end()));
        }
    }
    drop(cache);
    drop(disk);
    let _ = std::fs::remove_dir_all(cache_dir);
    let _ = std::fs::remove_dir_all(disk_dir);
    Ok(t)
}

fn probe_hot(
    ctx: &Ctx,
    hots: &[usize],
    reference: &Reference,
    server: &Arc<Server>,
) -> Result<(Tracer, f64), String> {
    let sources = &reference.sources;
    // Warm every layer on the 64 reference programs: the cache's memory
    // tier, both in-process servers (each memoizes its own responses),
    // and the real shard.
    let cache = Cache::new();
    for (p, src) in reference.programs.iter().zip(sources) {
        cache
            .compile(ctx.compiler(p), p.params.lang(), src, Persist::Memory)
            .map_err(|e| e.to_string())?;
    }
    let second = Arc::new(Server::start(ServeConfig::default()));
    for s in [server, &second] {
        for _ in 0..2 {
            for line in &reference.lines {
                s.handle_line(line, CID);
            }
        }
    }
    let router = Router::new(
        vec![
            Arc::new(InProcBackend::new("b0", Arc::clone(server))) as Arc<dyn Backend>,
            Arc::new(InProcBackend::new("b1", second)) as Arc<dyn Backend>,
        ],
        RouteConfig::default(),
    );
    let dir = wire::fresh_dir(&ctx.work, "probe-fleet")?;
    let fleet = Fleet::spawn(&ctx.mcc, &dir, bench::SHARDS)?;
    let spawn_s = fleet.spawn_s;
    let shard = fleet
        .shards
        .first()
        .map(|(_, a)| a.clone())
        .ok_or("the fleet announced no shard")?;
    let v1 = TcpBackend::new("b0", &shard, ctx.seed, 4);
    let v2 = TcpBackend::new("b0", &shard, ctx.seed, 4).with_proto2(true);
    let mut rid = 0u64;
    let mut envelope = |line: &str| {
        rid += 1;
        proto::wrap_envelope(CID, rid, line)
    };
    for _ in 0..2 {
        for line in &reference.lines {
            v1.call(&envelope(line), CID)?;
            v2.call(&envelope(line), CID)?;
        }
    }

    let mut t = Tracer::new("hot");
    let mut answers = Vec::with_capacity(4);
    for (r, &k) in hots.iter().enumerate() {
        let req = r as u64;
        let p = &reference.programs[k];
        let line = &reference.lines[k];
        let (first, second) = (envelope(line), envelope(line));
        answers.clear();
        t.enter("probe.hot", req);
        let parsed = t.span("serve.parse_request", req, || proto::parse_request(line));
        let hit = t
            .span("cache.hit_memory", req, || {
                cache.compile(
                    ctx.compiler(p),
                    p.params.lang(),
                    &sources[k],
                    Persist::Memory,
                )
            })
            .map_err(|e| e.to_string())?;
        let resp = t
            .span("serve.handle_hot", req, || server.handle_line(line, CID))
            .to_line();
        let min = Some(proto2::COMPRESS_MIN_BYTES);
        let (mut req_frame, mut resp_frame) = (Vec::new(), Vec::new());
        t.span("serve.v2_encode", req, || {
            proto2::encode_frame(&mut req_frame, FrameType::Request, "", req, line, min);
            proto2::encode_frame(
                &mut resp_frame,
                FrameType::Response,
                "",
                req,
                resp.trim_end(),
                min,
            );
        });
        let decoded = t.span("serve.v2_decode", req, || {
            (
                proto2::decode_frame(&req_frame),
                proto2::decode_frame(&resp_frame),
            )
        });
        answers.push(t.span("route.handle", req, || router.handle_line(line, CID)));
        answers.push(t.span("route.wire_v1", req, || v1.call(&first, CID))?);
        answers.push(t.span("route.wire_v2", req, || v2.call(&second, CID))?);
        t.exit();
        parsed.map_err(|e| format!("{}: the request did not parse: {e}", p.describe()))?;
        if hit.stats.cached != Some("memory") {
            return Err(format!(
                "{}: the warm key missed the memory tier",
                p.describe()
            ));
        }
        if !matches!(decoded, (Ok(_), Ok(_))) {
            return Err(format!("{}: a v2 frame failed to decode", p.describe()));
        }
        answers.push(resp);
        for a in &answers {
            let a = proto::envelope_body(a);
            if Response::field_num(a, "code") != Some(200)
                || Response::field_str(a, "cached").as_deref() != Some("memory")
            {
                return Err(format!(
                    "{}: a warm call answered {}",
                    p.describe(),
                    a.trim_end()
                ));
            }
        }
    }
    drop((v1, v2));
    fleet.stop();
    let _ = std::fs::remove_dir_all(dir);
    Ok((t, spawn_s))
}

/// Mean of `values`, in µs. A mean, not a median: a layer's per-request
/// times are often bimodal — half the requests allocate registers in 1 µs,
/// the rest in 20 µs to 2.3 ms — so a median jumps between the modes with
/// the mix, while means stay put and add up to the whole.
fn mean_us(values: Vec<i64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<i64>() as f64 / values.len() as f64 / 1000.0
}

/// Per request, `a − b` over the requests that have both.
fn diff(a: &BTreeMap<u64, u64>, b: &BTreeMap<u64, u64>) -> Vec<i64> {
    a.iter()
        .filter_map(|(r, x)| b.get(r).map(|y| *x as i64 - *y as i64))
        .collect()
}

fn values(m: &BTreeMap<u64, u64>) -> Vec<i64> {
    m.values().map(|&v| v as i64).collect()
}

/// Per request, the sum of several spans' self times.
fn sum_of(t: &Tracer, names: &[&str]) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for name in names {
        for (r, v) in t.per_request(name) {
            *out.entry(r).or_insert(0) += v;
        }
    }
    out
}

/// The per-layer timing metrics, in µs: per-request means of span self
/// times, or of the difference between an outer and an inner call.
pub fn layer_times(p: &Probes) -> Vec<(&'static str, f64)> {
    let c = &p.cold;
    let h = &p.hot;
    let compile = c.per_request("core.compile");
    let cache_compile = c.per_request("cache.compile");
    // The replay span's children are the pass calls; their total is the
    // replay's duration minus its own glue.
    let passes: BTreeMap<u64, u64> = {
        let dur = c.per_request_dur("replay");
        let own = c.per_request("replay");
        dur.iter()
            .map(|(r, d)| (*r, d - own.get(r).copied().unwrap_or(0)))
            .collect()
    };
    let hot_serve = h.per_request("serve.handle_hot");
    let single = |t: &Tracer, name: &str| mean_us(values(&t.per_request(name)));
    vec![
        ("yalll.parse_us", single(c, "yalll.parse")),
        ("simpl.parse_us", single(c, "simpl.parse")),
        ("empl.parse_us", single(c, "empl.parse")),
        ("mir.legalize_us", single(c, "mir.legalize")),
        ("mir.select_us", single(c, "mir.select")),
        ("core.trap_safety_us", single(c, "core.trap_safety")),
        (
            "core.other_passes_us",
            mean_us(values(&sum_of(
                c,
                &[
                    "core.validate",
                    "core.thread_jumps",
                    "core.mark_dead_flags",
                    "core.insert_polls",
                ],
            ))),
        ),
        ("regalloc.allocate_us", single(c, "regalloc.allocate")),
        ("compact.emit_us", single(c, "compact.emit")),
        ("core.compile_us", mean_us(values(&compile))),
        ("core.unattributed_us", mean_us(diff(&compile, &passes))),
        ("cache.key_us", single(c, "cache.key")),
        ("cache.serialize_us", single(c, "cache.serialize")),
        ("cache.disk_store_us", single(c, "cache.disk_store")),
        (
            "cache.miss_overhead_us",
            mean_us(diff(&cache_compile, &compile)),
        ),
        ("machine.encode_us", single(c, "machine.encode")),
        ("sim.run_us", single(c, "sim.run")),
        ("serve.handle_cold_us", single(c, "serve.handle_cold")),
        (
            "serve.queue_us",
            mean_us(diff(&c.per_request("serve.handle_cold"), &cache_compile)),
        ),
        ("serve.parse_request_us", single(h, "serve.parse_request")),
        ("serve.v2_decode_us", single(h, "serve.v2_decode")),
        ("serve.v2_encode_us", single(h, "serve.v2_encode")),
        ("cache.hit_memory_us", single(h, "cache.hit_memory")),
        ("serve.handle_hot_us", mean_us(values(&hot_serve))),
        (
            "route.self_us",
            mean_us(diff(&h.per_request("route.handle"), &hot_serve)),
        ),
        (
            "route.wire_v1_us",
            mean_us(diff(&h.per_request("route.wire_v1"), &hot_serve)),
        ),
        (
            "route.wire_v2_us",
            mean_us(diff(&h.per_request("route.wire_v2"), &hot_serve)),
        ),
    ]
}
