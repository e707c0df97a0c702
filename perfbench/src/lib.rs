//! The repository benchmark: seeded workloads over the mcc compiler and
//! its compile service, end-to-end metrics from an untraced run, and
//! per-layer metrics from a separate traced run. See `README.md`.

pub mod bench;
pub mod calib;
pub mod draw;
pub mod host;
pub mod probe;
pub mod replay;
pub mod report;
pub mod span;
pub mod wire;

use std::path::PathBuf;

use draw::Workload;
use report::Metric;
use span::Tracer;

/// One invocation of the benchmark.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// Sizes the measured phase: `seconds × nominal rate` requests.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The `mcc` binary the fleet runs.
    pub mcc: PathBuf,
    /// An empty directory for the run's caches.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    /// Every answer correct and every workload check passed.
    pub correct: bool,
    /// Measured requests.
    pub attempted: u64,
    /// Measured requests without a correct answer.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Interference diagnostics, printed beside the metrics.
    pub diagnostics: Vec<Metric>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Anything that stops the run from measuring at all.
pub fn run(a: &Args) -> Result<Outcome, String> {
    let ctx = bench::context(a.workload, a.seed, a.seconds, a.mcc.clone(), a.work.clone());
    let sched = ctx.schedule();
    let untraced = bench::untraced(&ctx, &sched)?;
    let mut problems: Vec<String> = untraced.phase.errors.clone();
    problems.extend(untraced.phase.integrity.clone());
    let attempted = untraced.phase.lat_ns.len() as u64;
    let failed = untraced.phase.failed;
    let diagnostics = report::diagnostics(&untraced);
    let metrics = if a.trace {
        let mut flow = Tracer::new("flow");
        let traced = match a.workload {
            Workload::CompileCold => bench::compile_cold_traced(&ctx, &sched, &mut flow)?,
            Workload::FleetHot | Workload::FleetMixed => {
                let warmup = bench::fleet_lines(&ctx, &untraced.reference, &sched.warmup, "w");
                let ready = bench::fleet_setup(&ctx, &untraced.reference, &warmup, "fleet-traced")?;
                bench::fleet_phase(&ctx, &untraced.reference, &sched, ready, Some(&mut flow))?
            }
        };
        problems.extend(traced.errors.iter().cloned());
        problems.extend(traced.integrity.clone());
        ctx.note("traced the measured phase");
        // Each phase at the reference speed, as the host may drift between them.
        let per_req = |p: &bench::Phase| {
            p.reading.wall.as_secs_f64() / p.lat_ns.len().max(1) as f64 * p.speed.factor()
        };
        let overhead_pct = (per_req(&traced) / per_req(&untraced.phase) - 1.0) * 100.0;
        let probes = probe::run(&ctx, &sched, &untraced.reference)?;
        ctx.note("probed every layer");
        span::write_all(
            &a.spans,
            &[&probes.reference, &probes.cold, &probes.hot, &flow],
        )
        .map_err(|e| format!("write {}: {e}", a.spans.display()))?;
        report::per_layer(&untraced, &probes, overhead_pct)
    } else {
        report::end_to_end(&untraced)
    };
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        diagnostics,
        problems,
    })
}
