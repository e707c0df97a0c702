//! Metric assembly and the result line.

use std::fmt::Write as _;

use crate::bench::Untraced;
use crate::host;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name, as `BENCHMARK.json` declares it.
    pub name: &'static str,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The `p`-quantile of `sorted` by nearest rank.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (the mean of the middle two when even).
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn sorted_lat(u: &Untraced) -> Vec<u64> {
    let mut lat = u.phase.lat_ns.clone();
    lat.sort_unstable();
    lat
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

/// The four host-speed-sensitive measurements of a phase, as measured:
/// throughput, median and p90 latency, CPU per request.
fn timings(u: &Untraced) -> [f64; 4] {
    let lat = sorted_lat(u);
    let n = lat.len().max(1) as f64;
    let p = &u.phase;
    [
        n / p.reading.wall.as_secs_f64(),
        us(percentile(&lat, 0.50)),
        us(percentile(&lat, 0.90)),
        p.reading.cpu_us as f64 / n,
    ]
}

/// The end-to-end metrics of an untraced run. Times are scaled to the
/// reference host speed ([`crate::calib`]): durations are multiplied by the
/// phase's speed factor, rates divided by it. The unscaled values are among
/// the diagnostics.
pub fn end_to_end(u: &Untraced) -> Vec<Metric> {
    let n = u.phase.lat_ns.len().max(1) as f64;
    let p = &u.phase;
    let s = p.speed.factor();
    let [rps, p50, p90, cpu] = timings(u);
    vec![
        m("throughput_rps", rps / s, "ops/s"),
        m("lat_p50_us", p50 * s, "us"),
        m("lat_p90_us", p90 * s, "us"),
        m("cpu_us_per_req", cpu * s, "us"),
        m("ok_ratio", (n - p.failed as f64) / n, "ratio"),
        m("code_words", u.reference.code_words as f64, "count"),
        m("sim_cycles", u.reference.sim_cycles as f64, "count"),
        m("peak_rss_mb", p.reading.peak_rss_mb, "MiB"),
        m("setup_s", median(&u.setups) * s, "s"),
    ]
}

/// What tells a disturbed run from a regression: steal time, host speed,
/// the CPUs the run was allowed, the latency tail and the request count;
/// and the timings as measured, before scaling to the reference speed.
pub fn diagnostics(u: &Untraced) -> Vec<Metric> {
    let lat = sorted_lat(u);
    let p = &u.phase;
    let [rps, p50, p90, cpu] = timings(u);
    vec![
        m("host.steal_frac", p.reading.steal_frac, "ratio"),
        m("host.speed", p.speed.factor(), "ratio"),
        m("measured.throughput_rps", rps, "ops/s"),
        m("measured.lat_p50_us", p50, "us"),
        m("measured.lat_p90_us", p90, "us"),
        m("measured.cpu_us_per_req", cpu, "us"),
        m("measured.setup_s", median(&u.setups), "s"),
        m("host.cpus", host::allowed_cpus().len() as f64, "count"),
        m("client.lat_p99_us", us(percentile(&lat, 0.99)), "us"),
        m(
            "client.lat_max_us",
            us(lat.last().copied().unwrap_or(0)),
            "us",
        ),
        m("requests", lat.len() as f64, "count"),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(u: &Untraced, probes: &crate::probe::Probes, overhead_pct: f64) -> Vec<Metric> {
    let mut out: Vec<Metric> = crate::probe::layer_times(probes)
        .into_iter()
        .map(|(n, v)| m(n, v, "us"))
        .collect();
    let c = probes.counts;
    for (name, v) in [
        ("mir.ops", c.mir_ops),
        ("core.jumps_threaded", c.jumps_threaded),
        ("core.dead_flags", c.dead_flags),
        ("regalloc.spills", c.spills),
        ("compact.degradations", c.degradations),
    ] {
        out.push(m(name, v as f64, "count"));
    }
    for &(name, v) in &u.phase.counts {
        out.push(m(name, v as f64, "count"));
    }
    out.push(m("fleet.spawn_s", probes.spawn_s, "s"));
    let keep = [
        "host.steal_frac",
        "host.speed",
        "host.cpus",
        "client.lat_p99_us",
        "client.lat_max_us",
    ];
    out.extend(
        diagnostics(u)
            .into_iter()
            .filter(|d| keep.contains(&d.name)),
    );
    out.push(m("trace.overhead_pct", overhead_pct, "%"));
    out
}

fn number(v: f64) -> String {
    if !v.is_finite() {
        return "-1".to_string();
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        return format!("{}", v as i64);
    }
    format!("{v}")
}

/// A flat JSON object of metrics: `{"name": {"value": v, "unit": "u"}, …}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, x) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            x.name,
            number(x.value),
            x.unit
        );
    }
    out.push('}');
    out
}

/// The run's result line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[m("a", 1.25, "ms"), m("b", 7.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 7, \"unit\": \"count\"}}}"
        );
    }
}
