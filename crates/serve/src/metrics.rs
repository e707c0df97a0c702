//! Prometheus-style metrics for the serve path: the scalar series
//! registry that both `stats` and `metrics` render from, per-tenant/class
//! request counters, log-bucketed latency histograms, per-class tier
//! counters, and the text renderer behind the `metrics` op.
//!
//! ## One registry per process
//!
//! A process declares its scalar series once, as a list of [`Series`]:
//! bare name, help text, counter or gauge, and a function that reads
//! the value from the process state when an op renders it. `stats` is
//! that list as flat JSON under each bare name ([`stats`]); `metrics`
//! renders the same list as `mcc_<role>_<name>` ([`render`]), followed
//! by the labelled families, which exist only in `metrics`: per tenant
//! and class here ([`QosMetrics`]), per backend in `route`.
//!
//! ## Naming
//!
//! Everything is prefixed `mcc_serve_` (`mcc_route_` for the router) and
//! follows the Prometheus conventions: counters end in `_total`,
//! histograms expose `_bucket{le=…}` / `_sum` / `_count`, gauges are
//! bare. Latency buckets are powers of two in microseconds
//! (`le="1"`, `"2"`, … `"16777216"`, `"+Inf"`) — log-bucketed so one
//! fixed array spans sub-microsecond cache hits to multi-second
//! deadline-bound compiles with bounded error.
//!
//! ## Label cardinality
//!
//! Tenant ids arrive off the wire, so the registry caps distinct tenant
//! labels at [`MAX_TENANT_LABELS`]; overflow tenants are folded into the
//! reserved label `"other"`. That keeps an id-churn attack from growing
//! the metrics surface without bound while still accounting every
//! request somewhere.
//!
//! The module also carries the two text-level helpers the router uses:
//! [`validate`] (the shape check the tests and the diurnal bench gate
//! on) and [`merge_with_label`] (how `route` folds a shard's exposition
//! into its own under a `shard="…"` label).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::proto::Response;
use crate::qos::Class;

/// Cap on distinct tenant label values; the rest fold into `"other"`.
pub const MAX_TENANT_LABELS: usize = 64;

/// The reserved overflow tenant label.
pub const OVERFLOW_TENANT: &str = "other";

/// Whether a scalar series only rises or is a level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Monotonic; its metric name ends in `_total`.
    Counter,
    /// A level, read as is.
    Gauge,
}

/// One scalar series of a process's registry: the bare name `stats`
/// answers under, the help text `metrics` prints, its kind, and how to
/// read its value from the process state `S` at render time.
pub struct Series<S> {
    /// The `stats` field, and the metric name after the role prefix.
    name: &'static str,
    /// The `# HELP` text.
    help: &'static str,
    kind: Kind,
    /// Reads the current value.
    read: fn(&S) -> u64,
}

impl<S> Series<S> {
    /// A counter series.
    pub const fn counter(name: &'static str, help: &'static str, read: fn(&S) -> u64) -> Self {
        Series { name, help, kind: Kind::Counter, read }
    }

    /// A gauge series.
    pub const fn gauge(name: &'static str, help: &'static str, read: fn(&S) -> u64) -> Self {
        Series { name, help, kind: Kind::Gauge, read }
    }
}

/// A counter series named after, and read from, the `AtomicU64` field of
/// the same name in the process state's `counters`.
#[macro_export]
macro_rules! counter_field {
    ($field:ident, $help:expr) => {
        $crate::metrics::Series::counter(stringify!($field), $help, |s| {
            s.counters.$field.load(::std::sync::atomic::Ordering::Relaxed)
        })
    };
}

/// The `stats` answer: every series of `list` as a flat JSON number
/// under its bare name.
pub fn stats<S>(id: &str, list: &[Series<S>], state: &S) -> Response {
    let mut r = Response::new(id, 200);
    for s in list {
        r.push_num(s.name, (s.read)(state));
    }
    r
}

/// Appends `list` to an exposition: each series once as
/// `<prefix>_<name>` (counters end in `_total`), with one sample per row.
/// A row's label is `key="value"` text, or empty for an unlabelled
/// sample.
pub fn render<S>(out: &mut String, prefix: &str, list: &[Series<S>], rows: &[(String, &S)]) {
    for s in list {
        let (suffix, ty) = match s.kind {
            Kind::Counter => ("_total", "counter"),
            Kind::Gauge => ("", "gauge"),
        };
        let name = format!("{prefix}_{}{suffix}", s.name);
        header(out, &name, ty, s.help);
        for (label, state) in rows {
            let v = (s.read)(state);
            if label.is_empty() {
                out.push_str(&format!("{name} {v}\n"));
            } else {
                out.push_str(&format!("{name}{{{label}}} {v}\n"));
            }
        }
    }
}

/// Writes one family's `# HELP` and `# TYPE` lines.
pub(crate) fn header(out: &mut String, name: &str, ty: &str, help: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {ty}\n"));
}

/// The `metrics` answer: an exposition in the `text` field (JSON-escaped;
/// clients unescape via [`Response::field_str`]).
pub fn response(id: &str, text: &str) -> Response {
    let mut r = Response::new(id, 200);
    r.push_str("format", "prometheus-text");
    r.push_str("text", text);
    r
}

/// Histogram bucket upper bounds: `2^0 .. 2^24` microseconds.
const BUCKETS: usize = 25;

/// One log-bucketed latency histogram (microseconds).
#[derive(Clone, Default)]
pub struct Hist {
    counts: [u64; BUCKETS],
    inf: u64,
    sum: u64,
    count: u64,
}

impl Hist {
    /// Records one observation.
    pub fn observe(&mut self, us: u64) {
        let mut slot = None;
        for (i, bound) in (0..BUCKETS).map(|i| (i, 1u64 << i)) {
            if us <= bound {
                slot = Some(i);
                break;
            }
        }
        match slot {
            Some(i) => self.counts[i] += 1,
            None => self.inf += 1,
        }
        self.sum = self.sum.saturating_add(us);
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Renders the cumulative `_bucket`/`_sum`/`_count` triplet lines.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let mut cum = 0;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            out.push_str(&format!(
                "{name}_bucket{{{labels}le=\"{}\"}} {cum}\n",
                1u64 << i
            ));
        }
        cum += self.inf;
        out.push_str(&format!("{name}_bucket{{{labels}le=\"+Inf\"}} {cum}\n"));
        // `labels` carries a trailing comma for the `le` concatenation;
        // the scalar series drop it.
        let bare = labels.trim_end_matches(',');
        out.push_str(&format!("{name}_sum{{{bare}}} {}\n", self.sum));
        out.push_str(&format!("{name}_count{{{bare}}} {}\n", self.count));
    }
}

/// One tenant's slice of the registry.
#[derive(Default)]
struct TenantMetrics {
    /// Responses by `(class, code)`.
    by_code: BTreeMap<(u8, u16), u64>,
    /// Latency per class, intake to response, of every resolved request.
    latency: [Hist; 3],
}

struct Reg {
    tenants: BTreeMap<String, TenantMetrics>,
    /// Requests served at `(class, tier)`.
    tier: [[u64; 4]; 3],
}

/// The serve-path metrics registry. One per server, shared behind a
/// mutex by the intake (rejections and the fast path), the workers
/// (the compiles they answer) and the deadline scan (`504`s); each
/// records about once per request, far off the per-byte hot path.
pub struct QosMetrics {
    inner: Mutex<Reg>,
}

impl Default for QosMetrics {
    fn default() -> Self {
        QosMetrics {
            inner: Mutex::new(Reg {
                tenants: BTreeMap::new(),
                tier: [[0; 4]; 3],
            }),
        }
    }
}

impl QosMetrics {
    /// Records one resolved request: its response code and latency, and
    /// for a `200` the pressure tier it was served at.
    pub fn record(&self, tenant: &str, class: Class, code: u16, tier: u8, latency_us: u64) {
        let mut reg = self.inner.lock().unwrap();
        if code == 200 {
            reg.tier[class.idx()][usize::from(tier.min(3))] += 1;
        }
        let key = Self::intern(&mut reg, tenant);
        let t = reg.tenants.entry(key).or_default();
        *t.by_code.entry((class.idx() as u8, code)).or_insert(0) += 1;
        t.latency[class.idx()].observe(latency_us);
    }

    /// The label a tenant folds to under the cardinality cap.
    fn intern(reg: &mut Reg, tenant: &str) -> String {
        let name = sanitize_label(tenant);
        if reg.tenants.contains_key(&name) || reg.tenants.len() < MAX_TENANT_LABELS {
            name
        } else {
            OVERFLOW_TENANT.to_string()
        }
    }

    /// Appends the per-tenant/class families to an exposition.
    pub fn render(&self, out: &mut String) {
        let reg = self.inner.lock().unwrap();
        let name = "mcc_serve_requests_total";
        header(out, name, "counter", "Responses by tenant, class and code.");
        for (tenant, t) in &reg.tenants {
            for ((class, code), n) in &t.by_code {
                let class = Class::ALL[usize::from(*class)].name();
                out.push_str(&format!(
                    "{name}{{tenant=\"{tenant}\",class=\"{class}\",code=\"{code}\"}} {n}\n"
                ));
            }
        }

        let name = "mcc_serve_latency_us";
        header(out, name, "histogram", "Request latency in microseconds, intake to response.");
        for (tenant, t) in &reg.tenants {
            for class in Class::ALL {
                let h = &t.latency[class.idx()];
                if h.count == 0 {
                    continue;
                }
                let labels = format!("tenant=\"{tenant}\",class=\"{}\",", class.name());
                h.render(out, name, &labels);
            }
        }

        let name = "mcc_serve_tier_total";
        header(out, name, "counter", "Requests served at each pressure tier.");
        for class in Class::ALL {
            for (tier, n) in reg.tier[class.idx()].iter().enumerate() {
                if *n == 0 {
                    continue;
                }
                out.push_str(&format!(
                    "{name}{{class=\"{}\",tier=\"{tier}\"}} {n}\n",
                    class.name()
                ));
            }
        }
    }
}

/// Escapes a wire-supplied string for use as a Prometheus label value.
pub fn sanitize_label(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for ch in raw.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Validates the shape of a Prometheus text exposition: every non-empty
/// line is a well-formed comment or `name[{labels}] value`, histogram
/// `_bucket` series are cumulative in `le`, and every `TYPE` names one
/// of the types this layer emits. Returns the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let mut bucket_last: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (ln, line) in text.lines().enumerate() {
        let ln = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            match kind {
                "HELP" => {
                    if name.is_empty() || parts.next().is_none() {
                        return Err(format!("line {ln}: HELP without name/text"));
                    }
                }
                "TYPE" => {
                    let ty = parts.next().unwrap_or_default();
                    if !matches!(ty, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {ln}: unknown TYPE `{ty}`"));
                    }
                }
                _ => return Err(format!("line {ln}: unknown comment `{kind}`")),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {ln}: no value"))?;
        if value.parse::<f64>().is_err() {
            return Err(format!("line {ln}: non-numeric value `{value}`"));
        }
        let (name, labels) = match series.split_once('{') {
            Some((n, rest)) => {
                let labels = rest
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {ln}: unterminated label set"))?;
                (n, Some(labels))
            }
            None => (series, None),
        };
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            || name.starts_with(|c: char| c.is_ascii_digit())
        {
            return Err(format!("line {ln}: bad metric name `{name}`"));
        }
        if let Some(labels) = labels {
            for pair in split_labels(labels) {
                let Some((k, v)) = pair.split_once('=') else {
                    return Err(format!("line {ln}: bad label `{pair}`"));
                };
                if k.is_empty() || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                    return Err(format!("line {ln}: bad label `{pair}`"));
                }
            }
            // Histogram buckets must be cumulative in `le` per series.
            if let Some(base) = name.strip_suffix("_bucket") {
                let le = split_labels(labels)
                    .into_iter()
                    .find_map(|p| p.strip_prefix("le=\"").map(|v| v.trim_end_matches('"').to_string()));
                if let Some(le) = le {
                    let le_val = if le == "+Inf" { f64::INFINITY } else { le.parse().map_err(|_| format!("line {ln}: bad le `{le}`"))? };
                    let others: Vec<String> = split_labels(labels)
                        .into_iter()
                        .filter(|p| !p.starts_with("le="))
                        .collect();
                    let key = format!("{base}{{{}}}", others.join(","));
                    let count: u64 = value
                        .parse()
                        .map_err(|_| format!("line {ln}: non-integer bucket count"))?;
                    if let Some((prev_le, prev_count)) = bucket_last.get(&key) {
                        if le_val < *prev_le && *prev_count > count {
                            return Err(format!("line {ln}: bucket counts not cumulative"));
                        }
                        if le_val > *prev_le && count < *prev_count {
                            return Err(format!("line {ln}: bucket counts not cumulative"));
                        }
                    }
                    bucket_last.insert(key, (le_val, count));
                }
            }
        }
    }
    Ok(())
}

/// Splits a label body on commas that are outside quoted values.
fn split_labels(labels: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for ch in labels.chars() {
        if escaped {
            cur.push(ch);
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_quotes => {
                cur.push(ch);
                escaped = true;
            }
            '"' => {
                cur.push(ch);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Folds one exposition into an aggregate under an extra label: every
/// sample line gains `key="value"`, repeated `# HELP`/`# TYPE` headers
/// are deduplicated. This is how `route` and `fleet` merge per-shard
/// expositions into one document.
pub fn merge_with_label(out: &mut String, text: &str, key: &str, value: &str) {
    let tag = format!("{key}=\"{}\"", sanitize_label(value));
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if !out.contains(line) {
                out.push_str(line);
                out.push('\n');
            }
            continue;
        }
        let Some((series, val)) = line.rsplit_once(' ') else {
            continue;
        };
        match series.split_once('{') {
            Some((name, rest)) => {
                out.push_str(&format!("{name}{{{tag},{rest} {val}\n"));
            }
            None => {
                out.push_str(&format!("{series}{{{tag}}} {val}\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_log2_and_cumulative() {
        let mut h = Hist::default();
        for us in [0, 1, 2, 3, 900, 1_000_000, u64::MAX] {
            h.observe(us);
        }
        assert_eq!(h.count(), 7);
        let mut out = String::new();
        h.render(&mut out, "m", "");
        assert!(out.contains("m_bucket{le=\"1\"} 2\n"), "{out}");
        assert!(out.contains("m_bucket{le=\"2\"} 3\n"));
        assert!(out.contains("m_bucket{le=\"4\"} 4\n"));
        assert!(out.contains("m_bucket{le=\"+Inf\"} 7\n"));
        assert!(out.contains("m_count{} 7\n"));
        validate(&out).unwrap();
    }

    #[test]
    fn registry_renders_valid_prometheus_text() {
        let m = QosMetrics::default();
        m.record("acme", Class::Interactive, 200, 0, 120);
        m.record("acme", Class::Interactive, 200, 0, 90_000);
        m.record("acme", Class::Batch, 503, 0, 3);
        m.record("evil\"corp\n", Class::Background, 200, 3, 7);
        let series = [
            Series::gauge("queue_depth", "Admitted-but-unresolved requests.", |v: &u64| *v),
            Series::counter("accepted", "Requests admitted.", |v: &u64| v + 1),
        ];
        let mut text = String::new();
        render(&mut text, "mcc_serve", &series, &[(String::new(), &3)]);
        m.render(&mut text);
        validate(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains(
            "mcc_serve_requests_total{tenant=\"acme\",class=\"interactive\",code=\"200\"} 2"
        ));
        assert!(text.contains("mcc_serve_requests_total{tenant=\"acme\",class=\"batch\",code=\"503\"} 1"));
        assert!(text.contains("tenant=\"evil\\\"corp\\n\""), "labels are escaped: {text}");
        assert!(text.contains("mcc_serve_tier_total{class=\"background\",tier=\"3\"} 1"));
        assert!(text.contains("mcc_serve_tier_total{class=\"interactive\",tier=\"0\"} 2"));
        assert!(!text.contains("class=\"batch\",tier="), "only a 200 counts a tier: {text}");
        assert!(text.contains("# TYPE mcc_serve_queue_depth gauge\nmcc_serve_queue_depth 3\n"));
        assert!(text.contains("counter\nmcc_serve_accepted_total 4\n"), "{text}");
        let line = stats("s", &series, &3).to_line();
        assert_eq!(Response::field_num(&line, "queue_depth"), Some(3));
        assert_eq!(Response::field_num(&line, "accepted"), Some(4));
    }

    #[test]
    fn tenant_labels_fold_into_other_past_the_cap() {
        let m = QosMetrics::default();
        for i in 0..(MAX_TENANT_LABELS + 40) {
            m.record(&format!("t{i:03}"), Class::Batch, 200, 0, 1);
        }
        let mut text = String::new();
        m.render(&mut text);
        let tenants = text.lines().filter(|l| l.starts_with("mcc_serve_requests_total{")).count();
        assert!(tenants <= MAX_TENANT_LABELS + 1);
        let other = format!("{{tenant=\"{OVERFLOW_TENANT}\",class=\"batch\",code=\"200\"}} 40\n");
        assert!(text.contains(&other), "overflow is accounted: {text}");
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        for bad in [
            "no_value\n",
            "1bad_name 3\n",
            "m{x=y} 3\n",
            "m{x=\"y\"} notanumber\n",
            "# TYPE m flavour\n",
            "# NOPE m\n",
            "m_bucket{le=\"1\"} 5\nm_bucket{le=\"2\"} 3\n",
        ] {
            assert!(validate(bad).is_err(), "accepted: {bad:?}");
        }
        validate("").unwrap();
    }

    #[test]
    fn merge_adds_the_shard_label_everywhere() {
        let shard = "# HELP m Help.\n# TYPE m counter\nm{a=\"1\"} 2\nplain 7\n";
        let mut out = String::new();
        merge_with_label(&mut out, shard, "shard", "b0");
        merge_with_label(&mut out, shard, "shard", "b1");
        assert_eq!(out.matches("# HELP m Help.").count(), 1, "headers dedup: {out}");
        assert!(out.contains("m{shard=\"b0\",a=\"1\"} 2"));
        assert!(out.contains("plain{shard=\"b1\"} 7"));
        validate(&out).unwrap();
    }
}
