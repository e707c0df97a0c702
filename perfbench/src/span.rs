//! In-memory spans for the traced run: name, start, end, parent span and
//! request id, kept in a vector and written out once when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer and call, e.g. `mir.legalize`.
    pub name: &'static str,
    /// The request this span belongs to.
    pub req: u64,
    /// The enclosing span, if any (an index into the tracer's spans).
    pub parent: Option<usize>,
    /// Start, in ns since the tracer started.
    pub start_ns: u64,
    /// End, in ns since the tracer started.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans. A span opened while another is open becomes its
/// child; each closes in reverse order of opening.
pub struct Tracer {
    phase: &'static str,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer for one phase of the traced run.
    pub fn new(phase: &'static str) -> Tracer {
        Tracer {
            phase,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` for request `req`.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, req);
        let out = f();
        self.exit();
        out
    }

    /// Records a span whose start and end were taken elsewhere, with no
    /// parent — a client-side request span, for instance, of which several
    /// overlap.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.t0).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            req,
            parent: None,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children never overlap each other, as they nest).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Per request, the summed self time of every span named `name`, in
    /// ns; requests without such a span are absent.
    pub fn per_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let selfs = self.self_ns();
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            if s.name == name {
                *out.entry(s.req).or_insert(0) += own;
            }
        }
        out
    }

    /// Per request, the summed duration of every span named `name`, in ns.
    pub fn per_request_dur(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.req).or_insert(0) += s.dur_ns();
        }
        out
    }

    /// Appends every span as one JSON line to `out`.
    ///
    /// # Errors
    ///
    /// The underlying write error.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"phase\":\"{}\",\"id\":{i},\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
                self.phase, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes the spans of every tracer to `path`, in one go.
///
/// # Errors
///
/// Any error creating the directory or writing the file.
pub fn write_all(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in tracers {
        t.write_jsonl(&mut out)?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("test");
        t.enter("outer", 1);
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let selfs = t.self_ns();
        let outer = &t.spans[0];
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(
            selfs[0],
            outer.dur_ns() - t.spans[1].dur_ns() - t.spans[2].dur_ns()
        );
        let inner = t.per_request("inner");
        assert_eq!(inner[&1], t.spans[1].dur_ns() + t.spans[2].dur_ns());
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).expect("write to memory");
        assert_eq!(String::from_utf8(buf).expect("utf-8").lines().count(), 3);
    }
}
