//! The compile pipeline replayed from outside, one public pass function at
//! a time, in the order `Compiler::compile_mir` runs them, with a span
//! around each call. `core.compile` minus the sum of these spans is the
//! pipeline's unattributed time.

use mcc_core::{Compiler, SourceLang};
use mcc_machine::MicroProgram;

use crate::span::Tracer;

/// Sizes and pass results the replay returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// MIR operations after legalisation and allocation.
    pub mir_ops: u64,
    /// Jumps threaded by `thread_jumps`.
    pub jumps_threaded: u64,
    /// Flag writes proven dead by `mark_dead_flags`.
    pub dead_flags: u64,
    /// Virtual registers spilled by the allocator.
    pub spills: u64,
    /// Degradation steps taken by compaction.
    pub degradations: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Counts) {
        self.mir_ops += o.mir_ops;
        self.jumps_threaded += o.jumps_threaded;
        self.dead_flags += o.dead_flags;
        self.spills += o.spills;
        self.degradations += o.degradations;
    }
}

/// The span name of each frontend.
fn parse_span(lang: SourceLang) -> &'static str {
    match lang {
        SourceLang::Yalll => "yalll.parse",
        SourceLang::Simpl => "simpl.parse",
        SourceLang::Empl => "empl.parse",
        SourceLang::Sstar => "sstar.parse",
    }
}

/// Compiles `src` pass by pass under `c`'s options, inside a `replay` span
/// for request `req`.
///
/// # Errors
///
/// The first pass error, rendered.
pub fn replay(
    t: &mut Tracer,
    req: u64,
    c: &Compiler,
    lang: SourceLang,
    src: &str,
) -> Result<(MicroProgram, Counts), String> {
    t.enter("replay", req);
    let out = passes(t, req, c, lang, src);
    t.exit();
    out
}

fn passes(
    t: &mut Tracer,
    req: u64,
    c: &Compiler,
    lang: SourceLang,
    src: &str,
) -> Result<(MicroProgram, Counts), String> {
    let m = c.machine();
    let o = c.options();
    let limits = &o.limits.frontend;
    let e = |e: &dyn std::fmt::Display| e.to_string();
    let mut f = t.span(parse_span(lang), req, || match lang {
        SourceLang::Yalll => mcc_yalll::parse_with_limits(src, m, limits)
            .map(|p| p.func)
            .map_err(|d| e(&d)),
        SourceLang::Simpl => mcc_simpl::parse_with_limits(src, m, limits)
            .map(|p| p.func)
            .map_err(|d| e(&d)),
        SourceLang::Empl => mcc_empl::compile_with_limits(src, limits)
            .map(|p| p.func)
            .map_err(|d| e(&d)),
        SourceLang::Sstar => Err("the replay covers the suite's three frontends".to_string()),
    })?;
    let mut n = Counts::default();
    t.span("core.validate", req, || f.validate())
        .map_err(|x| e(&x))?;
    t.span("mir.legalize", req, || mcc_mir::legalize(m, &mut f))
        .map_err(|x| e(&x))?;
    t.span("core.validate", req, || f.validate())
        .map_err(|x| e(&x))?;
    n.jumps_threaded = t.span("core.thread_jumps", req, || mcc_core::thread_jumps(&mut f)) as u64;
    if let Some(every) = o.poll_interval {
        t.span("core.insert_polls", req, || {
            mcc_core::insert_polls(&mut f, every)
        });
    }
    let report = t
        .span("regalloc.allocate", req, || {
            mcc_regalloc::allocate(m, &mut f, &o.alloc)
        })
        .map_err(|x| e(&x))?;
    n.spills = report.spilled as u64;
    t.span("mir.legalize", req, || mcc_mir::legalize(m, &mut f))
        .map_err(|x| e(&x))?;
    if f.has_virtual_regs() {
        let again = t
            .span("regalloc.allocate", req, || {
                mcc_regalloc::allocate(m, &mut f, &o.alloc)
            })
            .map_err(|x| e(&x))?;
        n.spills += again.spilled as u64;
    }
    t.span("core.trap_safety", req, || mcc_core::trap_safety(m, &f));
    n.mir_ops = f.op_count() as u64;
    n.dead_flags = t.span("core.mark_dead_flags", req, || {
        mcc_core::mark_dead_flags(&mut f)
    }) as u64;
    let selected = t
        .span("mir.select", req, || mcc_mir::select_function(m, &f))
        .map_err(|x| e(&x))?;
    let (program, emitted) = t.span("compact.emit", req, || {
        mcc_core::emit::emit(m, &selected, o.algorithm, o.model, o.bb_budget)
    });
    n.degradations = emitted.degradations.len() as u64;
    Ok((program, n))
}
