//! Canonical artifact serialisation — hand-rolled, single-line, and
//! deterministic.
//!
//! The workspace has no serialization dependency, so the disk format is
//! written by hand, the same choice the harness journal made. Three
//! properties matter:
//!
//! * **determinism** — map-backed fields (`locations`, `symbols`,
//!   `memory_symbols`) are emitted in sorted order, never in `HashMap`
//!   iteration order, so the same artifact always serialises to the
//!   same bytes;
//! * **single line** — quoted strings escape control characters
//!   through the journal's escaper ([`mcc_harness::json::esc_into`]), so
//!   one record occupies exactly one newline-terminated line of the
//!   on-disk log and torn-tail recovery stays a line-level concern;
//! * **volatile fields excluded** — `CompileStats::pass_nanos` and
//!   `CompileStats::cached` never enter the serialisation. That makes
//!   `serialize_artifact` the *equality witness* the differential tests
//!   use: warm and cold artifacts must serialise byte-identically.
//!
//! The writer runs on every new program, twice in `mcc serve` (the disk
//! record, then the response checksum), so it appends every token to one
//! `String` sized for the program and writes each number's digits
//! straight into it. A `format!` per token would build a fresh `String`
//! for nearly every number of a line of about 650 bytes: in perfbench's
//! traced `compile_cold` runs (`cache.serialize_us`, 2-CPU host) such a
//! writer takes about 10.5 µs per new program and this one 1.9 µs, for
//! the same bytes (`tests/artifact_pinned.rs`).
//!
//! The machine description is **not** stored. The cache key already
//! commits to the machine's full MDL rendering, so the caller's
//! [`MachineDesc`] — required at lookup — is necessarily the one that
//! produced the record, and is re-attached on deserialisation.

use std::collections::HashMap;
use std::sync::Arc;

use mcc_core::passes::Warning;
use mcc_core::{Artifact, CompileStats};
use mcc_harness::json::esc_into;
use mcc_machine::op::MicroBlock;
use mcc_machine::{BoundOp, CondKind, FileId, MachineDesc, MicroInstr, MicroProgram, RegRef, TemplateId};
use mcc_mir::operand::VReg;
use mcc_regalloc::Location;

/// Format tag; bump together with [`crate::FORMAT_VERSION`].
const MAGIC: &str = "mccart1";

// ------------------------------------------------------------- writing ----

/// Appends ` <n>`: a space, then `n` in decimal. Every number in the
/// format is unsigned and every token follows a space, so this one
/// helper writes them all, digit by digit into the line.
fn push_num(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push(' ');
    for &d in &digits[i..] {
        out.push(char::from(d));
    }
}

/// Appends ` "<s>"`, escaped.
fn push_qstr(out: &mut String, s: &str) {
    out.push_str(" \"");
    esc_into(out, s);
    out.push('"');
}

fn push_reg(out: &mut String, r: RegRef) {
    push_num(out, r.file.0.into());
    push_num(out, r.index.into());
}

fn push_loc(out: &mut String, loc: &Location) {
    match loc {
        Location::Reg(r) => {
            out.push_str(" r");
            push_reg(out, *r);
        }
        Location::Scratch(r) => {
            out.push_str(" s");
            push_reg(out, *r);
        }
        Location::Mem(a) => {
            out.push_str(" m");
            push_num(out, *a);
        }
    }
}

/// Condition codes get fixed indices; the exhaustive match means a new
/// variant cannot ship without a format decision.
fn cond_code(c: CondKind) -> u32 {
    match c {
        CondKind::True => 0,
        CondKind::Zero => 1,
        CondKind::NotZero => 2,
        CondKind::Neg => 3,
        CondKind::NotNeg => 4,
        CondKind::Carry => 5,
        CondKind::NotCarry => 6,
        CondKind::Overflow => 7,
        CondKind::Uf => 8,
        CondKind::NotUf => 9,
    }
}

fn cond_of(code: u32) -> Result<CondKind, String> {
    Ok(match code {
        0 => CondKind::True,
        1 => CondKind::Zero,
        2 => CondKind::NotZero,
        3 => CondKind::Neg,
        4 => CondKind::NotNeg,
        5 => CondKind::Carry,
        6 => CondKind::NotCarry,
        7 => CondKind::Overflow,
        8 => CondKind::Uf,
        9 => CondKind::NotUf,
        _ => return Err(format!("bad condition code {code}")),
    })
}

/// Appends ` <n>`, or ` -` for `None`.
fn push_opt(out: &mut String, n: Option<u64>) {
    match n {
        Some(n) => push_num(out, n),
        None => out.push_str(" -"),
    }
}

fn push_op(out: &mut String, op: &BoundOp) {
    push_num(out, op.template.0.into());
    match op.dst {
        Some(r) => push_reg(out, r),
        None => out.push_str(" -"),
    }
    push_num(out, op.srcs.len() as u64);
    for &r in &op.srcs {
        push_reg(out, r);
    }
    push_opt(out, op.imm);
    push_opt(out, op.target.map(u64::from));
    push_opt(out, op.cond.map(|c| cond_code(c).into()));
}

/// Serialises an artifact (without its machine) to one line of text —
/// the canonical byte representation used by the disk tier and by the
/// cache-invisibility tests.
pub fn serialize_artifact(a: &Artifact) -> String {
    // Sized for the program, which is most of the line, so that the
    // common artifact is written without growing the buffer.
    let ops: usize = a
        .program
        .blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .map(|i| i.ops.len())
        .sum();
    let mut out = String::with_capacity(256 + 32 * ops + 24 * a.locations.len());
    out.push_str(MAGIC);

    // Stats (volatile fields excluded).
    let s = &a.stats;
    out.push_str(" stats");
    for n in [
        s.mir_ops,
        s.micro_instrs,
        s.micro_ops,
        s.spills,
        s.spill_moves,
        s.polls,
        s.dead_flags,
    ] {
        push_num(&mut out, n as u64);
    }
    push_qstr(&mut out, &s.algorithm_used);
    push_num(&mut out, s.degradations.len() as u64);
    for d in &s.degradations {
        push_qstr(&mut out, d);
    }

    // Warnings, in pipeline order.
    out.push_str(" warn");
    push_num(&mut out, a.warnings.len() as u64);
    for w in &a.warnings {
        push_qstr(&mut out, &w.message);
    }

    // Map-backed fields in sorted order for determinism.
    let mut locs: Vec<(&VReg, &Location)> = a.locations.iter().collect();
    locs.sort_by_key(|(v, _)| v.0);
    out.push_str(" locs");
    push_num(&mut out, locs.len() as u64);
    for (v, loc) in locs {
        push_num(&mut out, v.0.into());
        push_loc(&mut out, loc);
    }

    let mut syms: Vec<(&String, &Location)> = a.symbols.iter().collect();
    syms.sort_by_key(|(n, _)| n.as_str());
    out.push_str(" syms");
    push_num(&mut out, syms.len() as u64);
    for (n, loc) in syms {
        push_qstr(&mut out, n);
        push_loc(&mut out, loc);
    }

    let mut mems: Vec<(&String, &(u64, u64))> = a.memory_symbols.iter().collect();
    mems.sort_by_key(|(n, _)| n.as_str());
    out.push_str(" mems");
    push_num(&mut out, mems.len() as u64);
    for (n, &(base, len)) in mems {
        push_qstr(&mut out, n);
        push_num(&mut out, base);
        push_num(&mut out, len);
    }

    // The program: blocks of instructions of bound operations.
    out.push_str(" prog");
    push_num(&mut out, a.program.blocks.len() as u64);
    for b in &a.program.blocks {
        push_num(&mut out, b.instrs.len() as u64);
        for i in &b.instrs {
            push_num(&mut out, i.ops.len() as u64);
            for op in &i.ops {
                push_op(&mut out, op);
            }
        }
    }
    out
}

// ------------------------------------------------------------- reading ----

/// A whitespace token stream over one serialised artifact.
struct Toks<'a> {
    rest: &'a str,
}

impl<'a> Toks<'a> {
    fn new(s: &'a str) -> Self {
        Toks { rest: s }
    }

    /// Next raw token (quoted strings are returned *decoded*).
    fn next(&mut self) -> Result<std::borrow::Cow<'a, str>, String> {
        self.rest = self.rest.trim_start_matches(' ');
        if self.rest.is_empty() {
            return Err("unexpected end of record".into());
        }
        if let Some(body) = self.rest.strip_prefix('"') {
            let mut out = String::new();
            let mut chars = body.char_indices();
            while let Some((i, c)) = chars.next() {
                match c {
                    '"' => {
                        self.rest = &body[i + 1..];
                        return Ok(std::borrow::Cow::Owned(out));
                    }
                    '\\' => match chars.next() {
                        Some((_, '"')) => out.push('"'),
                        Some((_, '\\')) => out.push('\\'),
                        Some((_, 'n')) => out.push('\n'),
                        Some((_, 'r')) => out.push('\r'),
                        Some((_, 't')) => out.push('\t'),
                        Some((j, 'u')) => {
                            let hex = body.get(j + 1..j + 5).ok_or("truncated \\u escape")?;
                            let v = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            out.push(char::from_u32(v).ok_or("bad \\u escape")?);
                            // Consume the 4 hex digits.
                            for _ in 0..4 {
                                chars.next();
                            }
                        }
                        _ => return Err("bad escape in quoted string".into()),
                    },
                    c => out.push(c),
                }
            }
            Err("unterminated quoted string".into())
        } else {
            let end = self.rest.find(' ').unwrap_or(self.rest.len());
            let (tok, rest) = self.rest.split_at(end);
            self.rest = rest;
            Ok(std::borrow::Cow::Borrowed(tok))
        }
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let t = self.next()?;
        t.parse().map_err(|_| format!("bad number `{t}`"))
    }

    /// `-` → `None`, otherwise a number.
    fn opt_num<T: std::str::FromStr>(&mut self) -> Result<Option<T>, String> {
        let t = self.next()?;
        if t == "-" {
            return Ok(None);
        }
        t.parse().map(Some).map_err(|_| format!("bad number `{t}`"))
    }

    fn expect(&mut self, word: &str) -> Result<(), String> {
        let t = self.next()?;
        if t == word {
            Ok(())
        } else {
            Err(format!("expected `{word}`, found `{t}`"))
        }
    }

    fn qstr(&mut self) -> Result<String, String> {
        Ok(self.next()?.into_owned())
    }

    fn regref(&mut self) -> Result<RegRef, String> {
        let file: u16 = self.num()?;
        let index: u16 = self.num()?;
        Ok(RegRef::new(FileId(file), index))
    }

    fn loc(&mut self) -> Result<Location, String> {
        let tag = self.next()?;
        Ok(match &*tag {
            "r" => Location::Reg(self.regref()?),
            "s" => Location::Scratch(self.regref()?),
            "m" => Location::Mem(self.num()?),
            t => return Err(format!("bad location tag `{t}`")),
        })
    }

    fn op(&mut self) -> Result<BoundOp, String> {
        let template = TemplateId(self.num()?);
        let dst = match &*self.next()? {
            "-" => None,
            t => {
                let file: u16 = t.parse().map_err(|_| format!("bad file id `{t}`"))?;
                let index: u16 = self.num()?;
                Some(RegRef::new(FileId(file), index))
            }
        };
        let nsrcs: usize = self.num()?;
        let mut srcs = Vec::with_capacity(nsrcs);
        for _ in 0..nsrcs {
            srcs.push(self.regref()?);
        }
        let imm: Option<u64> = self.opt_num()?;
        let target: Option<u32> = self.opt_num()?;
        let cond = match self.opt_num::<u32>()? {
            None => None,
            Some(code) => Some(cond_of(code)?),
        };
        Ok(BoundOp {
            template,
            dst,
            srcs,
            imm,
            target,
            cond,
        })
    }
}

/// Reconstructs an artifact from its canonical serialisation, attaching
/// the caller's `machine` (which the cache key guarantees is the one
/// the artifact was compiled for).
///
/// # Errors
///
/// Returns a description of the first malformed token.
pub fn deserialize_artifact(
    s: &str,
    machine: impl Into<Arc<MachineDesc>>,
) -> Result<Artifact, String> {
    let mut t = Toks::new(s);
    t.expect(MAGIC)?;

    t.expect("stats")?;
    let mut stats = CompileStats {
        mir_ops: t.num()?,
        micro_instrs: t.num()?,
        micro_ops: t.num()?,
        spills: t.num()?,
        spill_moves: t.num()?,
        polls: t.num()?,
        dead_flags: t.num()?,
        algorithm_used: t.qstr()?,
        ..Default::default()
    };
    let ndeg: usize = t.num()?;
    for _ in 0..ndeg {
        stats.degradations.push(t.qstr()?);
    }

    t.expect("warn")?;
    let nwarn: usize = t.num()?;
    let mut warnings = Vec::with_capacity(nwarn);
    for _ in 0..nwarn {
        warnings.push(Warning {
            message: t.qstr()?,
        });
    }

    t.expect("locs")?;
    let nlocs: usize = t.num()?;
    let mut locations = HashMap::with_capacity(nlocs);
    for _ in 0..nlocs {
        let v: u32 = t.num()?;
        locations.insert(VReg(v), t.loc()?);
    }

    t.expect("syms")?;
    let nsyms: usize = t.num()?;
    let mut symbols = HashMap::with_capacity(nsyms);
    for _ in 0..nsyms {
        let name = t.qstr()?;
        symbols.insert(name, t.loc()?);
    }

    t.expect("mems")?;
    let nmems: usize = t.num()?;
    let mut memory_symbols = HashMap::with_capacity(nmems);
    for _ in 0..nmems {
        let name = t.qstr()?;
        let base: u64 = t.num()?;
        let len: u64 = t.num()?;
        memory_symbols.insert(name, (base, len));
    }

    t.expect("prog")?;
    let nblocks: usize = t.num()?;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let ninstrs: usize = t.num()?;
        let mut instrs = Vec::with_capacity(ninstrs);
        for _ in 0..ninstrs {
            let nops: usize = t.num()?;
            let mut ops = Vec::with_capacity(nops);
            for _ in 0..nops {
                ops.push(t.op()?);
            }
            instrs.push(MicroInstr { ops });
        }
        blocks.push(MicroBlock { instrs });
    }

    Ok(Artifact {
        machine: machine.into(),
        program: MicroProgram { blocks },
        locations,
        symbols,
        memory_symbols,
        warnings,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_core::{Compiler, SourceLang};
    use mcc_machine::machines::hm1;

    fn sample() -> Artifact {
        let c = Compiler::new(hm1());
        let mut art = c
            .compile_contained(
                SourceLang::Yalll,
                "reg a = R0\nreg t\nconst a, 5\nconst t, 0\nloop:\nadd t, t, a\nsub a, a, 1\njump loop if a <> 0\nexit t\n",
            )
            .unwrap();
        // Exercise the remaining fields.
        art.memory_symbols.insert("TBL".into(), (0x200, 64));
        art.warnings.push(Warning {
            message: "synthetic \"quoted\"\nwarning\t\u{1}".into(),
        });
        art
    }

    #[test]
    fn roundtrips_byte_identically() {
        let art = sample();
        let bytes = serialize_artifact(&art);
        assert!(!bytes.contains('\n'), "serialisation must be single-line");
        let back = deserialize_artifact(&bytes, art.machine.clone()).unwrap();
        assert_eq!(bytes, serialize_artifact(&back));
        assert_eq!(art.program, back.program);
        assert_eq!(art.symbols.len(), back.symbols.len());
        assert_eq!(art.warnings, back.warnings);
    }

    #[test]
    fn volatile_stats_fields_do_not_change_bytes() {
        let art = sample();
        let mut marked = art.clone();
        marked.stats.cached = Some("memory");
        marked.stats.pass_nanos.clear();
        assert_eq!(serialize_artifact(&art), serialize_artifact(&marked));
    }

    #[test]
    fn truncation_is_detected() {
        let art = sample();
        let bytes = serialize_artifact(&art);
        let cut = &bytes[..bytes.len() - 3];
        assert!(deserialize_artifact(cut, art.machine.clone()).is_err());
    }

    #[test]
    fn simulating_a_deserialized_artifact_matches() {
        let art = sample();
        let back =
            deserialize_artifact(&serialize_artifact(&art), art.machine.clone()).unwrap();
        let (sim_a, stats_a) = art.run().unwrap();
        let (sim_b, stats_b) = back.run().unwrap();
        assert_eq!(stats_a.cycles, stats_b.cycles);
        assert_eq!(art.read_symbol(&sim_a, "t"), back.read_symbol(&sim_b, "t"));
        assert_eq!(art.read_symbol(&sim_a, "t"), Some(15));
    }
}
