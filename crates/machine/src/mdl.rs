//! **MDL** — a textual Machine Description Language.
//!
//! The survey's §2.2.5 singles out one unique feature of MPGL: "a complete
//! machine specification is part of the program and the compiler uses this
//! specification to generate code". MDL provides the same capability for
//! this toolkit: a machine description can be written as text, parsed into
//! a [`MachineDesc`], and fed to the whole pipeline. [`to_mdl`] serialises
//! any machine back to text, and parsing is its inverse.
//!
//! # Format (line oriented; `#` starts a comment)
//!
//! ```text
//! machine TINY width 16 phases 3
//! file R count 16 width 16 macro
//! file S count 3 width 16
//! special acc = S 0
//! special mar = S 1
//! special mbr = S 2
//! scratch R
//! class gp = R[0..16]
//! resource alu kind alu
//! field alu_op width 5
//! cond zero
//! template add semantic alu.add
//!   dst gp
//!   src gp
//!   src gp
//!   flags
//!   set alu_op = const 1
//!   occupy alu 0..3
//! end
//! ```

use crate::machine::MachineDesc;
use crate::regs::{RegClass, RegRef, RegisterFile};
use crate::resource::{Resource, ResourceKind, ResourceUse};
use crate::semantic::{AluOp, CondKind, Semantic, ShiftOp};
use crate::srclist::MAX_SRCS;
use crate::template::{FieldValueSrc, MicroOpTemplate, SrcSpec};

/// A parse error, with the 1-based line number where it occurred.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MdlError {
    /// 1-based source line.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for MdlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mdl:{}: {}", self.line, self.message)
    }
}

impl std::error::Error for MdlError {}

fn err(line: usize, message: impl Into<String>) -> MdlError {
    MdlError {
        line,
        message: message.into(),
    }
}

fn semantic_name(s: Semantic) -> String {
    match s {
        Semantic::Alu(op) => format!("alu.{}", op.name()),
        Semantic::Shift(op) => format!("shift.{}", op.name()),
        Semantic::Move => "move".into(),
        Semantic::LoadImm => "loadimm".into(),
        Semantic::MemRead => "memread".into(),
        Semantic::MemWrite => "memwrite".into(),
        Semantic::Jump => "jump".into(),
        Semantic::Branch => "branch".into(),
        Semantic::Dispatch => "dispatch".into(),
        Semantic::Call => "call".into(),
        Semantic::Return => "return".into(),
        Semantic::Poll => "poll".into(),
        Semantic::Halt => "halt".into(),
        Semantic::Nop => "nop".into(),
    }
}

fn parse_semantic(s: &str, line: usize) -> Result<Semantic, MdlError> {
    if let Some(op) = s.strip_prefix("alu.") {
        return AluOp::from_name(op)
            .map(Semantic::Alu)
            .ok_or_else(|| err(line, format!("unknown alu op `{op}`")));
    }
    if let Some(op) = s.strip_prefix("shift.") {
        return ShiftOp::from_name(op)
            .map(Semantic::Shift)
            .ok_or_else(|| err(line, format!("unknown shift op `{op}`")));
    }
    Ok(match s {
        "move" => Semantic::Move,
        "loadimm" => Semantic::LoadImm,
        "memread" => Semantic::MemRead,
        "memwrite" => Semantic::MemWrite,
        "jump" => Semantic::Jump,
        "branch" => Semantic::Branch,
        "dispatch" => Semantic::Dispatch,
        "call" => Semantic::Call,
        "return" => Semantic::Return,
        "poll" => Semantic::Poll,
        "halt" => Semantic::Halt,
        "nop" => Semantic::Nop,
        _ => return Err(err(line, format!("unknown semantic `{s}`"))),
    })
}

fn cond_name(c: CondKind) -> &'static str {
    match c {
        CondKind::True => "true",
        CondKind::Zero => "zero",
        CondKind::NotZero => "notzero",
        CondKind::Neg => "neg",
        CondKind::NotNeg => "notneg",
        CondKind::Carry => "carry",
        CondKind::NotCarry => "notcarry",
        CondKind::Overflow => "overflow",
        CondKind::Uf => "uf",
        CondKind::NotUf => "notuf",
    }
}

fn parse_cond(s: &str, line: usize) -> Result<CondKind, MdlError> {
    Ok(match s {
        "true" => CondKind::True,
        "zero" => CondKind::Zero,
        "notzero" => CondKind::NotZero,
        "neg" => CondKind::Neg,
        "notneg" => CondKind::NotNeg,
        "carry" => CondKind::Carry,
        "notcarry" => CondKind::NotCarry,
        "overflow" => CondKind::Overflow,
        "uf" => CondKind::Uf,
        "notuf" => CondKind::NotUf,
        _ => return Err(err(line, format!("unknown condition `{s}`"))),
    })
}

fn kind_name(k: ResourceKind) -> &'static str {
    match k {
        ResourceKind::Alu => "alu",
        ResourceKind::Shifter => "shifter",
        ResourceKind::Memory => "memory",
        ResourceKind::Sequencer => "sequencer",
        ResourceKind::Bus => "bus",
        ResourceKind::Port => "port",
        ResourceKind::Other => "other",
    }
}

fn parse_kind(s: &str, line: usize) -> Result<ResourceKind, MdlError> {
    Ok(match s {
        "alu" => ResourceKind::Alu,
        "shifter" => ResourceKind::Shifter,
        "memory" => ResourceKind::Memory,
        "sequencer" => ResourceKind::Sequencer,
        "bus" => ResourceKind::Bus,
        "port" => ResourceKind::Port,
        "other" => ResourceKind::Other,
        _ => return Err(err(line, format!("unknown resource kind `{s}`"))),
    })
}

/// Serialises a machine description to MDL text. `parse(to_mdl(m))`
/// reproduces `m` up to field offsets (which are recomputed).
pub fn to_mdl(m: &MachineDesc) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "machine {} width {} phases {}",
        m.name, m.word_bits, m.phases
    );
    for f in &m.files {
        let _ = writeln!(
            out,
            "file {} count {} width {}{}",
            f.name,
            f.count,
            f.width,
            if f.macro_visible { " macro" } else { "" }
        );
    }
    let fname = |r: RegRef| m.file(r.file).name.clone();
    if let Some(r) = m.special.acc {
        let _ = writeln!(out, "special acc = {} {}", fname(r), r.index);
    }
    if let Some(r) = m.special.mar {
        let _ = writeln!(out, "special mar = {} {}", fname(r), r.index);
    }
    if let Some(r) = m.special.mbr {
        let _ = writeln!(out, "special mbr = {} {}", fname(r), r.index);
    }
    if let Some(r) = m.special.flags {
        let _ = writeln!(out, "special flags = {} {}", fname(r), r.index);
    }
    if let Some(f) = m.scratch_file {
        let _ = writeln!(out, "scratch {}", m.file(f).name);
    }
    let _ = writeln!(
        out,
        "service interrupt {} trap {}",
        m.interrupt_service_cycles, m.trap_service_cycles
    );
    for c in &m.classes {
        let ranges: Vec<String> = c
            .ranges
            .iter()
            .map(|&(f, lo, n)| format!("{}[{}..{}]", m.file(f).name, lo, lo + n))
            .collect();
        let _ = writeln!(out, "class {} = {}", c.name, ranges.join(", "));
    }
    for r in &m.resources {
        let _ = writeln!(out, "resource {} kind {}", r.name, kind_name(r.kind));
    }
    for (_, f) in m.control.iter() {
        let _ = writeln!(out, "field {} width {}", f.name, f.width);
    }
    for &c in &m.conditions {
        let _ = writeln!(out, "cond {}", cond_name(c));
    }
    for t in &m.templates {
        let _ = writeln!(out, "template {} semantic {}", t.name, semantic_name(t.semantic));
        if let Some(d) = t.dst {
            let _ = writeln!(out, "  dst {}", m.class(d).name);
        }
        for s in &t.srcs {
            match s {
                SrcSpec::Class(c) => {
                    let _ = writeln!(out, "  src {}", m.class(*c).name);
                }
                SrcSpec::Imm { bits } => {
                    let _ = writeln!(out, "  imm {bits}");
                }
            }
        }
        for &r in &t.implicit_reads {
            let _ = writeln!(out, "  reads {} {}", fname(r), r.index);
        }
        for &r in &t.implicit_writes {
            let _ = writeln!(out, "  writes {} {}", fname(r), r.index);
        }
        if t.writes_flags {
            let _ = writeln!(out, "  flags");
        }
        if t.takes_cond {
            let _ = writeln!(out, "  cond");
        }
        if t.takes_target {
            let _ = writeln!(out, "  target");
        }
        for fs in &t.fields {
            let field = m.control.get(fs.field).expect("field");
            let v = match fs.value {
                FieldValueSrc::Const(v) => format!("const {v}"),
                FieldValueSrc::Dst => "dst".into(),
                FieldValueSrc::Src(n) => format!("src {n}"),
                FieldValueSrc::Imm => "imm".into(),
                FieldValueSrc::Target => "target".into(),
                FieldValueSrc::Cond => "cond".into(),
            };
            let _ = writeln!(out, "  set {} = {}", field.name, v);
        }
        for u in &t.occupancy {
            let res = &m.resources[u.resource.index()];
            let _ = writeln!(out, "  occupy {} {}..{}", res.name, u.from_phase, u.to_phase);
        }
        let _ = writeln!(out, "end");
    }
    out
}

/// Parses MDL text into a machine description.
///
/// # Errors
///
/// Returns the first [`MdlError`] encountered, with its line number.
pub fn parse(text: &str) -> Result<MachineDesc, MdlError> {
    let mut m: Option<MachineDesc> = None;
    let mut current: Option<MicroOpTemplate> = None;

    for (i, raw) in text.lines().enumerate() {
        let ln = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let head = toks[0];

        if head == "machine" {
            if toks.len() != 6 || toks[2] != "width" || toks[4] != "phases" {
                return Err(err(ln, "expected `machine NAME width W phases P`"));
            }
            let w: u16 = toks[3].parse().map_err(|_| err(ln, "bad width"))?;
            let p: u8 = toks[5].parse().map_err(|_| err(ln, "bad phase count"))?;
            m = Some(MachineDesc::new(toks[1], w, p));
            continue;
        }
        let mach = m.as_mut().ok_or_else(|| err(ln, "missing `machine` header"))?;

        if let Some(t) = current.as_mut() {
            // Inside a template body.
            match head {
                "end" => {
                    let t = current.take().expect("template");
                    mach.templates.push(t);
                }
                "dst" => {
                    let c = mach
                        .find_class(toks.get(1).copied().unwrap_or(""))
                        .ok_or_else(|| err(ln, "unknown class"))?;
                    t.dst = Some(c);
                }
                "src" => {
                    let c = mach
                        .find_class(toks.get(1).copied().unwrap_or(""))
                        .ok_or_else(|| err(ln, "unknown class"))?;
                    if t.reg_src_count() == MAX_SRCS {
                        return Err(err(
                            ln,
                            format!(
                                "template `{}` takes more than {MAX_SRCS} register sources",
                                t.name
                            ),
                        ));
                    }
                    t.srcs.push(SrcSpec::Class(c));
                }
                "imm" => {
                    let bits: u16 = toks
                        .get(1)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(ln, "bad imm width"))?;
                    t.srcs.push(SrcSpec::Imm { bits });
                }
                "reads" | "writes" => {
                    let file = mach
                        .find_file(toks.get(1).copied().unwrap_or(""))
                        .ok_or_else(|| err(ln, "unknown file"))?;
                    let idx: u16 = toks
                        .get(2)
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| err(ln, "bad register index"))?;
                    let r = RegRef::new(file, idx);
                    if head == "reads" {
                        t.implicit_reads.push(r);
                    } else {
                        t.implicit_writes.push(r);
                    }
                }
                "flags" => t.writes_flags = true,
                "cond" => t.takes_cond = true,
                "target" => t.takes_target = true,
                "set" => {
                    if toks.len() < 4 || toks[2] != "=" {
                        return Err(err(ln, "expected `set FIELD = VALUE`"));
                    }
                    let field = mach
                        .control
                        .find(toks[1])
                        .ok_or_else(|| err(ln, format!("unknown field `{}`", toks[1])))?;
                    let value = match toks[3] {
                        "const" => {
                            let v: u64 = toks
                                .get(4)
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err(ln, "bad constant"))?;
                            FieldValueSrc::Const(v)
                        }
                        "dst" => FieldValueSrc::Dst,
                        "src" => {
                            let n: u8 = toks
                                .get(4)
                                .and_then(|s| s.parse().ok())
                                .ok_or_else(|| err(ln, "bad source index"))?;
                            FieldValueSrc::Src(n)
                        }
                        "imm" => FieldValueSrc::Imm,
                        "target" => FieldValueSrc::Target,
                        "cond" => FieldValueSrc::Cond,
                        other => return Err(err(ln, format!("unknown value source `{other}`"))),
                    };
                    t.fields.push(crate::template::FieldSetting::new(field, value));
                }
                "occupy" => {
                    let res = mach
                        .resources
                        .iter()
                        .position(|r| r.name == *toks.get(1).unwrap_or(&""))
                        .ok_or_else(|| err(ln, "unknown resource"))?;
                    let range = toks.get(2).copied().unwrap_or("");
                    let (a, b) = range
                        .split_once("..")
                        .ok_or_else(|| err(ln, "expected `FROM..TO`"))?;
                    let from: u8 = a.parse().map_err(|_| err(ln, "bad phase"))?;
                    let to: u8 = b.parse().map_err(|_| err(ln, "bad phase"))?;
                    t.occupancy.push(ResourceUse::phases(
                        crate::ids::ResourceId(res as u16),
                        from,
                        to,
                    ));
                }
                other => return Err(err(ln, format!("unknown template item `{other}`"))),
            }
            continue;
        }

        match head {
            "file" => {
                if toks.len() < 6 || toks[2] != "count" || toks[4] != "width" {
                    return Err(err(ln, "expected `file NAME count N width W [macro]`"));
                }
                let count: u16 = toks[3].parse().map_err(|_| err(ln, "bad count"))?;
                let width: u16 = toks[5].parse().map_err(|_| err(ln, "bad width"))?;
                let macro_visible = toks.get(6) == Some(&"macro");
                mach.add_file(RegisterFile::new(toks[1], count, width, macro_visible));
            }
            "special" => {
                if toks.len() != 5 || toks[2] != "=" {
                    return Err(err(ln, "expected `special ROLE = FILE INDEX`"));
                }
                let file = mach
                    .find_file(toks[3])
                    .ok_or_else(|| err(ln, "unknown file"))?;
                let idx: u16 = toks[4].parse().map_err(|_| err(ln, "bad index"))?;
                let r = RegRef::new(file, idx);
                match toks[1] {
                    "acc" => mach.special.acc = Some(r),
                    "mar" => mach.special.mar = Some(r),
                    "mbr" => mach.special.mbr = Some(r),
                    "flags" => mach.special.flags = Some(r),
                    other => return Err(err(ln, format!("unknown special role `{other}`"))),
                }
            }
            "scratch" => {
                let f = mach
                    .find_file(toks.get(1).copied().unwrap_or(""))
                    .ok_or_else(|| err(ln, "unknown file"))?;
                mach.scratch_file = Some(f);
            }
            "service" => {
                if toks.len() != 5 || toks[1] != "interrupt" || toks[3] != "trap" {
                    return Err(err(ln, "expected `service interrupt N trap M`"));
                }
                mach.interrupt_service_cycles =
                    toks[2].parse().map_err(|_| err(ln, "bad cycles"))?;
                mach.trap_service_cycles = toks[4].parse().map_err(|_| err(ln, "bad cycles"))?;
            }
            "class" => {
                // class NAME = FILE[a..b], FILE[a..b] ...
                let rest = line
                    .split_once('=')
                    .ok_or_else(|| err(ln, "expected `class NAME = RANGES`"))?;
                let name = rest.0.trim().strip_prefix("class").unwrap_or("").trim();
                let mut ranges = Vec::new();
                for part in rest.1.split(',') {
                    let part = part.trim();
                    let (fname, idx) = part
                        .split_once('[')
                        .ok_or_else(|| err(ln, "expected `FILE[a..b]`"))?;
                    let idx = idx
                        .strip_suffix(']')
                        .ok_or_else(|| err(ln, "missing `]`"))?;
                    let (a, b) = idx
                        .split_once("..")
                        .ok_or_else(|| err(ln, "expected `a..b`"))?;
                    let file = mach
                        .find_file(fname.trim())
                        .ok_or_else(|| err(ln, format!("unknown file `{fname}`")))?;
                    let lo: u16 = a.parse().map_err(|_| err(ln, "bad range"))?;
                    let hi: u16 = b.parse().map_err(|_| err(ln, "bad range"))?;
                    if hi < lo {
                        return Err(err(ln, "empty range"));
                    }
                    ranges.push((file, lo, hi - lo));
                }
                mach.add_class(RegClass::from_ranges(name, ranges));
            }
            "resource" => {
                if toks.len() != 4 || toks[2] != "kind" {
                    return Err(err(ln, "expected `resource NAME kind KIND`"));
                }
                let kind = parse_kind(toks[3], ln)?;
                mach.add_resource(Resource::new(toks[1], kind));
            }
            "field" => {
                if toks.len() != 4 || toks[2] != "width" {
                    return Err(err(ln, "expected `field NAME width W`"));
                }
                let w: u16 = toks[3].parse().map_err(|_| err(ln, "bad width"))?;
                mach.control.push(toks[1], w);
            }
            "cond" => {
                let c = parse_cond(toks.get(1).copied().unwrap_or(""), ln)?;
                mach.add_condition(c);
            }
            "template" => {
                if toks.len() != 4 || toks[2] != "semantic" {
                    return Err(err(ln, "expected `template NAME semantic SEM`"));
                }
                let sem = parse_semantic(toks[3], ln)?;
                current = Some(MicroOpTemplate::new(toks[1], sem));
            }
            other => return Err(err(ln, format!("unknown directive `{other}`"))),
        }
    }
    if current.is_some() {
        return Err(err(text.lines().count(), "unterminated template"));
    }
    m.ok_or_else(|| err(1, "empty description"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::{bx2, hm1, vm1, wm64};

    #[test]
    fn roundtrip_all_reference_machines() {
        for mach in [hm1(), vm1(), bx2(), wm64()] {
            let text = to_mdl(&mach);
            let back = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", mach.name));
            back.validate().unwrap();
            assert_eq!(back.name, mach.name);
            assert_eq!(back.control, mach.control, "{}", mach.name);
            assert_eq!(back.files, mach.files, "{}", mach.name);
            assert_eq!(back.classes, mach.classes, "{}", mach.name);
            assert_eq!(back.resources, mach.resources, "{}", mach.name);
            assert_eq!(back.templates, mach.templates, "{}", mach.name);
            assert_eq!(back.conditions, mach.conditions, "{}", mach.name);
            assert_eq!(back.special, mach.special, "{}", mach.name);
            assert_eq!(back.scratch_file, mach.scratch_file, "{}", mach.name);
        }
    }

    #[test]
    fn parse_minimal_machine() {
        let text = "\
machine TINY width 8 phases 1
file R count 4 width 8 macro
file F count 1 width 8
special flags = F 0
special mar = R 0
special mbr = R 1
class gp = R[0..4]
resource core kind other
field op width 4
field a width 2
field d width 2
cond zero
template mov semantic move
  dst gp
  src gp
  set op = const 1
  set a = src 0
  set d = dst
  occupy core 0..1
end
";
        let m = parse(text).unwrap();
        m.validate().unwrap();
        assert_eq!(m.name, "TINY");
        assert_eq!(m.templates.len(), 1);
        assert_eq!(m.templates[0].name, "mov");
    }

    #[test]
    fn a_fourth_register_source_is_refused_on_its_line() {
        let text = |srcs: usize| {
            "machine T width 8 phases 1\nfile R count 4 width 8\nclass gp = R[0..4]\n\
             template wide semantic alu.add\n  dst gp\n"
                .to_string()
                + &"  src gp\n".repeat(srcs)
                + "end\n"
        };
        let m = parse(&text(MAX_SRCS)).unwrap();
        assert_eq!(m.templates[0].reg_src_count(), MAX_SRCS);
        let e = parse(&text(MAX_SRCS + 1)).unwrap_err();
        assert_eq!(e.line, 6 + MAX_SRCS, "{e}");
        assert!(e.message.contains("template `wide`"), "{e}");
    }

    #[test]
    fn errors_carry_line_numbers() {
        let e = parse("machine X width 8 phases 1\nbogus directive\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("mdl:2"));
    }

    #[test]
    fn missing_header_is_an_error() {
        assert!(parse("file R count 4 width 8\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let m = parse("# a machine\n\nmachine T width 8 phases 1 # trailing\n").unwrap();
        assert_eq!(m.name, "T");
    }
}
