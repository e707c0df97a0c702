//! # `mcc-yalll` — the YALLL frontend
//!
//! YALLL (*Yet Another Low Level Language*, Patterson, Lew & Tuck 1979) is
//! the survey's §2.2.4 language: "rather than to try to bridge the gap
//! between a [machine independent] HLL to microarchitecture in one step,
//! we have designed a low level language that is capable of producing
//! microcode for different machines". It looks like a conventional
//! assembly language; the same program retargets by changing only the
//! `reg` declaration header — exactly how the paper's transliteration
//! example differed between the HP300 and the VAX.
//!
//! # Syntax
//!
//! ```text
//! ; transliterate, HM-1 binding header
//! reg str = R1
//! reg tbl = R2
//! reg char            ; unbound: the compiler allocates it
//! loop:
//!   load char, str    ; char = MEM[str]
//!   jump out if char = 0
//!   add addr, char, tbl
//!   load char, addr
//!   stor char, str
//!   add str, str, 1
//!   jump loop
//! out: exit
//! ```
//!
//! Instructions: `move d,s` · `const d,n` · `add/sub/and/or/xor d,a,b`
//! (b may be a constant) · `inc/dec d` · `not/neg d,a` ·
//! `shl/shr/sar/rol/ror d,a,n` · `load d,a` · `stor s,a` · `jump L` ·
//! `jump L if a <relop> b` · `mbranch a, 01xx -> L` (true/false/don't-care
//! mask, the paper's "fairly sophisticated" branch facility) · `call L` ·
//! `ret` · `poll` · `exit [reg]`.

use std::collections::HashMap;

use mcc_lang::{parse_int, Diagnostic, FrontendLimits, Span, TokenBudget};
use mcc_machine::{AluOp, CondKind, MachineDesc, RegRef, ShiftOp};
use mcc_mir::{FuncBuilder, MirFunction, Operand, RegOrImm, Term};

/// A parsed-and-lowered YALLL program.
#[derive(Debug)]
pub struct YalllProgram {
    /// The lowered function (symbolic registers still virtual).
    pub func: MirFunction,
    /// Name → operand for every declared register (observability:
    /// experiment harnesses read results through this map).
    pub bindings: HashMap<String, Operand>,
}

fn err(msg: impl Into<String>, line_start: usize) -> Diagnostic {
    Diagnostic::new(msg, Span::new(line_start, line_start))
}

/// Resolves a machine register name like `R3`, `G2`, `LS7`, `ACC`, `MAR`,
/// `MBR` against the target machine.
pub fn machine_reg(m: &MachineDesc, name: &str) -> Option<RegRef> {
    m.resolve_reg_name(name)
}

struct Lower<'m> {
    m: &'m MachineDesc,
    b: FuncBuilder,
    names: HashMap<String, Operand>,
    /// Bound names in the order `reg` first declared them.
    declared: Vec<String>,
    labels: HashMap<String, u32>,
    /// Labels that have been *defined* (jumped-into blocks switched to).
    defined: HashMap<String, bool>,
    exited: bool,
}

impl<'m> Lower<'m> {
    fn label_block(&mut self, name: &str) -> u32 {
        if let Some(&b) = self.labels.get(name) {
            return b;
        }
        let blk = self.b.new_labeled_block(name);
        self.labels.insert(name.to_string(), blk);
        self.defined.insert(name.to_string(), false);
        blk
    }

    fn operand(&mut self, tok: &str, at: usize) -> Result<Operand, Diagnostic> {
        if let Some(&o) = self.names.get(&tok.to_ascii_lowercase()) {
            return Ok(o);
        }
        if let Some(r) = machine_reg(self.m, tok) {
            return Ok(Operand::Reg(r));
        }
        Err(err(format!("unknown register `{tok}`"), at))
    }

    /// Register or constant.
    fn roc(&mut self, tok: &str, at: usize) -> Result<RegOrImm, Diagnostic> {
        if let Some(v) = parse_int(tok) {
            return Ok(RegOrImm::Imm(v));
        }
        Ok(RegOrImm::Reg(self.operand(tok, at)?))
    }

    /// Emit a flag-setting comparison `a relop b` and return the branch
    /// condition meaning "relation holds".
    fn compare(
        &mut self,
        a: Operand,
        relop: &str,
        b: RegOrImm,
        at: usize,
    ) -> Result<CondKind, Diagnostic> {
        self.b.compare(a, relop, b).ok_or_else(|| match relop {
            // a > b  ≡  b - a < 0 — re-emit with operands swapped.
            ">" | "<=" => err(
                format!("relop `{relop}` not directly testable; rewrite with < or >="),
                at,
            ),
            other => err(format!("unknown relop `{other}`"), at),
        })
    }
}

/// Parses and lowers a YALLL program for machine `m`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] with the byte position of the offending line.
pub fn parse(src: &str, m: &MachineDesc) -> Result<YalllProgram, Diagnostic> {
    parse_with_limits(src, m, &FrontendLimits::default())
}

/// [`parse`] under explicit resource limits (source size and a per-line
/// token budget): arbitrary input terminates with a [`Diagnostic`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] for syntax errors and limit violations alike.
pub fn parse_with_limits(
    src: &str,
    m: &MachineDesc,
    limits: &FrontendLimits,
) -> Result<YalllProgram, Diagnostic> {
    limits.check_source(src)?;
    let mut budget = TokenBudget::new(limits);
    let mut lower = Lower {
        m,
        b: FuncBuilder::new("yalll"),
        names: HashMap::new(),
        declared: Vec::new(),
        labels: HashMap::new(),
        defined: HashMap::new(),
        exited: false,
    };

    let mut offset = 0usize;
    for raw in src.lines() {
        let at = offset;
        offset += raw.len() + 1;
        budget.tick(Span::new(at, at))?;
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }

        // Labels: `name:` possibly followed by an instruction.
        let mut rest = line;
        while let Some(cpos) = rest.find(':') {
            let (lab, after) = rest.split_at(cpos);
            let lab = lab.trim();
            if lab.is_empty() || !lab.chars().all(|c| c.is_alphanumeric() || c == '_') {
                break;
            }
            let blk = lower.label_block(lab);
            if lower.defined.get(lab) == Some(&true) {
                return Err(err(format!("label `{lab}` defined twice"), at));
            }
            lower.defined.insert(lab.to_string(), true);
            // Fall into the labelled block from the current one.
            if !lower.exited {
                lower.b.terminate(Term::Jump(blk));
            }
            lower.exited = false;
            lower.b.switch_to(blk);
            rest = after[1..].trim();
        }
        if rest.is_empty() {
            continue;
        }
        if lower.exited {
            return Err(err("unreachable code after exit/jump (add a label)", at));
        }

        let (mnemonic, args) = match rest.split_once(char::is_whitespace) {
            Some((mn, a)) => (mn.to_ascii_lowercase(), a.trim()),
            None => (rest.to_ascii_lowercase(), ""),
        };

        match mnemonic.as_str() {
            "reg" => {
                // reg NAME [= TARGET]
                let (name, target) = match args.split_once('=') {
                    Some((n, t)) => (n.trim(), Some(t.trim())),
                    None => (args.trim(), None),
                };
                if name.is_empty() {
                    return Err(err("reg needs a name", at));
                }
                let op = match target {
                    Some(t) => Operand::Reg(
                        machine_reg(m, t)
                            .ok_or_else(|| err(format!("unknown machine register `{t}`"), at))?,
                    ),
                    None => Operand::Vreg(lower.b.vreg()),
                };
                let name = name.to_ascii_lowercase();
                if lower.names.insert(name.clone(), op).is_none() {
                    lower.declared.push(name);
                }
            }
            mn if matches!(
                mn,
                "move" | "const" | "add" | "sub" | "and" | "or" | "xor" | "inc" | "dec" | "not"
                    | "neg" | "load" | "stor"
            ) || ShiftOp::from_name(mn).is_some() =>
            {
                let parts: Vec<&str> = args.split(',').map(|s| s.trim()).collect();
                lower_data_op(&mut lower, &mnemonic, &parts, at)?;
            }
            "jump" => {
                // jump L [if a relop b]
                let (label, cond) = match args.split_once(" if ") {
                    Some((l, c)) => (l.trim(), Some(c.trim())),
                    None => (args.trim(), None),
                };
                let target = lower.label_block(label);
                match cond {
                    None => {
                        lower.b.terminate(Term::Jump(target));
                        lower.exited = true;
                    }
                    Some(c) => {
                        let toks: Vec<&str> = c.split_whitespace().collect();
                        if toks.len() != 3 {
                            return Err(err("expected `a relop b`", at));
                        }
                        let a = lower.operand(toks[0], at)?;
                        let bvalue = lower.roc(toks[2], at)?;
                        let kind = lower.compare(a, toks[1], bvalue, at)?;
                        let next = lower.b.new_block();
                        lower.b.branch(kind, target, next);
                        lower.b.switch_to(next);
                    }
                }
            }
            "mbranch" => {
                // mbranch a, MASK -> L
                let (areg, rest2) = args
                    .split_once(',')
                    .ok_or_else(|| err("expected `mbranch a, mask -> label`", at))?;
                let (mask, label) = rest2
                    .split_once("->")
                    .ok_or_else(|| err("expected `mask -> label`", at))?;
                let a = lower.operand(areg.trim(), at)?;
                let mask = mask.trim();
                if mask.len() > 64 {
                    // More mask bits than any word: the shifts below would
                    // overflow.
                    return Err(err(format!("mask of {} bits is too wide", mask.len()), at));
                }
                let mut care = 0u64;
                let mut value = 0u64;
                for ch in mask.chars() {
                    match ch {
                        '0' => {
                            care = care << 1 | 1;
                            value <<= 1;
                        }
                        '1' => {
                            care = care << 1 | 1;
                            value = value << 1 | 1;
                        }
                        'x' | 'X' => {
                            care <<= 1;
                            value <<= 1;
                        }
                        _ => return Err(err(format!("bad mask bit `{ch}`"), at)),
                    }
                }
                let target = lower.label_block(label.trim());
                let t1 = Operand::Vreg(lower.b.vreg());
                lower.b.alu_imm(AluOp::And, t1, a, care);
                let t2 = Operand::Vreg(lower.b.vreg());
                lower.b.alu_imm(AluOp::Xor, t2, t1, value);
                let next = lower.b.new_block();
                lower.b.branch(CondKind::Zero, target, next);
                lower.b.switch_to(next);
            }
            "call" => {
                let target = lower.label_block(args.trim());
                lower.b.call(target);
            }
            "ret" => {
                lower.b.terminate(Term::Ret);
                lower.exited = true;
            }
            "poll" => lower.b.push(mcc_mir::MirOp::poll()),
            "exit" => {
                if !args.is_empty() {
                    let r = lower.operand(args.trim(), at)?;
                    lower.b.mark_live_out(r);
                }
                lower.b.terminate(Term::Halt);
                lower.exited = true;
            }
            other => return Err(err(format!("unknown instruction `{other}`"), at)),
        }
    }

    if !lower.exited {
        lower.b.terminate(Term::Halt);
    }
    // Blocks are numbered in order of first mention, so the smallest
    // names the undefined label the source references first.
    let undefined = lower
        .defined
        .iter()
        .filter(|&(_, &defined)| !defined)
        .min_by_key(|&(lab, _)| lower.labels[lab]);
    if let Some((lab, _)) = undefined {
        return Err(err(
            format!("label `{lab}` is referenced but never defined"),
            src.len(),
        ));
    }
    // Every bound register is observable.
    let bindings = lower.names.clone();
    for name in &lower.declared {
        lower.b.mark_live_out(lower.names[name]);
    }
    let func = lower.b.finish();
    func.validate()
        .map_err(|e| err(format!("internal lowering error: {e}"), 0))?;
    Ok(YalllProgram { func, bindings })
}

fn lower_data_op(
    lower: &mut Lower<'_>,
    mn: &str,
    parts: &[&str],
    at: usize,
) -> Result<(), Diagnostic> {
    let need = |n: usize| -> Result<(), Diagnostic> {
        if parts.len() == n {
            Ok(())
        } else {
            Err(err(format!("`{mn}` takes {n} operands"), at))
        }
    };
    match mn {
        "move" => {
            need(2)?;
            let d = lower.operand(parts[0], at)?;
            let s = lower.operand(parts[1], at)?;
            lower.b.mov(d, s);
        }
        "const" => {
            need(2)?;
            let d = lower.operand(parts[0], at)?;
            let v = parse_int(parts[1]).ok_or_else(|| err("bad constant", at))?;
            lower.b.ldi(d, v);
        }
        "inc" | "dec" => {
            need(1)?;
            let d = lower.operand(parts[0], at)?;
            let op = if mn == "inc" { AluOp::Inc } else { AluOp::Dec };
            lower.b.alu_un(op, d, d);
        }
        "not" | "neg" => {
            need(2)?;
            let d = lower.operand(parts[0], at)?;
            let a = lower.operand(parts[1], at)?;
            let op = if mn == "not" { AluOp::Not } else { AluOp::Neg };
            lower.b.alu_un(op, d, a);
        }
        "load" => {
            need(2)?;
            let d = lower.operand(parts[0], at)?;
            let a = lower.operand(parts[1], at)?;
            lower.b.load(d, a);
        }
        "stor" => {
            need(2)?;
            let s = lower.operand(parts[0], at)?;
            let a = lower.operand(parts[1], at)?;
            lower.b.store(a, s);
        }
        // The binary ALU operations and the shifts.
        _ => {
            need(3)?;
            let d = lower.operand(parts[0], at)?;
            let a = lower.operand(parts[1], at)?;
            if let Some(op) = ShiftOp::from_name(mn) {
                let n = parse_int(parts[2]).ok_or_else(|| err("bad shift amount", at))?;
                lower.b.shift(op, d, a, n);
            } else {
                let op = AluOp::from_name(mn).expect("the dispatch passes only data mnemonics");
                match lower.roc(parts[2], at)? {
                    RegOrImm::Reg(r) => lower.b.alu(op, d, a, r),
                    RegOrImm::Imm(c) => lower.b.alu_imm(op, d, a, c),
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{bx2, hm1};

    #[test]
    fn machine_reg_resolution() {
        let m = hm1();
        assert_eq!(machine_reg(&m, "R3").unwrap().index, 3);
        assert_eq!(machine_reg(&m, "acc"), m.special.acc);
        assert_eq!(machine_reg(&m, "MAR"), m.special.mar);
        assert!(machine_reg(&m, "LS5").is_some());
        assert!(machine_reg(&m, "R16").is_none(), "out of range");
        assert!(machine_reg(&m, "Q1").is_none());
    }

    #[test]
    fn parse_simple_program() {
        let m = hm1();
        let p = parse(
            "reg a = R0\nreg b = R1\nconst a, 5\nadd b, a, 3\nexit b\n",
            &m,
        )
        .unwrap();
        p.func.validate().unwrap();
        assert_eq!(p.func.op_count(), 2);
        assert!(p.bindings.contains_key("a"));
    }

    #[test]
    fn unbound_registers_become_vregs() {
        let m = hm1();
        let p = parse("reg t\nconst t, 9\nexit t\n", &m).unwrap();
        assert!(p.func.has_virtual_regs());
    }

    #[test]
    fn loop_with_conditional_jump() {
        let m = hm1();
        let src = "\
reg n = R0
const n, 5
top: jump done if n = 0
dec n
jump top
done: exit n
";
        let p = parse(src, &m).unwrap();
        p.func.validate().unwrap();
        assert!(p.func.blocks.len() >= 3);
    }

    #[test]
    fn transliterate_example_parses() {
        // The paper's §2.2.4 example, in our notation.
        let m = hm1();
        let src = "\
reg str = R1
reg tbl = R2
reg char = R3
loop: load char, str
jump out if char = 0
reg addr = R4
add addr, char, tbl
load char, addr
stor char, str
add str, str, 1
jump loop
out: exit
";
        let p = parse(src, &m).unwrap();
        p.func.validate().unwrap();
    }

    #[test]
    fn mbranch_masks() {
        let m = hm1();
        let src = "\
reg x = R0
mbranch x, 0000xxxx -> low
exit
low: exit x
";
        let p = parse(src, &m).unwrap();
        p.func.validate().unwrap();
        // and + xor + branch
        assert!(p.func.op_count() >= 2);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let m = hm1();
        let e = parse("jump nowhere\n", &m).unwrap_err();
        assert!(e.message.contains("never defined"));
    }

    #[test]
    fn first_referenced_undefined_label_is_reported() {
        let m = hm1();
        let src = "reg a = R0\njump alpha if a = 1\njump beta if a = 2\njump gamma\n";
        let messages: std::collections::BTreeSet<String> = (0..50)
            .map(|_| parse(src, &m).unwrap_err().message)
            .collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(
            messages.iter().all(|msg| msg.contains("`alpha`")),
            "{messages:?}"
        );
    }

    #[test]
    fn unknown_register_reports_position() {
        let m = hm1();
        let e = parse("const Q9, 1\n", &m).unwrap_err();
        assert!(e.message.contains("unknown register"));
    }

    #[test]
    fn retargets_to_bx2_with_different_header() {
        // Same body, different binding header — the YALLL portability
        // story (experiment E3).
        let body = "top: jump done if n = 0\ndec n\njump top\ndone: exit n\n";
        let hm = parse(&format!("reg n = R0\nconst n, 5\n{body}"), &hm1()).unwrap();
        let bx = parse(&format!("reg n = G0\nconst n, 5\n{body}"), &bx2()).unwrap();
        hm.func.validate().unwrap();
        bx.func.validate().unwrap();
    }

    #[test]
    fn overwide_mbranch_mask_rejected() {
        let m = hm1();
        let mask = "1".repeat(65);
        let e = parse(&format!("reg x = R0\nmbranch x, {mask} -> l\nl: exit\n"), &m).unwrap_err();
        assert!(e.message.contains("too wide"), "{}", e.message);
    }

    #[test]
    fn line_budget_is_enforced() {
        let m = hm1();
        let limits = FrontendLimits {
            max_tokens: 3,
            ..FrontendLimits::default()
        };
        let e = parse_with_limits("reg a = R0\nconst a, 1\ninc a\ninc a\nexit a\n", &m, &limits)
            .unwrap_err();
        assert!(e.message.contains("token budget"), "{}", e.message);
    }

    #[test]
    fn duplicate_label_rejected() {
        let m = hm1();
        let e = parse("a: exit\na: exit\n", &m).unwrap_err();
        assert!(e.message.contains("twice"));
    }

    #[test]
    fn call_and_ret() {
        let m = hm1();
        let src = "\
reg x = R0
call sub
exit x
sub: const x, 7
ret
";
        let p = parse(src, &m).unwrap();
        p.func.validate().unwrap();
    }
}
