//! # `mcc-simpl` — the SIMPL frontend
//!
//! SIMPL (*Single Identity Micro Programming Language*, Ramamoorthy &
//! Tsuchiya 1974) is the survey's §2.2.1 language: the first language to
//! let a programmer write a horizontal microprogram *sequentially* and
//! leave composition to the compiler. Its hallmarks, all reproduced here:
//!
//! * variables **are** machine registers (`R0`…`R15`, `ACC`), with an
//!   `equiv` statement for aliasing;
//! * assignments are written *dataflow-style*, `expr -> register`;
//! * expressions contain **one operator** (the paper is explicit);
//! * the **single identity principle**: source order distinguishes the
//!   values a register holds, and only data dependence constrains
//!   execution order — which is exactly what the toolkit's dependence DAG
//!   implements downstream;
//! * control: `begin/end`, `while…do`, `if…then[…else]`, `for`, `case`
//!   (multiway branch), `proc`/`call`, and the shifter's `UF` condition;
//! * a single datatype (the word) and no data structuring whatsoever —
//!   the survey's main criticism.
//!
//! # Example (the paper's floating-point multiply, §2.2.1)
//!
//! ```text
//! program fpmul;
//! const M3 = 0x1FFF;
//! begin
//!     R1 & M3 -> ACC;
//!     ...
//!     while R2 <> 0 do
//!     begin
//!         ACC shr 1 -> ACC;
//!         R2 shr 1 -> R2;
//!         if UF = 1 then R1 + ACC -> ACC;
//!     end;
//! end
//! ```

use std::collections::HashMap;

use mcc_lang::{
    Case, Comments, DepthGuard, Diagnostic, FrontendLimits, Lexer, Span, Syntax, Tok, RELATIONS,
};
use mcc_machine::{AluOp, CondKind, MachineDesc, ShiftOp};
use mcc_mir::{FuncBuilder, MirFunction, Operand, RegOrImm, Term};

/// A parsed-and-lowered SIMPL program.
#[derive(Debug)]
pub struct SimplProgram {
    /// The program name from the header.
    pub name: String,
    /// The lowered function (operands are physical registers, plus
    /// compiler temporaries for comparisons).
    pub func: MirFunction,
}

// ---------------------------------------------------------------- lexer --

/// SIMPL's tokens: no comments (`comment …;` is a statement), identifiers
/// as written, and a closed set of operators and punctuation.
const SYNTAX: Syntax = Syntax {
    comments: Comments::None,
    case: Case::Keep,
    multi: &["->", ":=", "<>", "<=", ">="],
    single: Some("-:<>=;()+&|^~"),
};

// ---------------------------------------------------------------- parser --

struct Parser<'a, 'm> {
    lx: Lexer<'a>,
    m: &'m MachineDesc,
    b: FuncBuilder,
    consts: HashMap<String, u64>,
    equivs: HashMap<String, Operand>,
    procs: HashMap<String, u32>,
    /// Call sites awaiting proc resolution: (name, (block, op index), span).
    pending_calls: Vec<(String, (u32, usize), Span)>,
    depth: DepthGuard,
}

/// A parsed single-operator expression.
enum Expr {
    Operand(RegOrImm),
    Bin(String, RegOrImm, RegOrImm),
    Un(String, RegOrImm),
    Shift(ShiftOp, RegOrImm, u64),
}

impl<'a, 'm> Parser<'a, 'm> {
    fn register(&mut self, name: &str) -> Result<Operand, Diagnostic> {
        let key = name.to_ascii_lowercase();
        if let Some(&r) = self.equivs.get(&key) {
            return Ok(r);
        }
        self.m
            .resolve_reg_name(name)
            .map(Operand::Reg)
            .ok_or_else(|| self.lx.diag(format!("`{name}` is not a register of {}", self.m.name)))
    }

    fn val(&mut self) -> Result<RegOrImm, Diagnostic> {
        match self.lx.tok().clone() {
            Tok::Num(v) => {
                self.lx.advance()?;
                Ok(RegOrImm::Imm(v))
            }
            Tok::Ident(w) => {
                self.lx.advance()?;
                if let Some(&c) = self.consts.get(&w.to_ascii_lowercase()) {
                    Ok(RegOrImm::Imm(c))
                } else {
                    Ok(RegOrImm::Reg(self.register(&w)?))
                }
            }
            _ => Err(self.lx.diag("expected register, constant or number")),
        }
    }

    /// expr ::= '~' val | '-' val | val [binop val] | val shiftop amount
    fn expr(&mut self) -> Result<Expr, Diagnostic> {
        if let Tok::Sym(op @ ("~" | "-")) = *self.lx.tok() {
            self.lx.advance()?;
            let v = self.val()?;
            return Ok(Expr::Un(op.to_string(), v));
        }
        let a = self.val()?;
        if let Tok::Sym(op @ ("+" | "-" | "&" | "|" | "^" | "~")) = *self.lx.tok() {
            self.lx.advance()?;
            let b = self.val()?;
            return Ok(Expr::Bin(op.to_string(), a, b));
        }
        let Some((op, _)) = ShiftOp::NAMES.into_iter().find(|&(_, name)| self.lx.peek_kw(name))
        else {
            return Ok(Expr::Operand(a));
        };
        self.lx.advance()?;
        let n = match self.val()? {
            RegOrImm::Imm(n) => n,
            RegOrImm::Reg(_) => {
                return Err(self.lx.diag("shift amounts must be constants in SIMPL"))
            }
        };
        Ok(Expr::Shift(op, a, n))
    }

    /// `v` in a register: its own, or a fresh temporary loaded with it.
    fn in_reg(&mut self, v: RegOrImm) -> Operand {
        match v {
            RegOrImm::Reg(r) => r,
            RegOrImm::Imm(c) => {
                let t = Operand::Vreg(self.b.vreg());
                self.b.ldi(t, c);
                t
            }
        }
    }

    /// Emits `expr -> dst`.
    fn emit_assign(&mut self, e: Expr, dst: Operand) -> Result<(), Diagnostic> {
        match e {
            Expr::Operand(RegOrImm::Imm(c)) => self.b.ldi(dst, c),
            Expr::Operand(RegOrImm::Reg(r)) => self.b.mov(dst, r),
            Expr::Un(op, v) => {
                let r = self.in_reg(v);
                let a = if op == "~" { AluOp::Not } else { AluOp::Neg };
                self.b.alu_un(a, dst, r);
            }
            Expr::Bin(op, a, bv) => {
                let aop = FuncBuilder::alu_op(&op)
                    .ok_or_else(|| self.lx.diag(format!("unknown operator `{op}`")))?;
                match (a, bv) {
                    (RegOrImm::Reg(ra), RegOrImm::Imm(c)) => self.b.alu_imm(aop, dst, ra, c),
                    (RegOrImm::Imm(c), RegOrImm::Reg(rb)) if matches!(aop, AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor) => {
                        // Commutative: swap.
                        self.b.alu_imm(aop, dst, rb, c)
                    }
                    (a, bv) => {
                        let ra = self.in_reg(a);
                        let rb = self.in_reg(bv);
                        self.b.alu(aop, dst, ra, rb);
                    }
                }
            }
            Expr::Shift(op, v, n) => {
                let r = self.in_reg(v);
                self.b.shift(op, dst, r, n);
            }
        }
        Ok(())
    }

    /// Parses a condition and emits its flag-setting code; returns the
    /// [`CondKind`] meaning "condition holds".
    fn condition(&mut self) -> Result<CondKind, Diagnostic> {
        // `UF = 0|1` tests the shifter's underflow bit directly.
        if self.lx.kw("uf")? {
            let rel = match *self.lx.tok() {
                Tok::Sym(r) if RELATIONS.contains(&r) => r,
                _ => return Err(self.lx.diag("expected `=` or `<>` after UF")),
            };
            self.lx.advance()?;
            let v = match *self.lx.tok() {
                Tok::Num(v) => v,
                _ => return Err(self.lx.diag("expected 0 or 1 after UF test")),
            };
            self.lx.advance()?;
            return Ok(match (rel, v) {
                ("=", 1) | ("<>", 0) => CondKind::Uf,
                ("=", 0) | ("<>", 1) => CondKind::NotUf,
                _ => return Err(self.lx.diag("UF compares only against 0 or 1")),
            });
        }
        let a = self.val()?;
        let rel = self.lx.rel()?;
        let bv = self.val()?;
        let (a, rel, bv) = match rel {
            // a > b ≡ b < a ; a <= b ≡ b >= a — normalise to < and >=.
            ">" => (bv, "<", a),
            "<=" => (bv, ">=", a),
            r => (a, r, bv),
        };
        let ra = self.in_reg(a);
        self.b
            .compare(ra, rel, bv)
            .ok_or_else(|| self.lx.diag(format!("unknown relop `{rel}`")))
    }

    /// stmt — returns whether the statement terminated the current block
    /// (it never does; all SIMPL statements fall through).
    fn stmt(&mut self) -> Result<(), Diagnostic> {
        self.depth.enter(self.lx.span())?;
        let r = self.stmt_inner();
        self.depth.leave();
        r
    }

    fn stmt_inner(&mut self) -> Result<(), Diagnostic> {
        // Empty statement: stray `;` (Pascal-style separators).
        if self.lx.sym(";")? {
            return Ok(());
        }
        if self.lx.kw("comment")? {
            // Skip to the next semicolon.
            while !(self.lx.peek_sym(";") || *self.lx.tok() == Tok::Eof) {
                self.lx.advance()?;
            }
            self.lx.expect_sym(";")?;
            return Ok(());
        }
        if self.lx.kw("begin")? {
            while !self.lx.kw("end")? {
                self.stmt()?;
            }
            return Ok(());
        }
        if self.lx.kw("while")? {
            let head = self.b.new_labeled_block("while_head");
            let body = self.b.new_block();
            let done = self.b.new_block();
            self.b.jump_and_switch(head);
            let cond = self.condition()?;
            self.lx.expect_kw("do")?;
            self.b.branch(cond, body, done);
            self.b.switch_to(body);
            self.stmt()?;
            self.b.terminate(Term::Jump(head));
            self.b.switch_to(done);
            return Ok(());
        }
        if self.lx.kw("if")? {
            let cond = self.condition()?;
            self.lx.expect_kw("then")?;
            let then_b = self.b.new_block();
            let else_b = self.b.new_block();
            self.b.branch(cond, then_b, else_b);
            self.b.switch_to(then_b);
            self.stmt()?;
            if self.lx.kw("else")? {
                let join = self.b.new_block();
                self.b.terminate(Term::Jump(join));
                self.b.switch_to(else_b);
                self.stmt()?;
                self.b.terminate(Term::Jump(join));
                self.b.switch_to(join);
            } else {
                self.b.terminate(Term::Jump(else_b));
                self.b.switch_to(else_b);
            }
            return Ok(());
        }
        if self.lx.kw("for")? {
            // for R := e1 to e2 do stmt
            let name = self.lx.ident()?;
            let var = self.register(&name)?;
            self.lx.expect_sym(":=")?;
            let from = self.expr()?;
            self.emit_assign(from, var)?;
            self.lx.expect_kw("to")?;
            let limit_plus = Operand::Vreg(self.b.vreg());
            let to = self.expr()?;
            self.emit_assign(to, limit_plus)?;
            self.b.alu_imm(AluOp::Add, limit_plus, limit_plus, 1);
            self.lx.expect_kw("do")?;
            let head = self.b.new_labeled_block("for_head");
            let body = self.b.new_block();
            let done = self.b.new_block();
            self.b.jump_and_switch(head);
            let t = Operand::Vreg(self.b.vreg());
            self.b.alu(AluOp::Sub, t, var, limit_plus);
            self.b.branch(CondKind::Neg, body, done);
            self.b.switch_to(body);
            self.stmt()?;
            self.b.alu_imm(AluOp::Add, var, var, 1);
            self.b.terminate(Term::Jump(head));
            self.b.switch_to(done);
            return Ok(());
        }
        if self.lx.kw("case")? {
            return self.case_stmt();
        }
        if self.lx.kw("call")? {
            let name = self.lx.ident()?;
            self.lx.sym(";")?;
            // Emit a call with a placeholder target, fixed up once every
            // proc is known (procs may be declared in any order).
            let at = self.lx.span();
            let blk = self.b.current();
            self.b.call(u32::MAX);
            let idx = self.b.ops_in_current() - 1;
            self.pending_calls
                .push((name.to_ascii_lowercase(), (blk, idx), at));
            return Ok(());
        }
        // assignment: expr -> dest [;]  (the semicolon is a separator, so
        // it is optional before `else`/`end`)
        let e = self.expr()?;
        self.lx.expect_sym("->")?;
        let name = self.lx.ident()?;
        let dst = self.register(&name)?;
        self.lx.sym(";")?;
        self.emit_assign(e, dst)?;
        Ok(())
    }

    /// `case R of 0: s; 1: s; … [else s;] end` — lowered to the machine's
    /// multiway dispatch (or a compare chain after legalisation).
    fn case_stmt(&mut self) -> Result<(), Diagnostic> {
        let name = self.lx.ident()?;
        let var = self.register(&name)?;
        self.lx.expect_kw("of")?;
        // Arm bodies are parsed straight into fresh blocks.
        let dispatch_block = self.b.current();
        let mut arm_targets: HashMap<u64, u32> = HashMap::new();
        let mut else_target: Option<u32> = None;
        let join = self.b.new_labeled_block("case_join");

        loop {
            if self.lx.kw("end")? {
                break;
            }
            if self.lx.kw("else")? {
                let blk = self.b.new_block();
                self.b.switch_to(blk);
                self.stmt()?;
                self.b.terminate(Term::Jump(join));
                else_target = Some(blk);
                continue;
            }
            let v = match *self.lx.tok() {
                Tok::Num(v) => v,
                _ => return Err(self.lx.diag("expected case label")),
            };
            self.lx.advance()?;
            self.lx.expect_sym(":")?;
            let blk = self.b.new_block();
            self.b.switch_to(blk);
            self.stmt()?;
            self.b.terminate(Term::Jump(join));
            if arm_targets.insert(v, blk).is_some() {
                return Err(self.lx.diag(format!("duplicate case label {v}")));
            }
        }

        let max = arm_targets.keys().copied().max().unwrap_or(0);
        if max > 255 {
            return Err(self.lx.diag("case labels limited to 0..=255"));
        }
        let size = (max + 1).next_power_of_two();
        let mask = size - 1;
        let default = else_target.unwrap_or(join);

        // Build the consecutive jump table.
        let mut table = Vec::with_capacity(size as usize);
        for v in 0..size {
            let t = self.b.new_block();
            self.b.switch_to(t);
            self.b
                .terminate(Term::Jump(*arm_targets.get(&v).unwrap_or(&default)));
            table.push(t);
        }
        self.b.switch_to(dispatch_block);
        self.b.terminate(Term::Dispatch {
            src: var,
            mask,
            table,
        });
        self.b.switch_to(join);
        Ok(())
    }

    fn program(&mut self) -> Result<String, Diagnostic> {
        self.lx.expect_kw("program")?;
        let name = self.lx.ident()?;
        // Optional (n) parameter list in the paper's style: skip it.
        if self.lx.peek_sym("(") {
            while !self.lx.peek_sym(")") {
                if *self.lx.tok() == Tok::Eof {
                    return Err(self.lx.diag("unterminated parameter list"));
                }
                self.lx.advance()?;
            }
            self.lx.advance()?;
        }
        self.lx.expect_sym(";")?;

        // Declarations: const / equiv / proc.
        loop {
            if self.lx.sym(";")? {
                continue;
            }
            if self.lx.kw("const")? {
                let n = self.lx.ident()?;
                self.lx.expect_sym("=")?;
                let v = self.lx.number()?;
                self.lx.expect_sym(";")?;
                self.consts.insert(n.to_ascii_lowercase(), v);
            } else if self.lx.kw("equiv")? {
                let n = self.lx.ident()?;
                self.lx.expect_sym("=")?;
                let target = self.lx.ident()?;
                let r = self.register(&target)?;
                self.lx.expect_sym(";")?;
                self.equivs.insert(n.to_ascii_lowercase(), r);
            } else if self.lx.kw("proc")? {
                let n = self.lx.ident()?;
                self.lx.expect_sym(";")?;
                let entry = self.b.new_labeled_block(format!("proc_{n}"));
                let after = self.b.current();
                self.b.switch_to(entry);
                self.stmt()?;
                self.b.terminate(Term::Ret);
                self.procs.insert(n.to_ascii_lowercase(), entry);
                self.b.switch_to(after);
            } else {
                break;
            }
        }

        // Main body.
        self.lx.expect_kw("begin")?;
        while !self.lx.kw("end")? {
            self.stmt()?;
        }
        self.b.terminate(Term::Halt);
        Ok(name)
    }
}

/// Parses and lowers a SIMPL program for machine `m`.
///
/// Because SIMPL identifies variables with machine registers, every
/// register the program mentions is marked live at exit (observable).
///
/// # Errors
///
/// Returns a [`Diagnostic`] with the span of the offending token.
pub fn parse(src: &str, m: &MachineDesc) -> Result<SimplProgram, Diagnostic> {
    parse_with_limits(src, m, &FrontendLimits::default())
}

/// [`parse`] under explicit resource limits: any input — however large,
/// deep, or malformed — terminates with a [`Diagnostic`] instead of
/// exhausting the stack or spinning.
///
/// # Errors
///
/// Returns a [`Diagnostic`] for syntax errors and limit violations alike.
pub fn parse_with_limits(
    src: &str,
    m: &MachineDesc,
    limits: &FrontendLimits,
) -> Result<SimplProgram, Diagnostic> {
    limits.check_source(src)?;
    let lx = Lexer::new(src, &SYNTAX, limits)?;
    let mut p = Parser {
        lx,
        m,
        b: FuncBuilder::new("simpl"),
        consts: HashMap::new(),
        equivs: HashMap::new(),
        procs: HashMap::new(),
        pending_calls: Vec::new(),
        depth: DepthGuard::new(limits),
    };
    let name = p.program()?;

    // Fix up call targets now every proc is known.
    let pend = std::mem::take(&mut p.pending_calls);
    let mut func = p.b.finish();
    for (pname, (blk, idx), span) in pend {
        let entry = *p
            .procs
            .get(&pname)
            .ok_or_else(|| Diagnostic::new(format!("unknown proc `{pname}`"), span))?;
        func.blocks[blk as usize].ops[idx].target = Some(entry);
    }

    // Every physical register mentioned is an observable output.
    let mut seen = std::collections::BTreeSet::new();
    for b in &func.blocks {
        for op in &b.ops {
            if let Some(Operand::Reg(r)) = op.dst {
                seen.insert(r);
            }
        }
    }
    for r in seen {
        func.live_out.push(Operand::Reg(r));
    }

    func.validate()
        .map_err(|e| Diagnostic::new(format!("internal lowering error: {e}"), Span::default()))?;
    Ok(SimplProgram {
        name: name.clone(),
        func: {
            let mut f = func;
            f.name = name;
            f
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;
    use mcc_machine::Semantic;

    fn p(src: &str) -> SimplProgram {
        parse(src, &hm1()).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn trivial_assignment() {
        let prog = p("program t; begin R1 + R2 -> R3; end");
        assert_eq!(prog.name, "t");
        assert_eq!(prog.func.op_count(), 1);
    }

    #[test]
    fn immediates_and_constants() {
        let prog = p("program t; const M3 = 0x1FFF; begin R1 & M3 -> ACC; 5 -> R0; end");
        // and-imm + ldi
        assert_eq!(prog.func.op_count(), 2);
    }

    #[test]
    fn equiv_aliases_registers() {
        let prog = p("program t; equiv mant = R4; begin mant + R1 -> mant; end");
        let m = hm1();
        let r4 = m.resolve_reg_name("R4").unwrap();
        let op = &prog.func.blocks[0].ops[0];
        assert_eq!(op.dst, Some(Operand::Reg(r4)));
    }

    #[test]
    fn single_operator_rule_enforced() {
        let e = parse("program t; begin R1 + R2 + R3 -> R0; end", &hm1()).unwrap_err();
        assert!(e.message.contains("expected `->`"), "{}", e.message);
    }

    #[test]
    fn while_loop_shape() {
        let prog = p("program t; begin while R2 <> 0 do begin R2 shr 1 -> R2; end; end");
        assert!(prog.func.blocks.len() >= 4);
        prog.func.validate().unwrap();
    }

    #[test]
    fn uf_condition() {
        let prog = p("program t; begin R2 shr 1 -> R2; if UF = 1 then R1 + ACC -> ACC; end");
        let has_branch = prog.func.blocks.iter().any(|b| {
            matches!(
                b.term,
                Some(Term::Branch {
                    cond: CondKind::Uf,
                    ..
                })
            )
        });
        assert!(has_branch);
    }

    #[test]
    fn if_else_joins() {
        let prog = p("program t; begin if R1 = 0 then R2 -> R3 else R4 -> R3; R5 -> R6; end");
        prog.func.validate().unwrap();
    }

    #[test]
    fn for_loop() {
        let prog = p("program t; begin for R1 := 1 to 5 do begin R2 + R1 -> R2; end; end");
        prog.func.validate().unwrap();
        assert!(prog.func.blocks.len() >= 4);
    }

    #[test]
    fn case_builds_dispatch_table() {
        let prog = p(
            "program t; begin case R1 of 0: R2 -> R3; 1: R4 -> R3; 2: R5 -> R3; end; end",
        );
        prog.func.validate().unwrap();
        let disp = prog
            .func
            .blocks
            .iter()
            .find_map(|b| match &b.term {
                Some(Term::Dispatch { mask, table, .. }) => Some((*mask, table.len())),
                _ => None,
            })
            .expect("dispatch emitted");
        assert_eq!(disp, (3, 4), "2 labels +1 → table of 4, mask 3");
    }

    #[test]
    fn proc_and_call() {
        let prog = p("program t; proc clear; begin 0 -> ACC; end; begin call clear; R1 -> R2; end");
        prog.func.validate().unwrap();
        let has_call = prog
            .func
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .any(|o| o.sem == Semantic::Call && o.target.is_some() && o.target != Some(0));
        assert!(has_call);
    }

    #[test]
    fn comment_statement_skipped() {
        let prog = p("program t; begin comment extract the exponent; R1 -> R2; end");
        assert_eq!(prog.func.op_count(), 1);
    }

    #[test]
    fn paper_fp_multiply_parses() {
        // Simplified version of the paper's §2.2.1 example.
        let src = "\
program fpmul;
const M3 = 0x1FFF;
const M4 = 0x3FF;
begin
    comment extract and determine exponent for product;
    R1 & M3 -> ACC;
    R2 & M3 -> R4;
    R4 + ACC -> ACC;
    R3 | ACC -> R3;
    comment extract mantissas and clear ACC;
    R1 & M4 -> R1;
    R2 & M4 -> R2;
    R0 -> ACC;
    comment multiplication proper by shift and add;
    while R2 <> 0 do
    begin
        ACC shr 1 -> ACC;
        R2 shr 1 -> R2;
        if UF = 1 then R1 + ACC -> ACC;
    end;
    comment pack exponent and mantissa;
    R3 | ACC -> R3;
end";
        let prog = p(src);
        prog.func.validate().unwrap();
        assert!(prog.func.op_count() >= 10);
    }

    /// An unclosed parameter list used to spin forever at end-of-input.
    #[test]
    fn unterminated_param_list_is_an_error_not_a_hang() {
        let e = parse("program t (;", &hm1()).unwrap_err();
        assert!(e.message.contains("unterminated"), "{}", e.message);
    }

    #[test]
    fn nesting_depth_is_limited() {
        let mut src = String::from("program t; begin ");
        for _ in 0..200 {
            src.push_str("if R1 = 0 then ");
        }
        src.push_str("R1 -> R2; end");
        let e = parse(&src, &hm1()).unwrap_err();
        assert!(e.message.contains("nesting"), "{}", e.message);
    }

    #[test]
    fn token_budget_is_enforced() {
        let limits = FrontendLimits {
            max_tokens: 10,
            ..FrontendLimits::default()
        };
        let e = parse_with_limits(
            "program t; begin R1 -> R2; R2 -> R3; R3 -> R4; end",
            &hm1(),
            &limits,
        )
        .unwrap_err();
        assert!(e.message.contains("token budget"), "{}", e.message);
    }

    #[test]
    fn oversize_source_is_rejected() {
        let limits = FrontendLimits {
            max_source_bytes: 16,
            ..FrontendLimits::default()
        };
        let e = parse_with_limits("program t; begin R1 -> R2; end", &hm1(), &limits).unwrap_err();
        assert!(e.message.contains("exceeds"), "{}", e.message);
    }

    #[test]
    fn unknown_register_is_an_error() {
        let e = parse("program t; begin Q1 -> R0; end", &hm1()).unwrap_err();
        assert!(e.message.contains("not a register"));
    }

    #[test]
    fn mentioned_registers_are_live_out() {
        let prog = p("program t; begin R1 + R2 -> R3; end");
        let m = hm1();
        let r3 = m.resolve_reg_name("R3").unwrap();
        assert!(prog.func.live_out.contains(&Operand::Reg(r3)));
    }
}
