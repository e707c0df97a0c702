//! # `mcc-sstar` — an S\* instantiation frontend
//!
//! S\* (Dasgupta 1978) is the survey's §2.2.3 language — not a language
//! but a *language schema*: for a machine M it instantiates to S(M),
//! whose elementary statements are M's micro-operations. Its design goals
//! are verifiability and explicit control over parallelism. This crate
//! implements S(M) for any toolkit machine:
//!
//! * **machine-bound declarations**: `var x: seq [15..0] bit with R1`,
//!   arrays bound to register files (`with LS`) or to main memory
//!   (`with mem 4096`), `syn` renamings, bitfield `tuple`s over one
//!   register, and `stack`s (memory-resident, with a pointer register);
//! * **explicit parallelism**: `cobegin … coend` statements *must* share
//!   one microinstruction — the pipeline verifies this and rejects
//!   programs the hardware cannot co-schedule;
//! * `cocycle … coend` groups are compiled as an unreorderable sequence
//!   (our machines latch registers once per cycle, so the paper's
//!   phase-chained single-instruction semantics is approximated by
//!   consecutive microinstructions — recorded in DESIGN.md);
//! * `region … end` sections are emitted one statement per
//!   microinstruction, in source order, exactly as written;
//! * **assertions**: `assert(pred)` both compiles to a runtime check and
//!   feeds the `mcc-verify` weakest-precondition machinery: each
//!   straight-line segment between assertions becomes a Hoare triple.
//!
//! Expressions are arbitrarily complex (unlike SIMPL/EMPL); the frontend
//! introduces compiler temporaries, which is precisely the §2.1.6 cost the
//! survey attributes to that choice.

use std::collections::HashMap;

use mcc_lang::{Case, Comments, DepthGuard, Diagnostic, FrontendLimits, Lexer, Span, Syntax, Tok};
use mcc_machine::{AluOp, CondKind, MachineDesc, RegRef, ShiftOp};
use mcc_mir::{BlockId, FuncBuilder, MirFunction, Operand, RegOrImm, Term};
use mcc_verify::{check_triple, Assign, Pred, Verdict};

/// Where a declared S\* object lives.
#[derive(Debug, Clone, PartialEq)]
enum Place {
    /// A single register (or compiler-allocated vreg).
    Reg(Operand),
    /// A register-file-bound array: base file register, element count.
    RegArray { file: mcc_machine::ids::FileId, lo: u16, len: u16 },
    /// A memory-resident array at this base address.
    MemArray { base: u64, len: u64 },
    /// A bitfield tuple over one register: (register, fields).
    Tuple { reg: Operand, fields: Vec<(String, u16, u16)> }, // (name, hi, lo)
    /// A memory stack: base, capacity, pointer register.
    Stack { base: u64, cap: u64, ptr: Operand },
    /// A named constant.
    Const(u64),
}

/// A recorded assertion with its verification context.
#[derive(Debug, Clone)]
pub struct AssertInfo {
    /// 1-based index in source order.
    pub index: usize,
    /// The predicate text as written.
    pub text: String,
    /// Parsed predicate.
    pub pred: Pred,
    /// The precondition in force (previous assertion or `true`).
    pub pre: Pred,
    /// The straight-line assignments between `pre` and this assertion,
    /// or `None` when control flow intervened (not statically checkable).
    pub segment: Option<Vec<Assign>>,
}

/// A parsed-and-lowered S\* program.
#[derive(Debug)]
pub struct SstarProgram {
    /// The program name.
    pub name: String,
    /// The lowered function.
    pub func: MirFunction,
    /// Blocks holding `cobegin` groups: each must compile to exactly one
    /// microinstruction (checked by the pipeline after compaction).
    pub cogroups: Vec<BlockId>,
    /// Declared variable locations, for observability.
    pub vars: HashMap<String, Operand>,
    /// Assertions for static verification.
    pub asserts: Vec<AssertInfo>,
    /// Register holding the runtime assertion status: 0 = all passed,
    /// n = assertion #n failed first.
    pub assert_flag: Option<Operand>,
}

impl SstarProgram {
    /// Statically checks every assertion whose segment is straight-line:
    /// the Hoare triple `{previous} segment {this}` via weakest
    /// preconditions. Returns `(index, verdict)` pairs; assertions whose
    /// segment crossed control flow are skipped.
    pub fn check_asserts(&self, width: u16) -> Vec<(usize, Verdict)> {
        self.asserts
            .iter()
            .filter_map(|a| {
                a.segment
                    .as_ref()
                    .map(|seg| (a.index, check_triple(&a.pre, seg, &a.pred, width)))
            })
            .collect()
    }
}

// ---------------------------------------------------------------- lexer --

/// S\*'s tokens: `#` starts a comment to end of line (the paper uses
/// `# … #`; line comments are close enough and unambiguous), identifiers
/// fold to lowercase, and any other character is a symbol.
const SYNTAX: Syntax = Syntax {
    comments: Comments::Line("#"),
    case: Case::Lower,
    multi: &[":=", "..", "<>", "<=", ">="],
    single: None,
};

// ----------------------------------------------------------- expressions --

/// S\* expression AST (kept so assertions can mirror assignments).
#[derive(Debug, Clone, PartialEq)]
enum Ast {
    Num(u64),
    Name(String),
    Index(String, u64),
    Field(String, String),
    Bin(AluOp, Box<Ast>, Box<Ast>),
    Shift(ShiftOp, Box<Ast>, u64),
    Not(Box<Ast>),
    Neg(Box<Ast>),
}

// ---------------------------------------------------------------- parser --

struct Parser<'a, 'm> {
    lx: Lexer<'a>,
    m: &'m MachineDesc,
    b: FuncBuilder,
    places: HashMap<String, Place>,
    /// Names in the order their declarations first bound them.
    declared: Vec<String>,
    cogroups: Vec<BlockId>,
    /// Verification state.
    asserts: Vec<AssertInfo>,
    seg: Option<Vec<Assign>>,
    pre: Pred,
    assert_fail_block: Option<BlockId>,
    assert_flag: Option<Operand>,
    next_mem: u64,
    /// In a `region`: isolate every statement in its own block.
    region_depth: u32,
    /// Declared procedures: name → entry block.
    procs: HashMap<String, BlockId>,
    /// One guard for statement *and* expression nesting: what matters is
    /// the cumulative native stack, not either grammar alone.
    depth: DepthGuard,
    /// The limits assertion text is parsed under.
    limits: FrontendLimits,
}

impl<'a, 'm> Parser<'a, 'm> {
    /// Binds `name` to `place`, keeping the order of first declarations.
    fn declare(&mut self, name: String, place: Place) {
        if self.places.insert(name.clone(), place).is_none() {
            self.declared.push(name);
        }
    }

    // ---- declarations ------------------------------------------------------

    /// `seq [h..l] bit` → width.
    fn seq_type(&mut self) -> Result<u16, Diagnostic> {
        self.lx.expect_kw("seq")?;
        self.lx.expect_sym("[")?;
        let h = self.lx.number()?;
        self.lx.expect_sym("..")?;
        let l = self.lx.number()?;
        self.lx.expect_sym("]")?;
        self.lx.expect_kw("bit")?;
        if h < l {
            return Err(self.lx.diag("seq bounds must be high..low"));
        }
        if h - l >= 64 {
            return Err(self.lx.diag("seq wider than 64 bits"));
        }
        Ok((h - l + 1) as u16)
    }

    fn declaration(&mut self) -> Result<(), Diagnostic> {
        if self.lx.kw("const")? {
            let name = self.lx.ident()?;
            self.lx.expect_sym("=")?;
            let v = self.lx.number()?;
            self.lx.expect_sym(";")?;
            self.declare(name, Place::Const(v));
            return Ok(());
        }
        if self.lx.kw("syn")? {
            loop {
                let name = self.lx.ident()?;
                self.lx.expect_sym("=")?;
                let target = self.lx.ident()?;
                let place = if self.lx.sym("[")? {
                    let idx = self.lx.number()?;
                    self.lx.expect_sym("]")?;
                    self.element_place(&target, idx)?
                } else {
                    self.places
                        .get(&target)
                        .cloned()
                        .ok_or_else(|| self.lx.diag(format!("unknown object `{target}`")))?
                };
                self.declare(name, place);
                if !self.lx.sym(",")? {
                    break;
                }
            }
            self.lx.expect_sym(";")?;
            return Ok(());
        }
        if self.lx.kw("var")? {
            loop {
                let name = self.lx.ident()?;
                self.lx.expect_sym(":")?;
                self.var_type(&name)?;
                if !self.lx.sym(",")? {
                    break;
                }
            }
            self.lx.expect_sym(";")?;
            return Ok(());
        }
        Err(self.lx.diag("expected declaration"))
    }

    fn var_type(&mut self, name: &str) -> Result<(), Diagnostic> {
        if self.lx.peek_kw("seq") {
            let width = self.seq_type()?;
            let place = if self.lx.kw("with")? {
                let target = self.lx.ident()?;
                let r = self
                    .m
                    .resolve_reg_name(&target)
                    .ok_or_else(|| self.lx.diag(format!("`{target}` is not a register")))?;
                if self.m.reg_width(r) < width {
                    return Err(self.lx.diag(format!(
                        "`{name}` needs {width} bits but {target} has {}",
                        self.m.reg_width(r)
                    )));
                }
                Place::Reg(Operand::Reg(r))
            } else {
                Place::Reg(Operand::Vreg(self.b.vreg()))
            };
            self.declare(name.to_string(), place);
            return Ok(());
        }
        if self.lx.kw("array")? {
            self.lx.expect_sym("[")?;
            let lo = self.lx.number()?;
            self.lx.expect_sym("..")?;
            let hi = self.lx.number()?;
            self.lx.expect_sym("]")?;
            self.lx.expect_kw("of")?;
            let _width = self.seq_type()?;
            if lo != 0 {
                return Err(self.lx.diag("array lower bound must be 0"));
            }
            let len = hi
                .checked_add(1)
                .ok_or_else(|| self.lx.diag("array too large"))?;
            self.lx.expect_kw("with")?;
            if self.lx.kw("mem")? {
                let base = self.lx.number()?;
                if base.checked_add(len).is_none() {
                    return Err(self.lx.diag("array extends past the address space"));
                }
                self.declare(name.to_string(), Place::MemArray { base, len });
            } else {
                let fname = self.lx.ident()?;
                let fid = self
                    .m
                    .find_file(&fname.to_ascii_uppercase())
                    .ok_or_else(|| self.lx.diag(format!("no register file `{fname}`")))?;
                if len > self.m.file(fid).count as u64 {
                    return Err(self.lx.diag(format!(
                        "array `{name}` does not fit file `{fname}`"
                    )));
                }
                self.declare(
                    name.to_string(),
                    Place::RegArray {
                        file: fid,
                        lo: 0,
                        len: len as u16,
                    },
                );
            }
            return Ok(());
        }
        if self.lx.kw("tuple")? {
            // tuple f1: seq [h..l] bit; f2: …; end with REG
            let mut fields = Vec::new();
            while !self.lx.kw("end")? {
                let fname = self.lx.ident()?;
                self.lx.expect_sym(":")?;
                self.lx.expect_kw("seq")?;
                self.lx.expect_sym("[")?;
                let h = self.lx.number()?;
                self.lx.expect_sym("..")?;
                let l = self.lx.number()?;
                self.lx.expect_sym("]")?;
                self.lx.expect_kw("bit")?;
                self.lx.expect_sym(";")?;
                // Tuples overlay one register, so fields must fit a word;
                // the mask arithmetic downstream relies on these bounds.
                if h < l || h >= 64 {
                    return Err(self.lx.diag(format!("bad field bounds [{h}..{l}]")));
                }
                fields.push((fname, h as u16, l as u16));
            }
            self.lx.expect_kw("with")?;
            let target = self.lx.ident()?;
            let r = self
                .m
                .resolve_reg_name(&target)
                .ok_or_else(|| self.lx.diag(format!("`{target}` is not a register")))?;
            self.declare(
                name.to_string(),
                Place::Tuple {
                    reg: Operand::Reg(r),
                    fields,
                },
            );
            return Ok(());
        }
        if self.lx.kw("stack")? {
            self.lx.expect_sym("[")?;
            let cap = self.lx.number()?;
            if cap == 0 || cap > 1 << 16 {
                return Err(self.lx.diag("stack capacity must be 1..=65536"));
            }
            self.lx.expect_sym("]")?;
            self.lx.expect_kw("of")?;
            let _w = self.seq_type()?;
            // Pointer register: `with PTRREG` or compiler-allocated.
            let ptr = if self.lx.kw("with")? {
                let t = self.lx.ident()?;
                Operand::Reg(
                    self.m
                        .resolve_reg_name(&t)
                        .ok_or_else(|| self.lx.diag(format!("`{t}` is not a register")))?,
                )
            } else {
                Operand::Vreg(self.b.vreg())
            };
            let base = self.next_mem;
            self.next_mem += cap;
            self.declare(name.to_string(), Place::Stack { base, cap, ptr });
            // The stack pointer starts at 0 (empty).
            self.b.ldi(ptr, 0);
            return Ok(());
        }
        Err(self.lx.diag("expected type"))
    }

    /// `proc name (used, vars); <stmt>` — a parameterless micro-subroutine.
    fn proc_decl(&mut self) -> Result<(), Diagnostic> {
        self.lx.expect_kw("proc")?;
        let name = self.lx.ident()?;
        // The parenthesised uses-list: every entry must be declared.
        if self.lx.sym("(")? {
            loop {
                let used = self.lx.ident()?;
                if !self.places.contains_key(&used) {
                    return Err(self.lx.diag(format!(
                        "procedure `{name}` lists undeclared variable `{used}`"
                    )));
                }
                if !self.lx.sym(",")? {
                    break;
                }
            }
            self.lx.expect_sym(")")?;
        }
        self.lx.expect_sym(";")?;
        let entry = self.b.new_labeled_block(format!("proc_{name}"));
        let after = self.b.current();
        self.b.switch_to(entry);
        self.seg_break();
        self.statement()?;
        let _ = self.lx.sym(";")?;
        self.b.terminate(Term::Ret);
        self.b.switch_to(after);
        self.procs.insert(name, entry);
        Ok(())
    }

    fn element_place(&mut self, array: &str, idx: u64) -> Result<Place, Diagnostic> {
        match self.places.get(array) {
            Some(Place::RegArray { file, lo, len }) => {
                if idx >= *len as u64 {
                    return Err(self.lx.diag(format!("index {idx} out of bounds for `{array}`")));
                }
                Ok(Place::Reg(Operand::Reg(RegRef::new(*file, lo + idx as u16))))
            }
            Some(Place::MemArray { base, len }) => {
                if idx >= *len {
                    return Err(self.lx.diag(format!("index {idx} out of bounds for `{array}`")));
                }
                Ok(Place::Const(base + idx)) // address constant; loads/stores resolve it
            }
            _ => Err(self.lx.diag(format!("`{array}` is not an array"))),
        }
    }

    // ---- expressions --------------------------------------------------------

    /// Consumes the first of the operator symbols `syms` that comes next,
    /// as its ALU operation.
    fn alu_sym(&mut self, syms: &[&str]) -> Result<Option<AluOp>, Diagnostic> {
        for &s in syms {
            if self.lx.sym(s)? {
                return Ok(FuncBuilder::alu_op(s));
            }
        }
        Ok(None)
    }

    fn expr_ast(&mut self) -> Result<Ast, Diagnostic> {
        let mut a = self.term_ast()?;
        while let Some(op) = self.alu_sym(&["+", "-"])? {
            a = Ast::Bin(op, Box::new(a), Box::new(self.term_ast()?));
        }
        Ok(a)
    }

    fn term_ast(&mut self) -> Result<Ast, Diagnostic> {
        let mut a = self.shift_ast()?;
        while let Some(op) = self.alu_sym(&["&", "|", "^"])? {
            a = Ast::Bin(op, Box::new(a), Box::new(self.shift_ast()?));
        }
        Ok(a)
    }

    fn shift_ast(&mut self) -> Result<Ast, Diagnostic> {
        let mut a = self.atom_ast()?;
        while let Some((op, _)) = ShiftOp::NAMES.into_iter().find(|&(_, n)| self.lx.peek_kw(n)) {
            self.lx.advance()?;
            let n = self.lx.number()?;
            a = Ast::Shift(op, Box::new(a), n);
        }
        Ok(a)
    }

    fn atom_ast(&mut self) -> Result<Ast, Diagnostic> {
        self.depth.enter(self.lx.span())?;
        let r = self.atom_ast_inner();
        self.depth.leave();
        r
    }

    fn atom_ast_inner(&mut self) -> Result<Ast, Diagnostic> {
        if self.lx.sym("(")? {
            let e = self.expr_ast()?;
            self.lx.expect_sym(")")?;
            return Ok(e);
        }
        if self.lx.sym("~")? {
            return Ok(Ast::Not(Box::new(self.atom_ast()?)));
        }
        if self.lx.sym("-")? {
            return Ok(Ast::Neg(Box::new(self.atom_ast()?)));
        }
        match self.lx.tok().clone() {
            Tok::Num(v) => {
                self.lx.advance()?;
                Ok(Ast::Num(v))
            }
            Tok::Ident(w) => {
                self.lx.advance()?;
                if self.lx.sym("[")? {
                    let idx = self.lx.number()?;
                    self.lx.expect_sym("]")?;
                    Ok(Ast::Index(w, idx))
                } else if self.lx.sym(".")? {
                    let f = self.lx.ident()?;
                    Ok(Ast::Field(w, f))
                } else {
                    Ok(Ast::Name(w))
                }
            }
            _ => Err(self.lx.diag("expected expression")),
        }
    }

    /// Lowers an expression, returning the operand holding its value.
    fn eval(&mut self, a: &Ast) -> Result<Operand, Diagnostic> {
        match a {
            Ast::Num(v) => {
                let t = Operand::Vreg(self.b.vreg());
                self.b.ldi(t, *v);
                Ok(t)
            }
            Ast::Name(n) => match self.places.get(n).cloned() {
                Some(Place::Reg(r)) => Ok(r),
                Some(Place::Const(v)) => {
                    let t = Operand::Vreg(self.b.vreg());
                    self.b.ldi(t, v);
                    Ok(t)
                }
                Some(_) => Err(self.lx.diag(format!("`{n}` is not a simple value"))),
                None => Err(self.lx.diag(format!("unknown name `{n}`"))),
            },
            Ast::Index(arr, idx) => match self.element_place_q(arr, *idx)? {
                Place::Reg(r) => Ok(r),
                Place::Const(addr) => {
                    // Memory array element: load it.
                    let at = Operand::Vreg(self.b.vreg());
                    self.b.ldi(at, addr);
                    let t = Operand::Vreg(self.b.vreg());
                    self.b.load(t, at);
                    Ok(t)
                }
                _ => unreachable!("element places are Reg or Const"),
            },
            Ast::Field(obj, field) => {
                let (reg, h, l) = self.field_of(obj, field)?;
                let t = Operand::Vreg(self.b.vreg());
                if l > 0 {
                    self.b.shift(ShiftOp::Shr, t, reg, l as u64);
                    self.b
                        .alu_imm(AluOp::And, t, t, mask_of(h - l + 1));
                } else {
                    self.b.alu_imm(AluOp::And, t, reg, mask_of(h - l + 1));
                }
                Ok(t)
            }
            Ast::Bin(op, x, y) => {
                let vx = self.eval(x)?;
                // Constant right operands use the immediate path.
                if let Ast::Num(v) = **y {
                    let t = Operand::Vreg(self.b.vreg());
                    self.b.alu_imm(*op, t, vx, v);
                    return Ok(t);
                }
                let vy = self.eval(y)?;
                let t = Operand::Vreg(self.b.vreg());
                self.b.alu(*op, t, vx, vy);
                Ok(t)
            }
            Ast::Shift(op, x, n) => {
                let vx = self.eval(x)?;
                let t = Operand::Vreg(self.b.vreg());
                self.b.shift(*op, t, vx, *n);
                Ok(t)
            }
            Ast::Not(x) => {
                let vx = self.eval(x)?;
                let t = Operand::Vreg(self.b.vreg());
                self.b.alu_un(AluOp::Not, t, vx);
                Ok(t)
            }
            Ast::Neg(x) => {
                let vx = self.eval(x)?;
                let t = Operand::Vreg(self.b.vreg());
                self.b.alu_un(AluOp::Neg, t, vx);
                Ok(t)
            }
        }
    }

    /// Like [`element_place`] but without consuming tokens.
    fn element_place_q(&mut self, array: &str, idx: u64) -> Result<Place, Diagnostic> {
        match self.places.get(array) {
            Some(Place::RegArray { file, lo, len }) => {
                if idx >= *len as u64 {
                    return Err(self.lx.diag(format!("index {idx} out of bounds")));
                }
                Ok(Place::Reg(Operand::Reg(RegRef::new(*file, lo + idx as u16))))
            }
            Some(Place::MemArray { base, len }) => {
                if idx >= *len {
                    return Err(self.lx.diag(format!("index {idx} out of bounds")));
                }
                Ok(Place::Const(base + idx))
            }
            _ => Err(self.lx.diag(format!("`{array}` is not an array"))),
        }
    }

    fn field_of(&self, obj: &str, field: &str) -> Result<(Operand, u16, u16), Diagnostic> {
        match self.places.get(obj) {
            Some(Place::Tuple { reg, fields }) => fields
                .iter()
                .find(|(n, _, _)| n == field)
                .map(|&(_, h, l)| (*reg, h, l))
                .ok_or_else(|| self.lx.diag(format!("`{obj}` has no field `{field}`"))),
            _ => Err(self.lx.diag(format!("`{obj}` is not a tuple"))),
        }
    }

    // ---- verification bookkeeping -------------------------------------------

    /// Records an assignment into the current straight-line segment.
    fn seg_record(&mut self, lhs: &str, rhs: &Ast) {
        if let Some(seg) = &mut self.seg {
            if let Some(e) = ast_to_verify(rhs) {
                seg.push(Assign::new(lhs, e));
                return;
            }
        }
        self.seg = None; // unrepresentable: give up on this segment
    }

    /// Control flow kills static segments.
    fn seg_break(&mut self) {
        self.seg = None;
    }

    // ---- statements -----------------------------------------------------------

    fn statement(&mut self) -> Result<(), Diagnostic> {
        if self.region_depth > 0 {
            // Isolate in a fresh block so nothing packs across statements.
            let nb = self.b.new_block();
            self.b.jump_and_switch(nb);
        }
        self.statement_inner()
    }

    fn statement_inner(&mut self) -> Result<(), Diagnostic> {
        self.depth.enter(self.lx.span())?;
        let r = self.statement_body();
        self.depth.leave();
        r
    }

    fn statement_body(&mut self) -> Result<(), Diagnostic> {
        if self.lx.sym(";")? {
            return Ok(());
        }
        if self.lx.kw("begin")? {
            while !self.lx.kw("end")? {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            return Ok(());
        }
        if self.lx.kw("region")? {
            self.region_depth += 1;
            while !self.lx.kw("end")? {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            self.region_depth -= 1;
            return Ok(());
        }
        if self.lx.kw("cobegin")? {
            // All statements share one microinstruction: lower into a
            // dedicated block recorded in `cogroups`.
            self.seg_break();
            let grp = self.b.new_labeled_block("cobegin");
            let cont = self.b.new_block();
            self.b.jump_and_switch(grp);
            while !self.lx.kw("coend")? {
                self.statement_inner()?;
                let _ = self.lx.sym(";")?;
            }
            self.cogroups.push(grp);
            self.b.terminate(Term::Jump(cont));
            self.b.switch_to(cont);
            return Ok(());
        }
        if self.lx.kw("cocycle")? {
            // Unreorderable sequence: same mechanism as `region`.
            self.region_depth += 1;
            while !(self.lx.kw("coend")? || self.lx.kw("end")?) {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            self.region_depth -= 1;
            return Ok(());
        }
        if self.lx.kw("dur")? {
            // dur S0 do S1; …; Sn end — S0 runs alongside the sequence.
            // Approximated by prefixing S0 (see crate docs).
            self.statement()?;
            self.lx.expect_kw("do")?;
            while !self.lx.kw("end")? {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            return Ok(());
        }
        if self.lx.kw("if")? {
            self.seg_break();
            let join = self.b.new_labeled_block("fi");
            loop {
                let cond = self.condition()?;
                self.lx.expect_kw("then")?;
                let then_b = self.b.new_block();
                let else_b = self.b.new_block();
                self.b.branch(cond, then_b, else_b);
                self.b.switch_to(then_b);
                while !["elif", "else", "fi"].iter().any(|k| self.lx.peek_kw(k)) {
                    self.statement()?;
                    let _ = self.lx.sym(";")?;
                }
                self.b.terminate(Term::Jump(join));
                self.b.switch_to(else_b);
                if self.lx.kw("elif")? {
                    continue;
                }
                if self.lx.kw("else")? {
                    while !self.lx.peek_kw("fi") {
                        self.statement()?;
                        let _ = self.lx.sym(";")?;
                    }
                }
                self.lx.expect_kw("fi")?;
                break;
            }
            self.b.terminate(Term::Jump(join));
            self.b.switch_to(join);
            return Ok(());
        }
        if self.lx.kw("while")? {
            self.seg_break();
            let head = self.b.new_labeled_block("while");
            let body = self.b.new_block();
            let done = self.b.new_block();
            self.b.jump_and_switch(head);
            let cond = self.condition()?;
            self.lx.expect_kw("do")?;
            self.b.branch(cond, body, done);
            self.b.switch_to(body);
            while !self.lx.kw("od")? {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            self.b.terminate(Term::Jump(head));
            self.b.switch_to(done);
            return Ok(());
        }
        if self.lx.kw("repeat")? {
            self.seg_break();
            let body = self.b.new_labeled_block("repeat");
            let done = self.b.new_block();
            self.b.jump_and_switch(body);
            while !self.lx.kw("until")? {
                self.statement()?;
                let _ = self.lx.sym(";")?;
            }
            let cond = self.condition()?;
            self.b.branch(cond, done, body);
            self.b.switch_to(done);
            return Ok(());
        }
        if self.lx.kw("assert")? {
            self.lx.expect_sym("(")?;
            // Capture the raw predicate text up to the matching `)`.
            let text = self.capture_pred_text()?;
            let pred = mcc_verify::parse_pred_with_limits(&text, &self.limits)
                .map_err(|e| self.lx.diag(format!("bad assertion: {e}")))?;
            let info = AssertInfo {
                index: self.asserts.len() + 1,
                text: text.clone(),
                pred: pred.clone(),
                pre: self.pre.clone(),
                segment: self.seg.clone(),
            };
            self.asserts.push(info);
            self.pre = pred.clone();
            self.seg = Some(Vec::new());
            self.lower_runtime_assert(&pred)?;
            return Ok(());
        }
        if self.lx.kw("call")? {
            let name = self.lx.ident()?;
            let entry = *self
                .procs
                .get(&name)
                .ok_or_else(|| self.lx.diag(format!("unknown procedure `{name}`")))?;
            self.seg_break();
            self.b.call(entry);
            return Ok(());
        }
        if self.lx.kw("push")? {
            // push(stack, expr)
            self.lx.expect_sym("(")?;
            let sname = self.lx.ident()?;
            self.lx.expect_sym(",")?;
            let e = self.expr_ast()?;
            self.lx.expect_sym(")")?;
            self.seg_break();
            let (base, cap, ptr) = self.stack_of(&sname)?;
            let v = self.eval(&e)?;
            // addr = base + ptr; MEM[addr] = v; ptr += 1 (no overflow check
            // here: S* pre/postconditions are the intended guard).
            let at = Operand::Vreg(self.b.vreg());
            self.b.alu_imm(AluOp::Add, at, ptr, base);
            self.b.store(at, v);
            self.b.alu_imm(AluOp::Add, ptr, ptr, 1);
            let _ = cap;
            return Ok(());
        }
        if self.lx.kw("pop")? {
            // pop(stack, var)
            self.lx.expect_sym("(")?;
            let sname = self.lx.ident()?;
            self.lx.expect_sym(",")?;
            let dst_name = self.lx.ident()?;
            self.lx.expect_sym(")")?;
            self.seg_break();
            let (base, _cap, ptr) = self.stack_of(&sname)?;
            let dst = match self.places.get(&dst_name) {
                Some(Place::Reg(r)) => *r,
                _ => return Err(self.lx.diag(format!("`{dst_name}` is not a simple variable"))),
            };
            self.b.alu_imm(AluOp::Sub, ptr, ptr, 1);
            let at = Operand::Vreg(self.b.vreg());
            self.b.alu_imm(AluOp::Add, at, ptr, base);
            self.b.load(dst, at);
            return Ok(());
        }

        // Assignment: lhs := expr
        let name = self.lx.ident()?;
        let lhs = if self.lx.sym("[")? {
            let idx = self.lx.number()?;
            self.lx.expect_sym("]")?;
            Lhs::Element(name.clone(), idx)
        } else if self.lx.sym(".")? {
            let f = self.lx.ident()?;
            Lhs::Field(name.clone(), f)
        } else {
            Lhs::Simple(name.clone())
        };
        self.lx.expect_sym(":=")?;
        let rhs = self.expr_ast()?;
        self.lower_assign(&lhs, &rhs)
    }

    fn stack_of(&self, name: &str) -> Result<(u64, u64, Operand), Diagnostic> {
        match self.places.get(name) {
            Some(Place::Stack { base, cap, ptr }) => Ok((*base, *cap, *ptr)),
            _ => Err(self.lx.diag(format!("`{name}` is not a stack"))),
        }
    }

    fn lower_assign(&mut self, lhs: &Lhs, rhs: &Ast) -> Result<(), Diagnostic> {
        match lhs {
            Lhs::Simple(n) => match self.places.get(n).cloned() {
                Some(Place::Reg(dst)) => {
                    self.seg_record(n, rhs);
                    self.assign_into(dst, rhs)
                }
                Some(_) => Err(self.lx.diag(format!("cannot assign to `{n}` as a whole"))),
                None => Err(self.lx.diag(format!("unknown name `{n}`"))),
            },
            Lhs::Element(arr, idx) => {
                match self.element_place_q(arr, *idx)? {
                    Place::Reg(dst) => {
                        self.seg_record(&format!("{arr}{idx}"), rhs);
                        self.assign_into(dst, rhs)
                    }
                    Place::Const(addr) => {
                        self.seg_break();
                        let v = self.eval(rhs)?;
                        let at = Operand::Vreg(self.b.vreg());
                        self.b.ldi(at, addr);
                        self.b.store(at, v);
                        Ok(())
                    }
                    _ => unreachable!(),
                }
            }
            Lhs::Field(obj, field) => {
                // Read-modify-write of the bitfield.
                self.seg_break();
                let (reg, h, l) = self.field_of(obj, field)?;
                let fmask = mask_of(h - l + 1) << l;
                let v = self.eval(rhs)?;
                let shifted = Operand::Vreg(self.b.vreg());
                if l > 0 {
                    self.b.shift(ShiftOp::Shl, shifted, v, l as u64);
                } else {
                    self.b.mov(shifted, v);
                }
                self.b.alu_imm(AluOp::And, shifted, shifted, fmask);
                let cleared = Operand::Vreg(self.b.vreg());
                self.b
                    .alu_imm(AluOp::And, cleared, reg, !fmask & 0xFFFF);
                self.b.alu(AluOp::Or, reg, cleared, shifted);
                Ok(())
            }
        }
    }

    /// Lowers `dst := rhs`, using the immediate path for constants and
    /// avoiding a temp for single-operation right-hand sides.
    fn assign_into(&mut self, dst: Operand, rhs: &Ast) -> Result<(), Diagnostic> {
        match rhs {
            Ast::Num(v) => {
                self.b.ldi(dst, *v);
                Ok(())
            }
            Ast::Name(n) => match self.places.get(n).cloned() {
                Some(Place::Reg(src)) => {
                    if src != dst {
                        self.b.mov(dst, src);
                    }
                    Ok(())
                }
                Some(Place::Const(v)) => {
                    self.b.ldi(dst, v);
                    Ok(())
                }
                _ => Err(self.lx.diag(format!("`{n}` is not a simple value"))),
            },
            Ast::Bin(op, x, y) => {
                let vx = self.eval(x)?;
                if let Ast::Num(v) = **y {
                    self.b.alu_imm(*op, dst, vx, v);
                } else {
                    let vy = self.eval(y)?;
                    self.b.alu(*op, dst, vx, vy);
                }
                Ok(())
            }
            Ast::Shift(op, x, n) => {
                let vx = self.eval(x)?;
                self.b.shift(*op, dst, vx, *n);
                Ok(())
            }
            Ast::Not(x) => {
                let vx = self.eval(x)?;
                self.b.alu_un(AluOp::Not, dst, vx);
                Ok(())
            }
            Ast::Neg(x) => {
                let vx = self.eval(x)?;
                self.b.alu_un(AluOp::Neg, dst, vx);
                Ok(())
            }
            _ => {
                let v = self.eval(rhs)?;
                self.b.mov(dst, v);
                Ok(())
            }
        }
    }

    /// Parses `expr relop expr` (or `uf = 0|1`), emits the flag-setting
    /// code, and returns the branch condition.
    fn condition(&mut self) -> Result<CondKind, Diagnostic> {
        if self.lx.kw("uf")? {
            self.lx.expect_sym("=")?;
            let v = self.lx.number()?;
            return Ok(if v == 1 { CondKind::Uf } else { CondKind::NotUf });
        }
        self.seg_break();
        let a = self.expr_ast()?;
        let rel = self.lx.rel()?;
        let b = self.expr_ast()?;
        let (a, rel, b) = match rel {
            ">" => (b, "<", a),
            "<=" => (b, ">=", a),
            r => (a, r, b),
        };
        let va = self.eval(&a)?;
        if matches!(b, Ast::Num(0)) && (rel == "=" || rel == "<>") {
            self.b.alu_un(AluOp::Pass, va, va);
        } else {
            let t = Operand::Vreg(self.b.vreg());
            if let Ast::Num(v) = b {
                self.b.alu_imm(AluOp::Sub, t, va, v);
            } else {
                let vb = self.eval(&b)?;
                self.b.alu(AluOp::Sub, t, va, vb);
            }
        }
        FuncBuilder::relation(rel).ok_or_else(|| self.lx.diag(format!("unknown relop `{rel}`")))
    }

    /// Captures the raw text of an assertion up to its closing paren.
    fn capture_pred_text(&mut self) -> Result<String, Diagnostic> {
        // Re-lex from the raw source: find the matching `)`.
        let src = self.lx.source();
        let start = self.lx.span().start;
        let mut depth = 1usize;
        let mut end = start;
        for (i, ch) in src[start..].char_indices() {
            match ch {
                '(' => depth += 1,
                ')' => {
                    depth -= 1;
                    if depth == 0 {
                        end = start + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        if depth != 0 {
            return Err(self.lx.diag("unterminated assert"));
        }
        let text = src[start..end].to_string();
        // Skip the lexer past the captured region.
        while self.lx.span().start < end {
            self.lx.advance()?;
        }
        self.lx.expect_sym(")")?;
        Ok(text)
    }

    /// Runtime check: a simple comparison assertion compiles to a branch
    /// to the shared fail block. Non-comparison predicates are checked
    /// statically only.
    fn lower_runtime_assert(&mut self, pred: &Pred) -> Result<(), Diagnostic> {
        let Pred::Cmp(op, lhs, rhs) = pred else {
            return Ok(());
        };
        // Only variable-vs-constant and variable-vs-variable checks are
        // lowered (expressions would re-enter the expression compiler with
        // verify-AST terms; static checking covers those).
        let as_operand = |p: &Self, e: &mcc_verify::Expr| -> Option<Operand> {
            match e {
                mcc_verify::Expr::Var(n) => match p.places.get(n) {
                    Some(Place::Reg(r)) => Some(*r),
                    _ => None,
                },
                _ => None,
            }
        };
        let lv = as_operand(self, lhs);
        let (cond, va, vb) = match (lv, rhs) {
            (Some(va), mcc_verify::Expr::Const(c)) => (op, va, RegOrImm::Imm(*c)),
            (Some(va), mcc_verify::Expr::Var(_)) => match as_operand(self, rhs) {
                Some(vb) => (op, va, RegOrImm::Reg(vb)),
                None => return Ok(()),
            },
            _ => return Ok(()),
        };
        let kind = match cond {
            mcc_verify::CmpOp::Eq => CondKind::Zero,
            mcc_verify::CmpOp::Ne => CondKind::NotZero,
            mcc_verify::CmpOp::Lt => CondKind::Neg,
            mcc_verify::CmpOp::Ge => CondKind::NotNeg,
            _ => return Ok(()), // Le/Gt: static only
        };
        // Ensure the fail block and flag exist.
        let flag = *self.assert_flag.get_or_insert_with(|| {
            // Flag is created lazily; initialised at entry by a fixup in
            // `parse` (block 0 prologue).
            Operand::Vreg(self.b.vreg())
        });
        let fail = match self.assert_fail_block {
            Some(b) => b,
            None => {
                let b = self.b.new_labeled_block("assert_fail");
                self.assert_fail_block = Some(b);
                b
            }
        };
        let idx = self.asserts.len() as u64; // 1-based already pushed
        // Compare and branch.
        let t = Operand::Vreg(self.b.vreg());
        match vb {
            RegOrImm::Imm(0) if matches!(kind, CondKind::Zero | CondKind::NotZero) => {
                self.b.alu_un(AluOp::Pass, va, va);
            }
            RegOrImm::Imm(c) => self.b.alu_imm(AluOp::Sub, t, va, c),
            RegOrImm::Reg(r) => self.b.alu(AluOp::Sub, t, va, r),
        }
        let ok = self.b.new_block();
        let set = self.b.new_block();
        self.b.branch(kind, ok, set);
        self.b.switch_to(set);
        self.b.ldi(flag, idx);
        self.b.terminate(Term::Jump(fail));
        self.b.switch_to(ok);
        Ok(())
    }
}

enum Lhs {
    Simple(String),
    Element(String, u64),
    Field(String, String),
}

fn mask_of(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Converts an S\* expression AST into a verification expression, when
/// representable (no array/field/memory references).
fn ast_to_verify(a: &Ast) -> Option<mcc_verify::Expr> {
    use mcc_verify::Expr as V;
    Some(match a {
        Ast::Num(v) => V::Const(*v),
        Ast::Name(n) => V::Var(n.clone()),
        Ast::Index(arr, i) => V::Var(format!("{arr}{i}")),
        Ast::Field(_, _) => return None,
        Ast::Bin(op, x, y) => {
            let x = ast_to_verify(x)?;
            let y = ast_to_verify(y)?;
            match op {
                AluOp::Add => V::add(x, y),
                AluOp::Sub => V::sub(x, y),
                AluOp::And => V::and(x, y),
                AluOp::Or => V::or(x, y),
                _ => V::xor(x, y),
            }
        }
        Ast::Shift(ShiftOp::Shl, x, n) => V::shl(ast_to_verify(x)?, *n),
        Ast::Shift(ShiftOp::Shr, x, n) => V::shr(ast_to_verify(x)?, *n),
        Ast::Shift(_, _, _) => return None,
        Ast::Not(x) => V::Not(Box::new(ast_to_verify(x)?)),
        Ast::Neg(x) => V::sub(V::Const(0), ast_to_verify(x)?),
    })
}

/// Parses and lowers an S(M) program for machine `m`.
///
/// # Errors
///
/// Returns a [`Diagnostic`] with the span of the offending token.
pub fn parse(src: &str, m: &MachineDesc) -> Result<SstarProgram, Diagnostic> {
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
) -> Result<SstarProgram, Diagnostic> {
    limits.check_source(src)?;
    let lx = Lexer::new(src, &SYNTAX, limits)?;
    let mut p = Parser {
        lx,
        m,
        b: FuncBuilder::new("sstar"),
        places: HashMap::new(),
        declared: Vec::new(),
        cogroups: Vec::new(),
        asserts: Vec::new(),
        seg: Some(Vec::new()),
        pre: Pred::True,
        assert_fail_block: None,
        assert_flag: None,
        next_mem: 0x6000,
        region_depth: 0,
        procs: HashMap::new(),
        depth: DepthGuard::new(limits),
        limits: *limits,
    };

    p.lx.expect_kw("program")?;
    let name = p.lx.ident()?;
    p.lx.expect_sym(";")?;

    while p.lx.peek_kw("var") || p.lx.peek_kw("const") || p.lx.peek_kw("syn") {
        p.declaration()?;
    }

    // Parameterless procedures (§2.2.3: "the procedure name must be
    // followed by a parenthesized list of the variables used in the
    // body" — the list is parsed and checked against declarations).
    while p.lx.peek_kw("proc") {
        p.proc_decl()?;
    }

    p.lx.expect_kw("begin")?;
    while !p.lx.kw("end")? {
        p.statement()?;
        let _ = p.lx.sym(";")?;
    }
    p.b.terminate(Term::Halt);

    // Fail block: just halts (the flag already carries the index).
    if let Some(fb) = p.assert_fail_block {
        p.b.switch_to(fb);
        p.b.terminate(Term::Halt);
    }

    // Observability: every register-bound variable plus the assert flag.
    let mut vars = HashMap::new();
    for n in &p.declared {
        match &p.places[n] {
            Place::Reg(r) => {
                vars.insert(n.clone(), *r);
                p.b.mark_live_out(*r);
            }
            Place::Tuple { reg, .. } => {
                vars.insert(n.clone(), *reg);
                p.b.mark_live_out(*reg);
            }
            _ => {}
        }
    }
    if let Some(flag) = p.assert_flag {
        p.b.mark_live_out(flag);
    }

    let asserts = std::mem::take(&mut p.asserts);
    let cogroups = std::mem::take(&mut p.cogroups);
    let assert_flag = p.assert_flag;
    let mut func = p.b.finish();
    func.name = name.clone();
    // Initialise the assert flag at entry (prepend to block 0).
    if let Some(flag) = assert_flag {
        func.blocks[0]
            .ops
            .insert(0, mcc_mir::MirOp::ldi(flag, 0));
    }
    func.validate()
        .map_err(|e| Diagnostic::new(format!("internal lowering error: {e}"), Span::default()))?;
    Ok(SstarProgram {
        name,
        func,
        cogroups,
        vars,
        asserts,
        assert_flag,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::hm1;

    fn p(src: &str) -> SstarProgram {
        parse(src, &hm1()).unwrap_or_else(|e| panic!("{}", e.render(src)))
    }

    #[test]
    fn minimal_program() {
        let prog = p("program t; var x: seq [15..0] bit with R1; begin x := 5; end");
        assert_eq!(prog.name, "t");
        assert_eq!(prog.func.op_count(), 1);
    }

    #[test]
    fn unbound_variables_are_virtual() {
        let prog = p("program t; var x: seq [15..0] bit; begin x := 5; end");
        assert!(prog.func.has_virtual_regs());
    }

    #[test]
    fn width_checked_against_register() {
        let e = parse(
            "program t; var x: seq [31..0] bit with R1; begin x := 5; end",
            &hm1(),
        )
        .unwrap_err();
        assert!(e.message.contains("needs 32 bits"));
    }

    #[test]
    fn complex_expression_introduces_temps() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1, y: seq [15..0] bit with R2; \
             begin x := (x + y) & (x - 1); end",
        );
        // add, sub-imm, and — three ops with temporaries.
        assert!(prog.func.op_count() >= 3);
        assert!(prog.func.has_virtual_regs());
    }

    #[test]
    fn localstore_array_and_syn() {
        let prog = p(
            "program t; \
             var localstore: array [0..31] of seq [15..0] bit with LS; \
             syn mpr = localstore[0], mpnd = localstore[1]; \
             begin mpr := 3; mpnd := mpr + 1; end",
        );
        let m = hm1();
        let ls = m.find_file("LS").unwrap();
        assert_eq!(prog.vars.get("mpr"), Some(&Operand::Reg(RegRef::new(ls, 0))));
    }

    #[test]
    fn memory_array() {
        let prog = p(
            "program t; var buf: array [0..7] of seq [15..0] bit with mem 0x4000; \
             var x: seq [15..0] bit with R1; \
             begin buf[3] := 9; x := buf[3]; end",
        );
        // store path: ldi + ldi-addr + store; load path: ldi-addr + load.
        assert!(prog.func.op_count() >= 4);
    }

    #[test]
    fn tuple_bitfields() {
        let prog = p(
            "program t; \
             var ir: tuple opcode: seq [15..12] bit; addr: seq [11..0] bit; end with R4; \
             var x: seq [15..0] bit with R1; \
             begin x := ir.opcode; ir.addr := 5; end",
        );
        // Field read: shr + and; field write: read-modify-write.
        assert!(prog.func.op_count() >= 5);
    }

    #[test]
    fn cobegin_records_group() {
        let prog = p(
            "program t; \
             var a: seq [15..0] bit with R1, b: seq [15..0] bit with R2, \
                 c: seq [15..0] bit with R3, d: seq [15..0] bit with R4; \
             begin cobegin a := c; b := d coend; end",
        );
        assert_eq!(prog.cogroups.len(), 1);
        let grp = prog.cogroups[0] as usize;
        assert_eq!(prog.func.blocks[grp].ops.len(), 2);
    }

    #[test]
    fn repeat_until_shape() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1; \
             begin repeat x := x - 1 until x = 0; end",
        );
        prog.func.validate().unwrap();
        assert!(prog.func.blocks.len() >= 3);
    }

    #[test]
    fn if_elif_else_fi() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1; \
             begin if x = 0 then x := 1; elif x = 1 then x := 2; else x := 3; fi; end",
        );
        prog.func.validate().unwrap();
    }

    #[test]
    fn stack_push_pop() {
        let prog = p(
            "program t; var s: stack [8] of seq [15..0] bit with R7; \
             var x: seq [15..0] bit with R1; \
             begin push(s, 42); pop(s, x); end",
        );
        prog.func.validate().unwrap();
        // ldi(ptr=0) + push: eval+add+store+inc, pop: dec+add+load.
        assert!(prog.func.op_count() >= 7);
    }

    #[test]
    fn asserts_recorded_and_checkable() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1; \
             begin x := 5; assert(x = 5); x := x + 1; assert(x = 6); end",
        );
        assert_eq!(prog.asserts.len(), 2);
        let verdicts = prog.check_asserts(16);
        assert_eq!(verdicts.len(), 2);
        for (_, v) in &verdicts {
            assert_eq!(*v, Verdict::Valid, "{verdicts:?}");
        }
    }

    #[test]
    fn wrong_assert_is_refuted() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1; \
             begin x := 5; assert(x = 6); end",
        );
        let verdicts = prog.check_asserts(16);
        assert!(matches!(verdicts[0].1, Verdict::Invalid { .. }));
    }

    #[test]
    fn paper_mpy_example() {
        // The §2.2.3 multiplication program, adapted to this instantiation.
        let src = "\
program mpy;
var localstore: array [0..31] of seq [15..0] bit with LS;
const minus1 = 0xFFFF;
var left_alu_in: seq [15..0] bit with R1;
var right_alu_in: seq [15..0] bit with R2;
var aluout: seq [15..0] bit with R3;
syn mpr = localstore[0],
    mpnd = localstore[1],
    product = localstore[2];
begin
    repeat
        cocycle
            cobegin left_alu_in := product; right_alu_in := mpnd coend;
            aluout := left_alu_in + right_alu_in;
            product := aluout
        end;
        cocycle
            cobegin left_alu_in := mpr; right_alu_in := minus1 coend;
            aluout := left_alu_in + right_alu_in;
            mpr := aluout
        end
    until aluout = 0;
end";
        let prog = p(src);
        prog.func.validate().unwrap();
        assert_eq!(prog.cogroups.len(), 2);
    }

    #[test]
    fn procedures_compile_and_call() {
        let prog = p(
            "program t; var x: seq [15..0] bit with R1; \
             proc bump (x); x := x + 1; \
             begin x := 5; call bump; call bump; end",
        );
        prog.func.validate().unwrap();
        let calls = prog
            .func
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| o.sem == mcc_machine::Semantic::Call)
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn proc_uses_list_checked() {
        let e = parse(
            "program t; var x: seq [15..0] bit with R1; \
             proc bump (nosuch); x := x + 1; begin end",
            &hm1(),
        )
        .unwrap_err();
        assert!(e.message.contains("undeclared variable"));
    }

    #[test]
    fn deep_expression_nesting_is_limited() {
        let mut src = String::from("program t; var x: seq [15..0] bit with R1; begin x := ");
        src.push_str(&"(".repeat(500));
        src.push('1');
        src.push_str(&")".repeat(500));
        src.push_str("; end");
        let e = parse(&src, &hm1()).unwrap_err();
        assert!(e.message.contains("nesting"), "{}", e.message);
    }

    #[test]
    fn inverted_tuple_field_bounds_rejected() {
        let e = parse(
            "program t; var ir: tuple f: seq [0..12] bit; end with R4; begin end",
            &hm1(),
        )
        .unwrap_err();
        assert!(e.message.contains("bad field bounds"), "{}", e.message);
    }

    #[test]
    fn huge_array_bound_rejected() {
        let e = parse(
            "program t; var a: array [0..18446744073709551615] of seq [15..0] bit with mem 0; \
             begin end",
            &hm1(),
        )
        .unwrap_err();
        assert!(e.message.contains("too large"), "{}", e.message);
    }

    #[test]
    fn token_budget_is_enforced() {
        let limits = FrontendLimits {
            max_tokens: 8,
            ..FrontendLimits::default()
        };
        let e = parse_with_limits(
            "program t; var x: seq [15..0] bit with R1; begin x := 5; end",
            &hm1(),
            &limits,
        )
        .unwrap_err();
        assert!(e.message.contains("token budget"), "{}", e.message);
    }

    #[test]
    fn region_isolates_statements() {
        let prog = p(
            "program t; var a: seq [15..0] bit with R1, b: seq [15..0] bit with R2; \
             begin region a := 1; b := 2; end end",
        );
        // Each region statement sits in its own block.
        let nonempty = prog
            .func
            .blocks
            .iter()
            .filter(|b| !b.ops.is_empty())
            .count();
        assert!(nonempty >= 2);
    }
}
