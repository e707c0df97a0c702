//! # `mcc-empl` — the EMPL frontend
//!
//! EMPL (*Extensible Micro Programming Language*, DeWitt 1976) is the
//! survey's §2.2.2 language and, in its judgement, the one that "most
//! closely resembles a conventional high level language". The features the
//! survey calls out are all here:
//!
//! * **symbolic variables** — "variables in EMPL are not machine
//!   registers"; every scalar is a virtual register for the allocator
//!   (EMPL is the frontend that actually *needs* `mcc-regalloc`);
//! * all variables **global** ("in order to avoid procedure calling
//!   overhead"), procedures parameterless;
//! * **single-operator expressions** (`X = A + B;`);
//! * a small builtin operator set *including multiply and divide* —
//!   neither exists in any reference machine, so the frontend expands
//!   them into shift-add / restoring-division microcode loops;
//! * **extensibility**: `NAME: OPERATOR ACCEPTS (…) RETURNS (…);` with an
//!   optional `MICROOP` hardware hint, and `TYPE … ENDTYPE` extension
//!   statements (the SIMULA-class analogue) whose fields are visible only
//!   to the operations declared inside — exactly the encapsulation the
//!   paper describes;
//! * operator invocations are **inlined** ("a call to an operator which is
//!   not hardware supported is textually replaced by the statements that
//!   form its body") — the code-growth consequence the survey criticises
//!   is measurable in the experiment tables;
//! * `IF/THEN/ELSE`, `WHILE…DO;…END;`, `GOTO`, `CALL`, `RETURN`, `ERROR`.
//!
//! None of the reference machines exposes the hinted micro-operations
//! (`MICROOP PUSH` etc.), so hints are recorded in
//! [`EmplProgram::hints`] and bodies are always inlined — faithfully
//! reproducing the implementation sketch the survey reviews.

mod syntax;

use std::collections::HashMap;

use mcc_lang::{Diagnostic, FrontendLimits, Span};
use mcc_machine::{AluOp, CondKind, ShiftOp};
use mcc_mir::{BlockId, FuncBuilder, MirFunction, Operand, RegOrImm, Term};

pub use syntax::{
    Atom, Cond, Decl, Field, Item, Lhs, Module, OperatorDef, ProcDef, Rhs, Stmt, TypeDef,
};

/// A compiled EMPL program.
#[derive(Debug)]
pub struct EmplProgram {
    /// The lowered function (all scalars virtual — run the allocator).
    pub func: MirFunction,
    /// Global scalar variables (including type-instance fields under
    /// `instance.field` names).
    pub globals: HashMap<String, Operand>,
    /// Arrays: name → (memory base address, length).
    pub arrays: HashMap<String, (u64, u64)>,
    /// The error flag: 0 = clean, 1 = `ERROR` executed.
    pub error_flag: Operand,
    /// `MICROOP` hints encountered (recorded; bodies inlined regardless).
    pub hints: Vec<String>,
}

/// Base address of the EMPL array heap.
pub const ARRAY_BASE: u64 = 0x4000;

fn err(msg: impl Into<String>) -> Diagnostic {
    Diagnostic::new(msg, Span::default())
}

#[derive(Debug, Clone, Copy)]
enum Binding {
    Scalar(Operand),
    Array { base: u64, len: u64 },
}

struct Lower<'a> {
    b: FuncBuilder,
    scopes: Vec<HashMap<String, Binding>>,
    types: HashMap<String, &'a TypeDef>,
    free_ops: HashMap<String, &'a OperatorDef>,
    proc_entries: HashMap<String, BlockId>,
    instances: HashMap<String, String>,
    labels: HashMap<String, (BlockId, bool)>,
    label_prefix: String,
    error_block: BlockId,
    error_flag: Operand,
    next_mem: u64,
    inline_depth: u32,
    inline_counter: u32,
    hints: Vec<String>,
    in_proc: bool,
}

impl<'a> Lower<'a> {
    fn resolve(&self, name: &str) -> Option<Binding> {
        for s in self.scopes.iter().rev() {
            if let Some(b) = s.get(name) {
                return Some(*b);
            }
        }
        None
    }

    fn scalar(&mut self, name: &str) -> Result<Operand, Diagnostic> {
        match self.resolve(name) {
            Some(Binding::Scalar(o)) => Ok(o),
            Some(Binding::Array { .. }) => Err(err(format!("`{name}` is an array"))),
            None => Err(err(format!("undeclared variable `{name}`"))),
        }
    }

    fn array(&mut self, name: &str) -> Option<(u64, u64)> {
        match self.resolve(name) {
            Some(Binding::Array { base, len }) => Some((base, len)),
            _ => None,
        }
    }

    fn atom(&mut self, a: &Atom) -> Result<Operand, Diagnostic> {
        match a {
            Atom::Var(n) => self.scalar(n),
            Atom::Num(v) => {
                let t = Operand::Vreg(self.b.vreg());
                self.b.ldi(t, *v);
                Ok(t)
            }
        }
    }

    /// Computes the address operand of `arr(idx)` with the base folded in.
    fn element_addr(&mut self, base: u64, idx: &Atom) -> Result<Operand, Diagnostic> {
        match idx {
            Atom::Num(i) => {
                let t = Operand::Vreg(self.b.vreg());
                self.b.ldi(t, base + i);
                Ok(t)
            }
            Atom::Var(n) => {
                let iv = self.scalar(n)?;
                let t = Operand::Vreg(self.b.vreg());
                self.b.alu_imm(AluOp::Add, t, iv, base);
                Ok(t)
            }
        }
    }

    fn label_block(&mut self, name: &str) -> BlockId {
        let key = format!("{}{}", self.label_prefix, name);
        if let Some(&(b, _)) = self.labels.get(&key) {
            return b;
        }
        let b = self.b.new_labeled_block(&key);
        self.labels.insert(key, (b, false));
        b
    }

    fn define_label(&mut self, name: &str) -> Result<(), Diagnostic> {
        let blk = self.label_block(name);
        let key = format!("{}{}", self.label_prefix, name);
        let entry = self.labels.get_mut(&key).expect("just created");
        if entry.1 {
            return Err(err(format!("label `{name}` defined twice")));
        }
        entry.1 = true;
        self.b.terminate(Term::Jump(blk));
        self.b.switch_to(blk);
        Ok(())
    }

    /// Emits a comparison, returning the "holds" condition.
    fn cond(&mut self, c: &Cond) -> Result<CondKind, Diagnostic> {
        let (a, rel, b) = match c.rel.as_str() {
            ">" => (&c.b, "<", &c.a),
            "<=" => (&c.b, ">=", &c.a),
            r => (&c.a, r, &c.b),
        };
        let va = self.atom(a)?;
        let vb = match b {
            Atom::Num(v) => RegOrImm::Imm(*v),
            Atom::Var(n) => RegOrImm::Reg(self.scalar(n)?),
        };
        self.b
            .compare(va, rel, vb)
            .ok_or_else(|| err(format!("unknown relop `{rel}`")))
    }

    /// Shift-add multiplication: `dst = a * b` (16-bit wrapping).
    fn emit_mul(&mut self, dst: Operand, a: Operand, b: Operand) -> Result<(), Diagnostic> {
        let acc = Operand::Vreg(self.b.vreg());
        let m = Operand::Vreg(self.b.vreg());
        let n = Operand::Vreg(self.b.vreg());
        self.b.ldi(acc, 0);
        self.b.mov(m, a);
        self.b.mov(n, b);
        let head = self.b.new_labeled_block("mul_head");
        let body = self.b.new_block();
        let addb = self.b.new_block();
        let skip = self.b.new_block();
        let done = self.b.new_block();
        self.b.jump_and_switch(head);
        self.b.alu_un(AluOp::Pass, n, n);
        self.b.branch(CondKind::Zero, done, body);
        self.b.switch_to(body);
        self.b.shift(ShiftOp::Shr, n, n, 1);
        self.b.branch(CondKind::Uf, addb, skip);
        self.b.switch_to(addb);
        self.b.alu(AluOp::Add, acc, acc, m);
        self.b.terminate(Term::Jump(skip));
        self.b.switch_to(skip);
        self.b.shift(ShiftOp::Shl, m, m, 1);
        self.b.terminate(Term::Jump(head));
        self.b.switch_to(done);
        self.b.mov(dst, acc);
        Ok(())
    }

    /// Restoring division: `dst = a / b` (unsigned 16-bit). `ERROR` on
    /// division by zero.
    fn emit_div(&mut self, dst: Operand, a: Operand, b: Operand) -> Result<(), Diagnostic> {
        // Zero check.
        let zb = self.b.new_block();
        let go = self.b.new_block();
        self.b.alu_un(AluOp::Pass, b, b);
        self.b.branch(CondKind::Zero, zb, go);
        self.b.switch_to(zb);
        self.b.ldi(self.error_flag, 1);
        self.b.terminate(Term::Jump(self.error_block));
        self.b.switch_to(go);

        let q = Operand::Vreg(self.b.vreg());
        let r = Operand::Vreg(self.b.vreg());
        let num = Operand::Vreg(self.b.vreg());
        let i = Operand::Vreg(self.b.vreg());
        self.b.ldi(q, 0);
        self.b.ldi(r, 0);
        self.b.mov(num, a);
        self.b.ldi(i, 16);
        let head = self.b.new_labeled_block("div_head");
        let body = self.b.new_block();
        let bit1 = self.b.new_block();
        let bit0 = self.b.new_block();
        let cmp = self.b.new_block();
        let subb = self.b.new_block();
        let next = self.b.new_block();
        let done = self.b.new_block();
        self.b.jump_and_switch(head);
        self.b.alu_un(AluOp::Pass, i, i);
        self.b.branch(CondKind::Zero, done, body);
        self.b.switch_to(body);
        // Bring down the next numerator bit: r = r<<1 | msb(num).
        self.b.shift(ShiftOp::Shl, num, num, 1); // UF = old msb
        self.b.branch(CondKind::Uf, bit1, bit0);
        self.b.switch_to(bit1);
        self.b.shift(ShiftOp::Shl, r, r, 1);
        self.b.alu_imm(AluOp::Or, r, r, 1);
        self.b.terminate(Term::Jump(cmp));
        self.b.switch_to(bit0);
        self.b.shift(ShiftOp::Shl, r, r, 1);
        self.b.terminate(Term::Jump(cmp));
        self.b.switch_to(cmp);
        // q <<= 1; if r >= b { r -= b; q |= 1 }
        self.b.shift(ShiftOp::Shl, q, q, 1);
        let t = Operand::Vreg(self.b.vreg());
        self.b.alu(AluOp::Sub, t, r, b);
        // Unsigned r >= b ⟺ no borrow ⟺ carry clear.
        self.b.branch(CondKind::NotCarry, subb, next);
        self.b.switch_to(subb);
        self.b.mov(r, t);
        self.b.alu_imm(AluOp::Or, q, q, 1);
        self.b.terminate(Term::Jump(next));
        self.b.switch_to(next);
        self.b.alu_imm(AluOp::Sub, i, i, 1);
        self.b.terminate(Term::Jump(head));
        self.b.switch_to(done);
        self.b.mov(dst, q);
        Ok(())
    }

    /// Inlines an operator/operation body.
    fn inline_operator(
        &mut self,
        def: &'a OperatorDef,
        instance: Option<&str>,
        args: &[Atom],
        dst: Option<Operand>,
    ) -> Result<(), Diagnostic> {
        if self.inline_depth >= 32 {
            return Err(err(format!(
                "operator `{}` expands too deep (recursive?)",
                def.name
            )));
        }
        if let Some(h) = &def.hint {
            if !self.hints.contains(h) {
                self.hints.push(h.clone());
            }
        }
        if def.accepts.len() != args.len() {
            return Err(err(format!(
                "`{}` takes {} arguments, got {}",
                def.name,
                def.accepts.len(),
                args.len()
            )));
        }
        let mut scope: HashMap<String, Binding> = HashMap::new();
        // Instance fields come into scope first.
        if let Some(inst) = instance {
            let tname = match self.instances.get(inst) {
                Some(t) => t.clone(),
                None => return Err(err(format!("`{inst}` is not a type instance"))),
            };
            let t = match self.types.get(tname.as_str()) {
                Some(t) => *t,
                None => return Err(err(format!("unknown type `{tname}`"))),
            };
            for f in &t.fields {
                let key = match f {
                    Field::Scalar(n) => n.clone(),
                    Field::Array(n, _) => n.clone(),
                };
                let mangled = format!("{inst}.{key}");
                let b = match self.resolve(&mangled) {
                    Some(b) => b,
                    None => return Err(err(format!("instance field `{mangled}` missing"))),
                };
                scope.insert(key, b);
            }
        }
        // Formals alias the actuals (textual substitution semantics).
        for (formal, actual) in def.accepts.iter().zip(args) {
            let b = match actual {
                Atom::Var(n) => match self.resolve(n) {
                    Some(b) => b,
                    None => return Err(err(format!("undeclared argument `{n}`"))),
                },
                Atom::Num(v) => {
                    let t = Operand::Vreg(self.b.vreg());
                    self.b.ldi(t, *v);
                    Binding::Scalar(t)
                }
            };
            scope.insert(formal.clone(), b);
        }
        // The RETURNS formal binds to the destination (or a scratch).
        if let Some(ret) = &def.returns {
            let d = dst.unwrap_or_else(|| Operand::Vreg(self.b.vreg()));
            scope.insert(ret.clone(), Binding::Scalar(d));
        }

        self.inline_counter += 1;
        let saved_prefix = std::mem::replace(
            &mut self.label_prefix,
            format!("inl{}::", self.inline_counter),
        );
        self.scopes.push(scope);
        self.inline_depth += 1;
        let r = self.items(&def.body);
        self.inline_depth -= 1;
        self.scopes.pop();
        self.label_prefix = saved_prefix;
        r
    }

    fn find_operation(
        &self,
        name: &str,
        args: &[Atom],
    ) -> Option<(&'a OperatorDef, Option<String>, Vec<Atom>)> {
        // Type operation: first argument is an instance.
        if let Some(Atom::Var(first)) = args.first() {
            if let Some(tname) = self.instances.get(first) {
                if let Some(op) = self.types[tname].operations.iter().find(|o| o.name == name) {
                    return Some((op, Some(first.clone()), args[1..].to_vec()));
                }
            }
        }
        // Free operator.
        self.free_ops
            .get(name)
            .map(|op| (*op, None, args.to_vec()))
    }

    fn assign(&mut self, lhs: &Lhs, rhs: &Rhs) -> Result<(), Diagnostic> {
        // Resolve the destination.
        enum Dst {
            Reg(Operand),
            Mem(Operand), // address operand
        }
        let dst = match lhs {
            Lhs::Var(n) => Dst::Reg(self.scalar(n)?),
            Lhs::Arr(n, idx) => match self.array(n) {
                Some((base, _len)) => {
                    // Evaluate rhs first? Address computation is
                    // side-effect-free; order does not matter here.
                    Dst::Mem(self.element_addr(base, &idx.clone())?)
                }
                None => return Err(err(format!("`{n}` is not an array"))),
            },
        };

        // A memory destination needs the value in a register first.
        let into: Operand = match &dst {
            Dst::Reg(r) => *r,
            Dst::Mem(_) => Operand::Vreg(self.b.vreg()),
        };

        match rhs {
            Rhs::Atom(Atom::Num(v)) => self.b.ldi(into, *v),
            Rhs::Atom(Atom::Var(n)) => {
                let s = self.scalar(n)?;
                self.b.mov(into, s);
            }
            Rhs::Un(op, a) => {
                let va = self.atom(a)?;
                match op.as_str() {
                    "-" => self.b.alu_un(AluOp::Neg, into, va),
                    _ => self.b.alu_un(AluOp::Not, into, va),
                }
            }
            Rhs::Shift(op, a, n) => {
                let va = self.atom(a)?;
                self.b.shift(*op, into, va, *n);
            }
            Rhs::Bin(op, a, bb) => {
                let va = self.atom(a)?;
                match op.as_str() {
                    "*" => {
                        let vb = self.atom(bb)?;
                        self.emit_mul(into, va, vb)?;
                    }
                    "/" => {
                        let vb = self.atom(bb)?;
                        self.emit_div(into, va, vb)?;
                    }
                    _ => {
                        let aop = FuncBuilder::alu_op(op)
                            .ok_or_else(|| err(format!("unknown operator `{op}`")))?;
                        match bb {
                            Atom::Num(v) => self.b.alu_imm(aop, into, va, *v),
                            Atom::Var(n) => {
                                let vb = self.scalar(n)?;
                                self.b.alu(aop, into, va, vb);
                            }
                        }
                    }
                }
            }
            Rhs::ArrGet(n, idx) => {
                // Array read *or* single-argument operator call.
                if let Some((base, _)) = self.array(n) {
                    let at = self.element_addr(base, idx)?;
                    self.b.load(into, at);
                } else if let Some((def, inst, rest)) =
                    self.find_operation(n, std::slice::from_ref(idx))
                {
                    let inst = inst.clone();
                    self.inline_operator(def, inst.as_deref(), &rest, Some(into))?;
                } else {
                    return Err(err(format!("`{n}` is neither array nor operator")));
                }
            }
            Rhs::OpCall(n, args) => match self.find_operation(n, args) {
                Some((def, inst, rest)) => {
                    let inst = inst.clone();
                    self.inline_operator(def, inst.as_deref(), &rest, Some(into))?;
                }
                None => return Err(err(format!("unknown operator `{n}`"))),
            },
        }

        if let Dst::Mem(at) = dst {
            self.b.store(at, into);
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), Diagnostic> {
        match s {
            Stmt::Empty => Ok(()),
            Stmt::Assign(l, r) => self.assign(l, r),
            Stmt::Do(items) => self.items(items),
            Stmt::If(c, then_s, else_s) => {
                let k = self.cond(c)?;
                let tb = self.b.new_block();
                let eb = self.b.new_block();
                self.b.branch(k, tb, eb);
                self.b.switch_to(tb);
                self.stmt(then_s)?;
                match else_s {
                    Some(es) => {
                        let join = self.b.new_block();
                        self.b.terminate(Term::Jump(join));
                        self.b.switch_to(eb);
                        self.stmt(es)?;
                        self.b.terminate(Term::Jump(join));
                        self.b.switch_to(join);
                    }
                    None => {
                        self.b.terminate(Term::Jump(eb));
                        self.b.switch_to(eb);
                    }
                }
                Ok(())
            }
            Stmt::While(c, body) => {
                let head = self.b.new_labeled_block("while");
                let bb = self.b.new_block();
                let done = self.b.new_block();
                self.b.jump_and_switch(head);
                let k = self.cond(c)?;
                self.b.branch(k, bb, done);
                self.b.switch_to(bb);
                self.items(body)?;
                self.b.terminate(Term::Jump(head));
                self.b.switch_to(done);
                Ok(())
            }
            Stmt::Goto(l) => {
                let blk = self.label_block(l);
                self.b.terminate(Term::Jump(blk));
                let unreachable = self.b.new_block();
                self.b.switch_to(unreachable);
                Ok(())
            }
            Stmt::Call(name, args) => {
                // Procedure call (no args) or operation invocation.
                if args.is_empty() {
                    if let Some(&entry) = self.proc_entries.get(name) {
                        self.b.call(entry);
                        return Ok(());
                    }
                }
                match self.find_operation(name, args) {
                    Some((def, inst, rest)) => {
                        let inst = inst.clone();
                        self.inline_operator(def, inst.as_deref(), &rest, None)
                    }
                    None => Err(err(format!("unknown procedure or operation `{name}`"))),
                }
            }
            Stmt::Return => {
                if self.in_proc {
                    self.b.terminate(Term::Ret);
                } else {
                    self.b.terminate(Term::Halt);
                }
                let unreachable = self.b.new_block();
                self.b.switch_to(unreachable);
                Ok(())
            }
            Stmt::Error => {
                self.b.ldi(self.error_flag, 1);
                self.b.terminate(Term::Jump(self.error_block));
                let unreachable = self.b.new_block();
                self.b.switch_to(unreachable);
                Ok(())
            }
        }
    }

    fn items(&mut self, items: &[Item]) -> Result<(), Diagnostic> {
        for it in items {
            match it {
                Item::Label(l) => self.define_label(l)?,
                Item::Stmt(s) => self.stmt(s)?,
            }
        }
        Ok(())
    }
}

/// Parses EMPL source into a [`Module`] (machine-independent).
///
/// # Errors
///
/// Returns a [`Diagnostic`] with the position of the first syntax error.
pub fn parse(src: &str) -> Result<Module, Diagnostic> {
    parse_with_limits(src, &FrontendLimits::default())
}

/// [`parse`] with explicit resource limits (source size, token budget,
/// nesting depth). Fuzzing entry point; `parse` uses the defaults.
///
/// # Errors
///
/// As [`parse`], plus a [`Diagnostic`] when a limit is exceeded.
pub fn parse_with_limits(src: &str, limits: &FrontendLimits) -> Result<Module, Diagnostic> {
    limits.check_source(src)?;
    syntax::Parser::new(src, limits)?.module()
}

/// Lowers a parsed module to MIR (machine-independent; the pipeline's
/// legalisation adapts it to a target).
///
/// # Errors
///
/// Returns a [`Diagnostic`] for semantic errors (undeclared names, bad
/// arities, recursive operator expansion).
pub fn lower(module: &Module) -> Result<EmplProgram, Diagnostic> {
    let mut b = FuncBuilder::new("empl");
    let error_flag = Operand::Vreg(b.vreg());
    b.ldi(error_flag, 0);

    let mut lw = Lower {
        b,
        scopes: vec![HashMap::new()],
        types: module.types.iter().map(|t| (t.name.clone(), t)).collect(),
        free_ops: module
            .operators
            .iter()
            .map(|o| (o.name.clone(), o))
            .collect(),
        proc_entries: HashMap::new(),
        instances: HashMap::new(),
        labels: HashMap::new(),
        label_prefix: String::new(),
        error_block: 0, // patched below
        error_flag,
        next_mem: ARRAY_BASE,
        inline_depth: 0,
        inline_counter: 0,
        hints: Vec::new(),
        in_proc: false,
    };
    lw.error_block = lw.b.new_labeled_block("error");

    // Globals and instances, with INITIALLY bodies queued in order.
    let mut initial_runs: Vec<(String, String)> = Vec::new(); // (instance, type)
    for d in &module.decls {
        match d {
            Decl::Scalar(n) => {
                let v = Operand::Vreg(lw.b.vreg());
                lw.scopes[0].insert(n.clone(), Binding::Scalar(v));
            }
            Decl::Array(n, len) => {
                let base = lw.next_mem;
                lw.next_mem += len;
                lw.scopes[0].insert(n.clone(), Binding::Array { base, len: *len });
            }
            Decl::Instance(n, tname) => {
                let t = *lw
                    .types
                    .get(tname)
                    .ok_or_else(|| err(format!("unknown type `{tname}`")))?;
                for f in &t.fields {
                    match f {
                        Field::Scalar(fname) => {
                            let v = Operand::Vreg(lw.b.vreg());
                            lw.scopes[0]
                                .insert(format!("{n}.{fname}"), Binding::Scalar(v));
                        }
                        Field::Array(fname, len) => {
                            let base = lw.next_mem;
                            lw.next_mem += len;
                            lw.scopes[0].insert(
                                format!("{n}.{fname}"),
                                Binding::Array { base, len: *len },
                            );
                        }
                    }
                }
                lw.instances.insert(n.clone(), tname.clone());
                initial_runs.push((n.clone(), tname.clone()));
            }
        }
    }

    // Procedures: entries first (forward calls), bodies second.
    for p in &module.procs {
        let entry = lw.b.new_labeled_block(format!("proc_{}", p.name));
        lw.proc_entries.insert(p.name.clone(), entry);
    }
    let main_block = lw.b.current();
    for p in &module.procs {
        let entry = lw.proc_entries[&p.name];
        lw.b.switch_to(entry);
        lw.in_proc = true;
        let saved = std::mem::replace(&mut lw.label_prefix, format!("{}::", p.name));
        lw.items(&p.body)?;
        lw.label_prefix = saved;
        lw.in_proc = false;
        lw.b.terminate(Term::Ret);
    }
    lw.b.switch_to(main_block);

    // INITIALLY bodies run before the main program, in declaration order.
    for (inst, tname) in &initial_runs {
        let t = lw.types[tname];
        if t.initially.is_empty() {
            continue;
        }
        let mut scope = HashMap::new();
        for f in &t.fields {
            let key = match f {
                Field::Scalar(n) => n.clone(),
                Field::Array(n, _) => n.clone(),
            };
            let b = match lw.resolve(&format!("{inst}.{key}")) {
                Some(b) => b,
                None => return Err(err(format!("instance field `{inst}.{key}` missing"))),
            };
            scope.insert(key, b);
        }
        lw.scopes.push(scope);
        lw.inline_counter += 1;
        let saved = std::mem::replace(
            &mut lw.label_prefix,
            format!("init{}::", lw.inline_counter),
        );
        lw.items(&t.initially)?;
        lw.label_prefix = saved;
        lw.scopes.pop();
    }

    // Main program.
    lw.items(&module.main)?;
    lw.b.terminate(Term::Halt);

    // Error block: halts with the flag set.
    lw.b.switch_to(lw.error_block);
    lw.b.terminate(Term::Halt);

    // Undefined labels? Blocks are numbered in order of first mention,
    // so the smallest names the one the source references first.
    let undefined = lw
        .labels
        .iter()
        .filter(|&(_, &(_, defined))| !defined)
        .min_by_key(|&(_, &(b, _))| b);
    if let Some((name, _)) = undefined {
        return Err(err(format!("label `{name}` is never defined")));
    }

    // Observability.
    let mut globals = HashMap::new();
    let mut arrays = HashMap::new();
    for (n, b) in &lw.scopes[0] {
        match b {
            Binding::Scalar(o) => {
                globals.insert(n.clone(), *o);
            }
            Binding::Array { base, len } => {
                arrays.insert(n.clone(), (*base, *len));
            }
        }
    }
    // Globals are vregs numbered in declaration order.
    let mut live: Vec<Operand> = globals.values().copied().collect();
    live.sort_unstable();
    for o in live {
        lw.b.mark_live_out(o);
    }
    lw.b.mark_live_out(error_flag);

    let func = lw.b.finish();
    func.validate()
        .map_err(|e| err(format!("internal lowering error: {e}")))?;
    Ok(EmplProgram {
        func,
        globals,
        arrays,
        error_flag,
        hints: lw.hints,
    })
}

/// Parses and lowers in one step.
///
/// # Errors
///
/// See [`parse`] and [`lower`].
pub fn compile(src: &str) -> Result<EmplProgram, Diagnostic> {
    lower(&parse(src)?)
}

/// [`compile`] with explicit resource limits.
///
/// # Errors
///
/// See [`parse_with_limits`] and [`lower`].
pub fn compile_with_limits(
    src: &str,
    limits: &FrontendLimits,
) -> Result<EmplProgram, Diagnostic> {
    lower(&parse_with_limits(src, limits)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(src: &str) -> EmplProgram {
        compile(src).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn nesting_depth_is_limited() {
        let mut src = String::from("DECLARE X FIXED; ");
        for _ in 0..200 {
            src.push_str("IF X = 0 THEN ");
        }
        src.push_str("X = 1;");
        let e = compile(&src).unwrap_err();
        assert!(e.message.contains("nesting"), "got: {}", e.message);
    }

    #[test]
    fn nested_do_groups_are_limited() {
        let mut src = String::new();
        for _ in 0..200 {
            src.push_str("DO; ");
        }
        let e = compile(&src).unwrap_err();
        assert!(e.message.contains("nesting"), "got: {}", e.message);
    }

    #[test]
    fn token_budget_is_enforced() {
        let limits = FrontendLimits {
            max_tokens: 10,
            ..FrontendLimits::default()
        };
        let e = compile_with_limits("DECLARE X FIXED; X = 1; X = 2; X = 3;", &limits)
            .unwrap_err();
        assert!(e.message.contains("token budget"), "got: {}", e.message);
    }

    #[test]
    fn oversize_source_is_rejected() {
        let limits = FrontendLimits {
            max_source_bytes: 16,
            ..FrontendLimits::default()
        };
        let e = compile_with_limits("DECLARE X FIXED; X = 1;", &limits).unwrap_err();
        assert!(e.message.contains("byte limit"), "got: {}", e.message);
    }

    #[test]
    fn scalars_are_symbolic() {
        let p = c("DECLARE X FIXED; X = 5;");
        assert!(p.func.has_virtual_regs());
        assert!(p.globals.contains_key("X"));
    }

    #[test]
    fn single_operator_expressions() {
        let p = c("DECLARE X FIXED; DECLARE Y FIXED; X = 1; Y = X + 2;");
        // error-flag init + two assignments.
        assert_eq!(p.func.op_count(), 3);
    }

    #[test]
    fn arrays_live_in_memory() {
        let p = c("DECLARE A(8) FIXED; DECLARE I FIXED; I = 3; A(I) = 7; I = A(2);");
        assert_eq!(p.arrays["A"], (ARRAY_BASE, 8));
        // Contains load and store ops.
        let sems: Vec<_> = p
            .func
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .map(|o| o.sem)
            .collect();
        assert!(sems.contains(&mcc_machine::Semantic::MemRead));
        assert!(sems.contains(&mcc_machine::Semantic::MemWrite));
    }

    #[test]
    fn while_and_goto() {
        let p = c("DECLARE X FIXED; X = 5; WHILE X <> 0 DO; X = X - 1; END; \
                   L: X = X + 1; IF X < 3 THEN GOTO L;");
        p.func.validate().unwrap();
    }

    #[test]
    fn procedures_and_calls() {
        let p = c("DECLARE X FIXED; P: PROCEDURE; X = X + 1; END; X = 0; CALL P; CALL P;");
        let calls = p
            .func
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter(|o| o.sem == mcc_machine::Semantic::Call)
            .count();
        assert_eq!(calls, 2);
    }

    #[test]
    fn operators_are_inlined() {
        let p = c("DECLARE X FIXED; DECLARE Y FIXED; \
                   DOUBLE: OPERATOR ACCEPTS (A) RETURNS (B); B = A + A; END; \
                   X = 3; Y = DOUBLE(X);");
        // No Call op: inlined.
        assert!(p
            .func
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .all(|o| o.sem != mcc_machine::Semantic::Call));
    }

    #[test]
    fn microop_hint_recorded_but_inlined() {
        let p = c("DECLARE X FIXED; \
                   BUMP: OPERATOR ACCEPTS (A) RETURNS (B); MICROOP BUMP 3 0; B = A + 1; END; \
                   X = BUMP(X);");
        assert_eq!(p.hints, vec!["BUMP".to_string()]);
    }

    #[test]
    fn paper_stack_type_compiles() {
        // The §2.2.2 extension-statement example, our surface syntax.
        let src = "
TYPE STACK
  DECLARE STK(16) FIXED;
  DECLARE STKPTR FIXED;
  INITIALLY DO; STKPTR = 0; END;
  PUSH: OPERATION ACCEPTS (VALUE);
    IF STKPTR = 16 THEN ERROR;
    ELSE DO; STKPTR = STKPTR + 1; STK(STKPTR) = VALUE; END;
  END;
  POP: OPERATION RETURNS (VALUE);
    IF STKPTR = 0 THEN ERROR;
    ELSE DO; VALUE = STK(STKPTR); STKPTR = STKPTR - 1; END;
  END;
ENDTYPE;
DECLARE ADDRESS_STK STACK;
DECLARE X FIXED;
DECLARE Y FIXED;
X = 42;
PUSH(ADDRESS_STK, X);
Y = POP(ADDRESS_STK);
";
        let p = c(src);
        p.func.validate().unwrap();
        assert!(p.globals.contains_key("ADDRESS_STK.STKPTR"));
        assert!(p.arrays.contains_key("ADDRESS_STK.STK"));
    }

    #[test]
    fn multiply_expands_to_loop() {
        let p = c("DECLARE X FIXED; DECLARE Y FIXED; DECLARE Z FIXED; \
                   X = 6; Y = 7; Z = X * Y;");
        // A loop appeared: several blocks.
        assert!(p.func.blocks.len() >= 5);
        p.func.validate().unwrap();
    }

    #[test]
    fn divide_expands_with_zero_check() {
        let p = c("DECLARE X FIXED; DECLARE Y FIXED; DECLARE Z FIXED; \
                   X = 42; Y = 6; Z = X / Y;");
        assert!(p.func.blocks.len() >= 8);
        p.func.validate().unwrap();
    }

    #[test]
    fn error_statement_sets_flag_and_halts() {
        let p = c("DECLARE X FIXED; ERROR; X = 1;");
        p.func.validate().unwrap();
    }

    #[test]
    fn field_encapsulation_outside_type_fails() {
        // STKPTR is not visible outside the operations.
        let r = compile(
            "TYPE T DECLARE F FIXED; ENDTYPE; DECLARE I T; DECLARE X FIXED; X = F;",
        );
        assert!(r.is_err());
    }

    #[test]
    fn undefined_label_reported() {
        let r = compile("DECLARE X FIXED; GOTO NOWHERE;");
        assert!(r.unwrap_err().message.contains("never defined"));
    }

    #[test]
    fn first_referenced_undefined_label_is_reported() {
        let src = "GOTO ALPHA; GOTO BETA; GOTO GAMMA;";
        let messages: std::collections::BTreeSet<String> =
            (0..50).map(|_| compile(src).unwrap_err().message).collect();
        assert_eq!(messages.len(), 1, "{messages:?}");
        assert!(
            messages.iter().all(|msg| msg.contains("`ALPHA`")),
            "{messages:?}"
        );
    }

    #[test]
    fn unary_and_shift_forms() {
        let p = c("DECLARE X FIXED; DECLARE Y FIXED; X = -Y; Y = NOT X; X = Y SHL 3;");
        assert_eq!(p.func.op_count(), 1 + 3);
    }
}
