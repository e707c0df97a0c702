//! EMPL token table, AST and parser.
//!
//! EMPL is PL/I-flavoured: uppercase-insensitive keywords, `/* … */`
//! comments, statements terminated by `;`, `DO; … END;` groups.

use mcc_lang::{Case, Comments, DepthGuard, Diagnostic, FrontendLimits, Lexer, Syntax, Tok};
use mcc_machine::ShiftOp;

// ----------------------------------------------------------------- tokens --

/// EMPL's tokens: `/* … */` comments, identifiers folded to uppercase (the
/// keywords are case-insensitive), and any other character is a symbol.
const SYNTAX: Syntax = Syntax {
    comments: Comments::Block("/*", "*/"),
    case: Case::Upper,
    multi: &["<>", "<=", ">="],
    single: None,
};

// -------------------------------------------------------------------- AST --

/// A simple operand: variable or number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Atom {
    /// A named variable (or formal parameter).
    Var(String),
    /// A literal.
    Num(u64),
}

/// A right-hand side — EMPL expressions contain at most one operator.
#[derive(Debug, Clone, PartialEq)]
pub enum Rhs {
    /// A bare operand.
    Atom(Atom),
    /// `a <op> b` with `op` ∈ `+ - * / & | ^`, `^` written `XOR`.
    Bin(String, Atom, Atom),
    /// `-a`, `NOT a`.
    Un(String, Atom),
    /// `a SHL n` etc.
    Shift(ShiftOp, Atom, u64),
    /// `ARR(i)` — array element read.
    ArrGet(String, Atom),
    /// `OPNAME(args…)` — user operator invocation.
    OpCall(String, Vec<Atom>),
}

/// Assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum Lhs {
    /// A scalar variable.
    Var(String),
    /// `ARR(i)`.
    Arr(String, Atom),
}

/// A comparison `a relop b`.
#[derive(Debug, Clone, PartialEq)]
pub struct Cond {
    /// Left operand.
    pub a: Atom,
    /// `= <> < <= > >=`.
    pub rel: String,
    /// Right operand.
    pub b: Atom,
}

/// An EMPL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `lhs = rhs;`
    Assign(Lhs, Rhs),
    /// `IF c THEN s; [ELSE s;]`
    If(Cond, Box<Stmt>, Option<Box<Stmt>>),
    /// `WHILE c DO; … END;`
    While(Cond, Vec<Item>),
    /// `DO; … END;`
    Do(Vec<Item>),
    /// `GOTO label;`
    Goto(String),
    /// `CALL proc;` or an operation invocation statement `P(args);`
    Call(String, Vec<Atom>),
    /// `RETURN;`
    Return,
    /// `ERROR;` — abort with the error flag set.
    Error,
    /// `;`
    Empty,
}

/// A labelled or plain statement in a statement list.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// `label:` prefix.
    Label(String),
    /// The statement.
    Stmt(Stmt),
}

/// A user operator / operation declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorDef {
    /// Name.
    pub name: String,
    /// `ACCEPTS (…)` formals.
    pub accepts: Vec<String>,
    /// `RETURNS (…)` formal, if any.
    pub returns: Option<String>,
    /// `MICROOP name …;` hardware hint, if any.
    pub hint: Option<String>,
    /// Body statements.
    pub body: Vec<Item>,
}

/// A field of a TYPE declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Field {
    /// `DECLARE F FIXED;`
    Scalar(String),
    /// `DECLARE F(n) FIXED;`
    Array(String, u64),
}

/// A `TYPE … ENDTYPE` extension statement (the SIMULA-class analogue).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDef {
    /// Type name.
    pub name: String,
    /// Instance fields.
    pub fields: Vec<Field>,
    /// `INITIALLY DO; … END;` body.
    pub initially: Vec<Item>,
    /// Operations declared inside the type.
    pub operations: Vec<OperatorDef>,
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `DECLARE X FIXED;`
    Scalar(String),
    /// `DECLARE A(n) FIXED;`
    Array(String, u64),
    /// `DECLARE S T;` — instance of a user type.
    Instance(String, String),
}

/// A `name: PROCEDURE; … END;` declaration (parameterless, per §2.2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct ProcDef {
    /// Name.
    pub name: String,
    /// Body.
    pub body: Vec<Item>,
}

/// A whole EMPL compilation unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    /// Global declarations, in order.
    pub decls: Vec<Decl>,
    /// Type definitions.
    pub types: Vec<TypeDef>,
    /// Free-standing operators.
    pub operators: Vec<OperatorDef>,
    /// Procedures.
    pub procs: Vec<ProcDef>,
    /// The main program: top-level statements in order.
    pub main: Vec<Item>,
}

// ------------------------------------------------------------------ parser --

pub struct Parser<'a> {
    lx: Lexer<'a>,
    /// `NAME :` declaration header discovered by lookahead in `module()`,
    /// consumed by the next `stmt_item`.
    pending_decl: Option<String>,
    /// One guard shared by `stmt` (IF-THEN chains) and
    /// `stmt_list_until_end` (DO/WHILE groups, nested procedure bodies):
    /// what matters is the cumulative native stack, not either path alone.
    depth: DepthGuard,
}

impl<'a> Parser<'a> {
    pub fn new(src: &'a str, limits: &FrontendLimits) -> Result<Self, Diagnostic> {
        Ok(Parser {
            lx: Lexer::new(src, &SYNTAX, limits)?,
            pending_decl: None,
            depth: DepthGuard::new(limits),
        })
    }

    fn atom(&mut self) -> Result<Atom, Diagnostic> {
        match self.lx.tok().clone() {
            Tok::Num(v) => {
                self.lx.advance()?;
                Ok(Atom::Num(v))
            }
            Tok::Ident(w) => {
                self.lx.advance()?;
                Ok(Atom::Var(w))
            }
            _ => Err(self.lx.diag("expected variable or number")),
        }
    }

    /// Parses the whole module.
    pub fn module(&mut self) -> Result<Module, Diagnostic> {
        let mut m = Module::default();
        loop {
            if matches!(self.lx.tok(), Tok::Eof) {
                break;
            }
            if self.lx.kw("DECLARE")? {
                self.declare(&mut m.decls)?;
                continue;
            }
            if self.lx.kw("TYPE")? {
                m.types.push(self.type_def()?);
                continue;
            }
            // `name: PROCEDURE;` / `name: OPERATOR …` / `label:` / stmt
            if matches!(self.lx.tok(), Tok::Ident(_)) && self.is_decl_header()? {
                // consumed `name :` and the keyword
                continue;
            }
            // Plain statement (possibly labelled — handled inside).
            let items = self.stmt_item(&mut m)?;
            m.main.extend(items);
        }
        Ok(m)
    }

    /// If the input starts `NAME : PROCEDURE|OPERATOR|OPERATION`, parses
    /// the declaration into the module (stored via the pending slot) and
    /// returns true. This needs two tokens of lookahead, done with a
    /// lexer mark.
    fn is_decl_header(&mut self) -> Result<bool, Diagnostic> {
        let save = self.lx.save();
        let name = match self.lx.ident() {
            Ok(n) => n,
            Err(_) => {
                self.lx.restore(save);
                return Ok(false);
            }
        };
        if !self.lx.sym(":")? {
            self.lx.restore(save);
            return Ok(false);
        }
        if ["PROCEDURE", "OPERATOR", "OPERATION"]
            .iter()
            .any(|k| self.lx.peek_kw(k))
        {
            self.pending_decl = Some(name);
            Ok(true)
        } else {
            self.lx.restore(save);
            Ok(false)
        }
    }

    fn declare(&mut self, decls: &mut Vec<Decl>) -> Result<(), Diagnostic> {
        loop {
            let name = self.lx.ident()?;
            if self.lx.sym("(")? {
                let n = match *self.lx.tok() {
                    Tok::Num(v) => v,
                    _ => return Err(self.lx.diag("expected array size")),
                };
                self.lx.advance()?;
                self.lx.expect_sym(")")?;
                self.lx.expect_kw("FIXED")?;
                decls.push(Decl::Array(name, n));
            } else if self.lx.kw("FIXED")? {
                decls.push(Decl::Scalar(name));
            } else {
                // Instance of a user type.
                let tname = self.lx.ident()?;
                decls.push(Decl::Instance(name, tname));
            }
            if self.lx.sym(",")? {
                continue;
            }
            self.lx.expect_sym(";")?;
            return Ok(());
        }
    }

    fn type_def(&mut self) -> Result<TypeDef, Diagnostic> {
        let name = self.lx.ident()?;
        let mut t = TypeDef {
            name,
            fields: Vec::new(),
            initially: Vec::new(),
            operations: Vec::new(),
        };
        loop {
            if self.lx.kw("ENDTYPE")? {
                let _ = self.lx.sym(";")?;
                return Ok(t);
            }
            if self.lx.kw("DECLARE")? {
                let mut ds = Vec::new();
                self.declare(&mut ds)?;
                for d in ds {
                    match d {
                        Decl::Scalar(n) => t.fields.push(Field::Scalar(n)),
                        Decl::Array(n, k) => t.fields.push(Field::Array(n, k)),
                        Decl::Instance(_, _) => {
                            return Err(self.lx.diag("nested type instances not supported"))
                        }
                    }
                }
                continue;
            }
            if self.lx.kw("INITIALLY")? {
                t.initially = self.do_group_items()?;
                let _ = self.lx.sym(";")?;
                continue;
            }
            // `NAME: OPERATION …`
            let opname = self.lx.ident()?;
            self.lx.expect_sym(":")?;
            if !(self.lx.kw("OPERATION")? || self.lx.kw("OPERATOR")?) {
                return Err(self.lx.diag("expected OPERATION"));
            }
            t.operations.push(self.operator_tail(opname)?);
        }
    }

    /// Parses the remainder of an operator/operation/procedure after
    /// `NAME : KEYWORD` (with the keyword for procedures vs operators
    /// distinguished by the caller).
    fn operator_tail(&mut self, name: String) -> Result<OperatorDef, Diagnostic> {
        let mut def = OperatorDef {
            name,
            accepts: Vec::new(),
            returns: None,
            hint: None,
            body: Vec::new(),
        };
        if self.lx.kw("ACCEPTS")? {
            self.lx.expect_sym("(")?;
            loop {
                def.accepts.push(self.lx.ident()?);
                if !self.lx.sym(",")? {
                    break;
                }
            }
            self.lx.expect_sym(")")?;
        }
        if self.lx.kw("RETURNS")? {
            self.lx.expect_sym("(")?;
            def.returns = Some(self.lx.ident()?);
            self.lx.expect_sym(")")?;
        }
        let _ = self.lx.sym(";")?;
        if self.lx.kw("MICROOP")? {
            let h = self.lx.ident()?;
            // Optional numeric control-word parameters, skipped.
            while matches!(self.lx.tok(), Tok::Num(_)) {
                self.lx.advance()?;
            }
            self.lx.expect_sym(";")?;
            def.hint = Some(h);
        }
        def.body = self.stmt_list_until_end()?;
        let _ = self.lx.sym(";")?;
        Ok(def)
    }

    /// Parses statements up to a closing `END`.
    fn stmt_list_until_end(&mut self) -> Result<Vec<Item>, Diagnostic> {
        self.depth.enter(self.lx.span())?;
        let r = self.stmt_list_until_end_inner();
        self.depth.leave();
        r
    }

    fn stmt_list_until_end_inner(&mut self) -> Result<Vec<Item>, Diagnostic> {
        let mut items = Vec::new();
        let mut dummy = Module::default();
        loop {
            if self.lx.kw("END")? {
                return Ok(items);
            }
            if *self.lx.tok() == Tok::Eof {
                return Err(self.lx.diag("missing END"));
            }
            items.extend(self.stmt_item(&mut dummy)?);
        }
    }

    /// `DO; … END` group.
    fn do_group_items(&mut self) -> Result<Vec<Item>, Diagnostic> {
        self.lx.expect_kw("DO")?;
        self.lx.expect_sym(";")?;
        self.stmt_list_until_end()
    }

    /// One statement (possibly preceded by labels), appending procedure
    /// and operator declarations encountered to `module`.
    fn stmt_item(&mut self, module: &mut Module) -> Result<Vec<Item>, Diagnostic> {
        let mut items = Vec::new();
        // Pending declaration from lookahead in `module()`?
        if let Some(name) = self.pending_decl.take() {
            if self.lx.kw("PROCEDURE")? {
                let _ = self.lx.sym(";")?;
                let body = self.stmt_list_until_end()?;
                let _ = self.lx.sym(";")?;
                module.procs.push(ProcDef { name, body });
                return Ok(items);
            }
            if self.lx.kw("OPERATOR")? || self.lx.kw("OPERATION")? {
                module.operators.push(self.operator_tail(name)?);
                return Ok(items);
            }
            unreachable!("lookahead guaranteed a declaration keyword");
        }
        // Labels: IDENT ':' not followed by PROCEDURE/OPERATOR.
        loop {
            let save = self.lx.save();
            if let Tok::Ident(w) = self.lx.tok().clone() {
                self.lx.advance()?;
                if self.lx.sym(":")? {
                    if self.lx.peek_kw("PROCEDURE") {
                        self.lx.advance()?;
                        let _ = self.lx.sym(";")?;
                        let body = self.stmt_list_until_end()?;
                        let _ = self.lx.sym(";")?;
                        module.procs.push(ProcDef { name: w, body });
                        return Ok(items);
                    }
                    if self.lx.peek_kw("OPERATOR") || self.lx.peek_kw("OPERATION") {
                        self.lx.advance()?;
                        module.operators.push(self.operator_tail(w)?);
                        return Ok(items);
                    }
                    items.push(Item::Label(w));
                    continue;
                }
            }
            self.lx.restore(save);
            break;
        }
        items.push(Item::Stmt(self.stmt()?));
        Ok(items)
    }

    fn cond(&mut self) -> Result<Cond, Diagnostic> {
        let a = self.atom()?;
        let rel = self.lx.rel()?.to_string();
        let b = self.atom()?;
        Ok(Cond { a, rel, b })
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        self.depth.enter(self.lx.span())?;
        let r = self.stmt_inner();
        self.depth.leave();
        r
    }

    fn stmt_inner(&mut self) -> Result<Stmt, Diagnostic> {
        if self.lx.sym(";")? {
            return Ok(Stmt::Empty);
        }
        if self.lx.kw("DO")? {
            self.lx.expect_sym(";")?;
            let body = self.stmt_list_until_end()?;
            let _ = self.lx.sym(";")?;
            return Ok(Stmt::Do(body));
        }
        if self.lx.kw("IF")? {
            let c = self.cond()?;
            self.lx.expect_kw("THEN")?;
            let then_s = Box::new(self.stmt()?);
            let else_s = if self.lx.kw("ELSE")? {
                Some(Box::new(self.stmt()?))
            } else {
                None
            };
            return Ok(Stmt::If(c, then_s, else_s));
        }
        if self.lx.kw("WHILE")? {
            let c = self.cond()?;
            self.lx.expect_kw("DO")?;
            self.lx.expect_sym(";")?;
            let body = self.stmt_list_until_end()?;
            let _ = self.lx.sym(";")?;
            return Ok(Stmt::While(c, body));
        }
        if self.lx.kw("GOTO")? {
            let l = self.lx.ident()?;
            self.lx.expect_sym(";")?;
            return Ok(Stmt::Goto(l));
        }
        if self.lx.kw("CALL")? {
            let p = self.lx.ident()?;
            let mut args = Vec::new();
            if self.lx.sym("(")? {
                loop {
                    args.push(self.atom()?);
                    if !self.lx.sym(",")? {
                        break;
                    }
                }
                self.lx.expect_sym(")")?;
            }
            self.lx.expect_sym(";")?;
            return Ok(Stmt::Call(p, args));
        }
        if self.lx.kw("RETURN")? {
            self.lx.expect_sym(";")?;
            return Ok(Stmt::Return);
        }
        if self.lx.kw("ERROR")? {
            self.lx.expect_sym(";")?;
            return Ok(Stmt::Error);
        }

        // Assignment or invocation: IDENT …
        let name = self.lx.ident()?;
        if self.lx.sym("(")? {
            // `ARR(i) = rhs;` or `OPNAME(args);`
            let first = self.atom()?;
            if self.lx.sym(")")? {
                if self.lx.sym("=")? {
                    let rhs = self.rhs()?;
                    self.lx.expect_sym(";")?;
                    return Ok(Stmt::Assign(Lhs::Arr(name, first), rhs));
                }
                // Single-argument invocation statement.
                self.lx.expect_sym(";")?;
                return Ok(Stmt::Call(name, vec![first]));
            }
            // Multi-argument invocation statement.
            let mut args = vec![first];
            while self.lx.sym(",")? {
                args.push(self.atom()?);
            }
            self.lx.expect_sym(")")?;
            self.lx.expect_sym(";")?;
            return Ok(Stmt::Call(name, args));
        }
        self.lx.expect_sym("=")?;
        let rhs = self.rhs()?;
        self.lx.expect_sym(";")?;
        Ok(Stmt::Assign(Lhs::Var(name), rhs))
    }

    fn rhs(&mut self) -> Result<Rhs, Diagnostic> {
        // Unary forms.
        if self.lx.sym("-")? {
            return Ok(Rhs::Un("-".into(), self.atom()?));
        }
        if self.lx.kw("NOT")? {
            return Ok(Rhs::Un("NOT".into(), self.atom()?));
        }
        // IDENT '(' → array read or operator call.
        if let Tok::Ident(w) = self.lx.tok().clone() {
            let save = self.lx.save();
            self.lx.advance()?;
            if self.lx.sym("(")? {
                let mut args = vec![self.atom()?];
                while self.lx.sym(",")? {
                    args.push(self.atom()?);
                }
                self.lx.expect_sym(")")?;
                if args.len() == 1 {
                    // Disambiguated during lowering (array vs operator).
                    return Ok(Rhs::ArrGet(w, args[0].clone()));
                }
                return Ok(Rhs::OpCall(w, args));
            }
            self.lx.restore(save);
        }
        let a = self.atom()?;
        // Shift forms: `a SHL 3`.
        for (op, name) in ShiftOp::NAMES {
            if self.lx.kw(name)? {
                let n = match *self.lx.tok() {
                    Tok::Num(v) => v,
                    _ => return Err(self.lx.diag("expected shift amount")),
                };
                self.lx.advance()?;
                return Ok(Rhs::Shift(op, a, n));
            }
        }
        if self.lx.kw("XOR")? {
            let b = self.atom()?;
            return Ok(Rhs::Bin("^".into(), a, b));
        }
        for op in ["+", "-", "*", "/", "&", "|"] {
            if self.lx.sym(op)? {
                let b = self.atom()?;
                return Ok(Rhs::Bin(op.to_string(), a, b));
            }
        }
        Ok(Rhs::Atom(a))
    }
}
