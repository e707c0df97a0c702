//! # `mcc-verify` — firmware verification
//!
//! §2.1.1 of Sint's survey: "verification of microprograms has received
//! more attention than verification of macroprograms … microprograms are
//! small and simple in comparison with macroprograms. The first two facts
//! make verification attractive; the last one makes it feasible as well."
//! This crate supplies the verification machinery of Strum and the S\*
//! design: a bitvector expression/predicate language, Hoare triples over
//! straight-line assignment sequences via **weakest preconditions**, and a
//! checker that is *exhaustive* for small state spaces and randomised for
//! large ones.
//!
//! The semantics is width-parametric, so S\*'s instantiation story — the
//! `INC X` rule specialised to a 16-bit machine must account for overflow —
//! falls out naturally:
//!
//! ```
//! use mcc_verify::{check_triple, parse_pred, Assign, Expr, Verdict};
//!
//! // { X = 32767 } INC X { X = -32768 }  (as unsigned 16-bit: 32768)
//! let pre = parse_pred("x = 32767").unwrap();
//! let post = parse_pred("x = 32768").unwrap();
//! let inc = Assign::new("x", Expr::add(Expr::var("x"), Expr::konst(1)));
//! assert_eq!(check_triple(&pre, &[inc], &post, 16), Verdict::Valid);
//! ```

use std::collections::{BTreeMap, BTreeSet};

use mcc_lang::{Case, Comments, DepthGuard, FrontendLimits, Lexer, Span, Syntax, Tok, RELATIONS};

/// Binary bitvector operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (amount taken mod width from the rhs value).
    Shl,
    /// Logical shift right.
    Shr,
}

/// A bitvector expression.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A constant.
    Const(u64),
    /// A named variable.
    Var(String),
    /// A binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Bitwise complement.
    Not(Box<Expr>),
}

// Constructor shorthands share names with `std::ops` trait methods on
// purpose: `Expr::add(a, b)` builds syntax, it does not compute.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// A constant.
    pub fn konst(v: u64) -> Expr {
        Expr::Const(v)
    }

    /// A variable.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// `a + b`.
    pub fn add(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Add, Box::new(a), Box::new(b))
    }

    /// `a - b`.
    pub fn sub(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Sub, Box::new(a), Box::new(b))
    }

    /// `a & b`.
    pub fn and(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::And, Box::new(a), Box::new(b))
    }

    /// `a | b`.
    pub fn or(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Or, Box::new(a), Box::new(b))
    }

    /// `a ^ b`.
    pub fn xor(a: Expr, b: Expr) -> Expr {
        Expr::Bin(BinOp::Xor, Box::new(a), Box::new(b))
    }

    /// `a << n`.
    pub fn shl(a: Expr, n: u64) -> Expr {
        Expr::Bin(BinOp::Shl, Box::new(a), Box::new(Expr::Const(n)))
    }

    /// `a >> n`.
    pub fn shr(a: Expr, n: u64) -> Expr {
        Expr::Bin(BinOp::Shr, Box::new(a), Box::new(Expr::Const(n)))
    }

    /// Evaluates under `env`, wrapping to `width` bits. Unbound variables
    /// evaluate to 0.
    pub fn eval(&self, env: &BTreeMap<String, u64>, width: u16) -> u64 {
        let mask = mask(width);
        match self {
            Expr::Const(v) => v & mask,
            Expr::Var(n) => env.get(n).copied().unwrap_or(0) & mask,
            Expr::Not(e) => !e.eval(env, width) & mask,
            Expr::Bin(op, a, b) => {
                let a = a.eval(env, width);
                let b = b.eval(env, width);
                let r = match op {
                    BinOp::Add => a.wrapping_add(b),
                    BinOp::Sub => a.wrapping_sub(b),
                    BinOp::And => a & b,
                    BinOp::Or => a | b,
                    BinOp::Xor => a ^ b,
                    BinOp::Shl => {
                        if b >= width as u64 {
                            0
                        } else {
                            a << b
                        }
                    }
                    BinOp::Shr => {
                        if b >= width as u64 {
                            0
                        } else {
                            a >> b
                        }
                    }
                };
                r & mask
            }
        }
    }

    /// Substitutes `expr` for every occurrence of `var`.
    pub fn subst(&self, var: &str, expr: &Expr) -> Expr {
        match self {
            Expr::Const(_) => self.clone(),
            Expr::Var(n) if n == var => expr.clone(),
            Expr::Var(_) => self.clone(),
            Expr::Not(e) => Expr::Not(Box::new(e.subst(var, expr))),
            Expr::Bin(op, a, b) => Expr::Bin(
                *op,
                Box::new(a.subst(var, expr)),
                Box::new(b.subst(var, expr)),
            ),
        }
    }

    fn vars_into(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(n) => {
                out.insert(n.clone());
            }
            Expr::Not(e) => e.vars_into(out),
            Expr::Bin(_, a, b) => {
                a.vars_into(out);
                b.vars_into(out);
            }
        }
    }
}

/// Comparison operators (unsigned).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A predicate over bitvector expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// Always true.
    True,
    /// Always false.
    False,
    /// A comparison.
    Cmp(CmpOp, Expr, Expr),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
    /// Disjunction.
    Or(Box<Pred>, Box<Pred>),
    /// Negation.
    Not(Box<Pred>),
    /// Implication.
    Implies(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// `a = b`.
    pub fn eq(a: Expr, b: Expr) -> Pred {
        Pred::Cmp(CmpOp::Eq, a, b)
    }

    /// Conjunction of two predicates.
    pub fn and(a: Pred, b: Pred) -> Pred {
        Pred::And(Box::new(a), Box::new(b))
    }

    /// Implication.
    pub fn implies(a: Pred, b: Pred) -> Pred {
        Pred::Implies(Box::new(a), Box::new(b))
    }

    /// Evaluates the predicate under `env` at `width` bits.
    pub fn eval(&self, env: &BTreeMap<String, u64>, width: u16) -> bool {
        match self {
            Pred::True => true,
            Pred::False => false,
            Pred::Cmp(op, a, b) => {
                let a = a.eval(env, width);
                let b = b.eval(env, width);
                match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                }
            }
            Pred::And(a, b) => a.eval(env, width) && b.eval(env, width),
            Pred::Or(a, b) => a.eval(env, width) || b.eval(env, width),
            Pred::Not(a) => !a.eval(env, width),
            Pred::Implies(a, b) => !a.eval(env, width) || b.eval(env, width),
        }
    }

    /// Substitutes `expr` for `var` everywhere.
    pub fn subst(&self, var: &str, expr: &Expr) -> Pred {
        match self {
            Pred::True | Pred::False => self.clone(),
            Pred::Cmp(op, a, b) => Pred::Cmp(*op, a.subst(var, expr), b.subst(var, expr)),
            Pred::And(a, b) => Pred::And(
                Box::new(a.subst(var, expr)),
                Box::new(b.subst(var, expr)),
            ),
            Pred::Or(a, b) => Pred::Or(
                Box::new(a.subst(var, expr)),
                Box::new(b.subst(var, expr)),
            ),
            Pred::Not(a) => Pred::Not(Box::new(a.subst(var, expr))),
            Pred::Implies(a, b) => Pred::Implies(
                Box::new(a.subst(var, expr)),
                Box::new(b.subst(var, expr)),
            ),
        }
    }

    /// All variables mentioned.
    pub fn vars(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.vars_into(&mut out);
        out
    }

    fn vars_into(&self, out: &mut BTreeSet<String>) {
        match self {
            Pred::True | Pred::False => {}
            Pred::Cmp(_, a, b) => {
                a.vars_into(out);
                b.vars_into(out);
            }
            Pred::And(a, b) | Pred::Or(a, b) | Pred::Implies(a, b) => {
                a.vars_into(out);
                b.vars_into(out);
            }
            Pred::Not(a) => a.vars_into(out),
        }
    }
}

/// One assignment `var := expr` of a straight-line segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assign {
    /// The assigned variable.
    pub var: String,
    /// The right-hand side.
    pub expr: Expr,
}

impl Assign {
    /// Creates an assignment.
    pub fn new(var: impl Into<String>, expr: Expr) -> Self {
        Assign {
            var: var.into(),
            expr,
        }
    }
}

/// The weakest precondition of a straight-line assignment sequence with
/// respect to `post`: substitute backwards, Hoare/Dijkstra style.
pub fn wp(assigns: &[Assign], post: &Pred) -> Pred {
    let mut p = post.clone();
    for a in assigns.iter().rev() {
        p = p.subst(&a.var, &a.expr);
    }
    p
}

/// Outcome of a validity check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Exhaustively proven valid.
    Valid,
    /// No counterexample among the random samples (state space too big
    /// for exhaustion).
    ProbablyValid {
        /// How many assignments were sampled.
        samples: u64,
    },
    /// A counterexample was found.
    Invalid {
        /// The falsifying assignment.
        env: BTreeMap<String, u64>,
    },
}

/// Budget: exhaust at most this many environments before sampling.
const EXHAUSTIVE_LIMIT: u128 = 1 << 20;
/// Random samples when exhausting is infeasible.
const SAMPLES: u64 = 20_000;

/// Checks whether `p` holds for **all** variable assignments at `width`
/// bits: exhaustively when the state space is small, by seeded random
/// sampling otherwise.
pub fn check_valid(p: &Pred, width: u16) -> Verdict {
    let vars: Vec<String> = p.vars().into_iter().collect();
    let space: u128 = (1u128 << width.min(64)).saturating_pow(vars.len() as u32);
    if vars.is_empty() {
        return if p.eval(&BTreeMap::new(), width) {
            Verdict::Valid
        } else {
            Verdict::Invalid {
                env: BTreeMap::new(),
            }
        };
    }
    if space <= EXHAUSTIVE_LIMIT {
        let n = 1u64 << width;
        let mut idx = vec![0u64; vars.len()];
        loop {
            let env: BTreeMap<String, u64> = vars
                .iter()
                .cloned()
                .zip(idx.iter().copied())
                .collect();
            if !p.eval(&env, width) {
                return Verdict::Invalid { env };
            }
            // Odometer increment.
            let mut k = 0;
            loop {
                if k == idx.len() {
                    return Verdict::Valid;
                }
                idx[k] += 1;
                if idx[k] < n {
                    break;
                }
                idx[k] = 0;
                k += 1;
            }
        }
    }
    // Random sampling with a fixed-seed xorshift (deterministic runs).
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mask = mask(width);
    // Bias toward boundary values, which is where bitvector identities die.
    let boundary = [0u64, 1, 2, mask, mask - 1, mask >> 1, (mask >> 1) + 1];
    for i in 0..SAMPLES {
        let env: BTreeMap<String, u64> = vars
            .iter()
            .map(|v| {
                let x = if i % 4 == 0 {
                    boundary[(next() % boundary.len() as u64) as usize]
                } else {
                    next() & mask
                };
                (v.clone(), x)
            })
            .collect();
        if !p.eval(&env, width) {
            return Verdict::Invalid { env };
        }
    }
    Verdict::ProbablyValid { samples: SAMPLES }
}

/// Checks the Hoare triple `{pre} assigns {post}` at `width` bits by
/// validity of `pre ⇒ wp(assigns, post)`.
pub fn check_triple(pre: &Pred, assigns: &[Assign], post: &Pred, width: u16) -> Verdict {
    let goal = Pred::implies(pre.clone(), wp(assigns, post));
    check_valid(&goal, width)
}

fn mask(width: u16) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

// --------------------------------------------------------------- parser --

/// The predicate language's tokens: no comments, identifiers fold to
/// lowercase, and only the grammar's operators are symbols.
const SYNTAX: Syntax = Syntax {
    comments: Comments::None,
    case: Case::Lower,
    multi: &["=>", "<>", "<=", ">=", "<<", ">>"],
    single: Some("=<>~&|^+-()"),
};

/// Parses a predicate, e.g. `x + 1 = y and (z < 3 or not (y = 0))`.
///
/// Grammar (loosest binding first): `=>` (implies), `or`, `and`, `not`,
/// comparisons `= <> < <= > >=`, then expressions with `+ -` over
/// `& | ^ << >>` over atoms (numbers, identifiers, `~atom`, parens).
///
/// # Errors
///
/// Returns a message describing the first syntax error, or the limit of
/// `FrontendLimits::default()` the text exceeds.
pub fn parse_pred(src: &str) -> Result<Pred, String> {
    parse_pred_with_limits(src, &FrontendLimits::default())
}

/// [`parse_pred`] under the caller's token budget and nesting depth, so
/// predicate text embedded in a program obeys the program's limits.
///
/// # Errors
///
/// Returns a message describing the first syntax error or exceeded limit.
pub fn parse_pred_with_limits(src: &str, limits: &FrontendLimits) -> Result<Pred, String> {
    PParser::new(src, limits)?.whole(PParser::implies)
}

/// Parses an expression, e.g. `(x & 255) << 8`, under
/// `FrontendLimits::default()`.
///
/// # Errors
///
/// Returns a message describing the first syntax error or exceeded limit.
pub fn parse_expr(src: &str) -> Result<Expr, String> {
    PParser::new(src, &FrontendLimits::default())?.whole(PParser::expr)
}

struct PParser<'a> {
    toks: Vec<Tok<'a>>,
    pos: usize,
    depth: DepthGuard,
}

impl<'a> PParser<'a> {
    /// Lexes all of `src` before parsing any of it, so a bad number or a
    /// stray character is reported ahead of any syntax error.
    fn new(src: &'a str, limits: &FrontendLimits) -> Result<Self, String> {
        let mut lx = Lexer::new(src, &SYNTAX, limits).map_err(|d| d.message)?;
        let mut toks = Vec::new();
        while *lx.tok() != Tok::Eof {
            toks.push(lx.tok().clone());
            lx.advance().map_err(|d| d.message)?;
        }
        Ok(PParser {
            toks,
            pos: 0,
            depth: DepthGuard::new(limits),
        })
    }

    /// Runs `parse`, which must consume every token.
    fn whole<T>(mut self, parse: fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
        let v = parse(&mut self)?;
        if self.pos != self.toks.len() {
            return Err(format!("trailing input at token {}", self.pos));
        }
        Ok(v)
    }

    /// Runs a recursive production one level deeper, under the depth
    /// guard.
    fn nested<T>(&mut self, parse: fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
        self.depth.enter(Span::default()).map_err(|d| d.message)?;
        let r = parse(self);
        self.depth.leave();
        r
    }

    fn peek(&self) -> Option<&Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_sym(&self, s: &str) -> bool {
        matches!(self.peek(), Some(Tok::Sym(x)) if *x == s)
    }

    fn eat_sym(&mut self, s: &str) -> bool {
        let hit = self.peek_sym(s);
        self.pos += usize::from(hit);
        hit
    }

    fn eat_ident(&mut self, w: &str) -> bool {
        let hit = matches!(self.peek(), Some(Tok::Ident(x)) if x == w);
        self.pos += usize::from(hit);
        hit
    }

    fn implies(&mut self) -> Result<Pred, String> {
        let a = self.disj()?;
        if self.eat_sym("=>") {
            let b = self.nested(Self::implies)?;
            return Ok(Pred::Implies(Box::new(a), Box::new(b)));
        }
        Ok(a)
    }

    fn disj(&mut self) -> Result<Pred, String> {
        let mut a = self.conj()?;
        while self.eat_ident("or") {
            let b = self.conj()?;
            a = Pred::Or(Box::new(a), Box::new(b));
        }
        Ok(a)
    }

    fn conj(&mut self) -> Result<Pred, String> {
        let mut a = self.negp()?;
        while self.eat_ident("and") {
            let b = self.negp()?;
            a = Pred::And(Box::new(a), Box::new(b));
        }
        Ok(a)
    }

    fn negp(&mut self) -> Result<Pred, String> {
        if self.eat_ident("not") {
            return Ok(Pred::Not(Box::new(self.nested(Self::negp)?)));
        }
        if self.eat_ident("true") {
            return Ok(Pred::True);
        }
        if self.eat_ident("false") {
            return Ok(Pred::False);
        }
        // Parenthesised predicate? Try with backtracking. A failed attempt
        // may have left the guard deeper (its errors skip `leave`), so the
        // guard goes back with the position.
        if self.peek_sym("(") {
            let save = (self.pos, self.depth.clone());
            self.pos += 1;
            if let Ok(p) = self.nested(Self::implies) {
                // Could still be an expression used in a comparison —
                // only if a relop follows; predicates are not operands.
                if self.eat_sym(")") && !RELATIONS.iter().any(|r| self.peek_sym(r)) {
                    return Ok(p);
                }
            }
            (self.pos, self.depth) = save;
        }
        self.cmp()
    }

    fn cmp(&mut self) -> Result<Pred, String> {
        let a = self.expr()?;
        let op = match self.peek() {
            Some(Tok::Sym(s)) => match *s {
                "=" => CmpOp::Eq,
                "<>" => CmpOp::Ne,
                "<" => CmpOp::Lt,
                "<=" => CmpOp::Le,
                ">" => CmpOp::Gt,
                ">=" => CmpOp::Ge,
                _ => return Err(format!("expected relational operator, got `{s}`")),
            },
            other => return Err(format!("expected relational operator, got {other:?}")),
        };
        self.pos += 1;
        let b = self.expr()?;
        Ok(Pred::Cmp(op, a, b))
    }

    fn expr(&mut self) -> Result<Expr, String> {
        let mut a = self.term()?;
        loop {
            if self.eat_sym("+") {
                a = Expr::add(a, self.term()?);
            } else if self.eat_sym("-") {
                a = Expr::sub(a, self.term()?);
            } else {
                return Ok(a);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, String> {
        let mut a = self.atom()?;
        loop {
            if self.eat_sym("&") {
                a = Expr::and(a, self.atom()?);
            } else if self.eat_sym("|") {
                a = Expr::or(a, self.atom()?);
            } else if self.eat_sym("^") {
                a = Expr::xor(a, self.atom()?);
            } else if self.eat_sym("<<") {
                let n = self.number()?;
                a = Expr::shl(a, n);
            } else if self.eat_sym(">>") {
                let n = self.number()?;
                a = Expr::shr(a, n);
            } else {
                return Ok(a);
            }
        }
    }

    fn number(&mut self) -> Result<u64, String> {
        match self.peek() {
            Some(&Tok::Num(v)) => {
                self.pos += 1;
                Ok(v)
            }
            other => Err(format!("expected number, got {other:?}")),
        }
    }

    fn atom(&mut self) -> Result<Expr, String> {
        let e = match self.peek() {
            Some(&Tok::Num(v)) => Expr::Const(v),
            Some(Tok::Ident(w)) => Expr::Var(w.clone()),
            Some(Tok::Sym("~")) => {
                self.pos += 1;
                return Ok(Expr::Not(Box::new(self.nested(Self::atom)?)));
            }
            Some(Tok::Sym("(")) => {
                self.pos += 1;
                return self.nested(Self::paren_expr);
            }
            other => return Err(format!("expected expression atom, got {other:?}")),
        };
        self.pos += 1;
        Ok(e)
    }

    /// The rest of `( expr )` after its `(`.
    fn paren_expr(&mut self) -> Result<Expr, String> {
        let e = self.expr()?;
        if !self.eat_sym(")") {
            return Err("missing `)`".into());
        }
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn expr_eval_wraps() {
        let e = Expr::add(Expr::var("x"), Expr::konst(1));
        assert_eq!(e.eval(&env(&[("x", 0xFFFF)]), 16), 0);
        assert_eq!(e.eval(&env(&[("x", 0xFFFF)]), 32), 0x10000);
    }

    #[test]
    fn pred_eval_and_subst() {
        let p = parse_pred("x + 1 = y").unwrap();
        assert!(p.eval(&env(&[("x", 4), ("y", 5)]), 16));
        assert!(!p.eval(&env(&[("x", 4), ("y", 6)]), 16));
        let q = p.subst("y", &Expr::konst(5));
        assert!(q.eval(&env(&[("x", 4)]), 16));
    }

    #[test]
    fn parser_precedence() {
        let p = parse_pred("x = 0 and y = 1 or z = 2").unwrap();
        // (and) binds tighter than (or)
        assert!(matches!(p, Pred::Or(_, _)));
        let p = parse_pred("x = 0 => y = 1").unwrap();
        assert!(matches!(p, Pred::Implies(_, _)));
        let p = parse_pred("not (x = 0)").unwrap();
        assert!(matches!(p, Pred::Not(_)));
    }

    #[test]
    fn parser_expressions() {
        let e = parse_expr("(x & 255) << 8").unwrap();
        assert_eq!(e.eval(&env(&[("x", 0x3FF)]), 16), 0xFF00);
        let e = parse_expr("~x & 15").unwrap();
        assert_eq!(e.eval(&env(&[("x", 0)]), 16), 15);
    }

    #[test]
    fn wp_substitutes_backwards() {
        // { ? } x := x + 1; y := x { y = 5 }  →  wp = (x+1 = 5)
        let assigns = vec![
            Assign::new("x", parse_expr("x + 1").unwrap()),
            Assign::new("y", parse_expr("x").unwrap()),
        ];
        let post = parse_pred("y = 5").unwrap();
        let got = wp(&assigns, &post);
        let want = parse_pred("x + 1 = 5").unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn triple_valid_exhaustive() {
        // { x < 10 } x := x + 1 { x < 11 } at 8 bits: exhaustive.
        let pre = parse_pred("x < 10").unwrap();
        let post = parse_pred("x < 11").unwrap();
        let a = vec![Assign::new("x", parse_expr("x + 1").unwrap())];
        assert_eq!(check_triple(&pre, &a, &post, 8), Verdict::Valid);
    }

    #[test]
    fn triple_invalid_finds_counterexample() {
        // { true } x := x + 1 { x > 0 } fails at x = max (wraps to 0).
        let pre = Pred::True;
        let post = parse_pred("x > 0").unwrap();
        let a = vec![Assign::new("x", parse_expr("x + 1").unwrap())];
        match check_triple(&pre, &a, &post, 8) {
            Verdict::Invalid { env } => assert_eq!(env["x"], 0xFF),
            v => panic!("expected Invalid, got {v:?}"),
        }
    }

    #[test]
    fn inc_overflow_rule_from_the_paper() {
        // S* instantiation: {X = 32767} INC X {X = 32768} at 16 bits
        // (the "-32768" of the paper in two's complement).
        let pre = parse_pred("x = 32767").unwrap();
        let post = parse_pred("x = 32768").unwrap();
        let inc = vec![Assign::new("x", parse_expr("x + 1").unwrap())];
        assert_eq!(check_triple(&pre, &inc, &post, 16), Verdict::Valid);
        // And the naive rule {X = v} INC X {X = v + 1 with v+1 unbounded}
        // is NOT valid as an inequality claim x > 32767 → false at wrap:
        let bad_post = parse_pred("x > 32767").unwrap();
        let pre_any = Pred::True;
        assert!(matches!(
            check_triple(&pre_any, &inc, &bad_post, 16),
            Verdict::Invalid { .. }
        ));
    }

    #[test]
    fn swap_by_xor_is_verified() {
        // The classic: x ^= y; y ^= x; x ^= y swaps.
        let a = vec![
            Assign::new("x", parse_expr("x ^ y").unwrap()),
            Assign::new("y", parse_expr("y ^ x").unwrap()),
            Assign::new("x", parse_expr("x ^ y").unwrap()),
        ];
        let pre = parse_pred("x = a and y = b").unwrap();
        let post = parse_pred("x = b and y = a").unwrap();
        // 4 variables × 8 bits = 2^32 states — sampled.
        match check_triple(&pre, &a, &post, 8) {
            Verdict::ProbablyValid { .. } | Verdict::Valid => {}
            v => panic!("{v:?}"),
        }
        // 4 variables × 4 bits = 65536 states — exhausted.
        assert_eq!(check_triple(&pre, &a, &post, 4), Verdict::Valid);
    }

    #[test]
    fn sampling_finds_shallow_bugs() {
        // x & 1 = 1 is falsified immediately by sampling at 32 bits.
        let p = parse_pred("x & 1 = 1").unwrap();
        assert!(matches!(check_valid(&p, 32), Verdict::Invalid { .. }));
    }

    #[test]
    fn no_vars_is_decided_directly() {
        assert_eq!(check_valid(&parse_pred("1 < 2").unwrap(), 16), Verdict::Valid);
        assert!(matches!(
            check_valid(&parse_pred("2 < 1").unwrap(), 16),
            Verdict::Invalid { .. }
        ));
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_pred("x +").is_err());
        assert!(parse_pred("x = ").is_err());
        assert!(parse_expr("(x").is_err());
        // Lexing finishes before parsing starts.
        assert_eq!(parse_pred("x = 1 and").unwrap_err(), "expected expression atom, got None");
        assert_eq!(parse_pred("x = and 9z").unwrap_err(), "bad number `9z`");
        assert_eq!(parse_pred("x = # 1").unwrap_err(), "unexpected character `#`");
        assert_eq!(parse_pred("x = 1 y").unwrap_err(), "trailing input at token 3");
        assert_eq!(parse_pred("X = 1"), parse_pred("x = 1"), "identifiers fold to lowercase");
        assert_eq!(
            parse_pred("x y").unwrap_err(),
            r#"expected relational operator, got Some(Ident("y"))"#
        );
    }

    /// Every recursive production enters the depth guard, so no predicate
    /// can exhaust the native stack.
    #[test]
    fn deep_predicates_hit_the_depth_guard() {
        let deep = [
            format!("{}(x = 3)", "not ".repeat(200_000)),
            format!("x = 1{}", " => x = 1".repeat(100_000)),
            format!("{}x = 3", "~".repeat(100_000)),
            format!("{}x = 3{}", "(".repeat(100_000), ")".repeat(100_000)),
        ];
        for src in &deep {
            assert_eq!(
                parse_pred(src).unwrap_err(),
                "nesting deeper than 64 levels",
                "{}…",
                &src[..40]
            );
        }
    }

    #[test]
    fn depth_and_token_limits_come_from_the_caller() {
        let limits = FrontendLimits {
            max_depth: 2,
            ..FrontendLimits::default()
        };
        let parse = |src: &str| parse_pred_with_limits(src, &limits);
        for ok in ["not not x = 1", "((x = 1))", "(~x) = 1", "(x) = 1 => y = 1 => z = 1"] {
            assert!(parse(ok).is_ok(), "{ok}: {:?}", parse(ok));
        }
        for deep in ["not not not x = 1", "(((x = 1)))", "~~~x = 1", "a = 1 => b = 1 => c = 1 => d = 1"] {
            assert_eq!(parse(deep).unwrap_err(), "nesting deeper than 2 levels", "{deep}");
        }
        // Parenthesised attempts that fail fall back without using up depth.
        assert!(parse("((x)) = 1 and ((y)) = 2 and not not z = 3").is_ok());
        let budget = FrontendLimits {
            max_tokens: 3,
            ..FrontendLimits::default()
        };
        assert_eq!(parse_pred_with_limits("x = 1", &budget).unwrap_err(), "token budget exceeded");
    }
}
