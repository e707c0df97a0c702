//! # `mcc-lang` — shared frontend infrastructure
//!
//! Source positions, diagnostics, resource limits and a character cursor
//! used by all four language frontends (SIMPL, EMPL, S\*, YALLL), plus the
//! one token [`Lexer`] of the three token languages. SIMPL, S\* and EMPL
//! lex the same identifiers, numbers and symbols; what differs between
//! them is a constant [`Syntax`] table each frontend declares: comment
//! syntax, identifier case, multi-character symbols and, for SIMPL, a
//! closed set of one-character symbols. The lexer also carries the parser
//! helpers all three share (`kw`, `expect_sym`, `ident`, lookahead
//! marks, …). YALLL reads lines, not tokens, and keeps its own reader.

/// A byte span in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
}

impl Span {
    /// Creates a span.
    pub fn new(start: usize, end: usize) -> Self {
        Span { start, end }
    }

    /// The smallest span covering both.
    pub fn to(self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }
}

/// A diagnostic: message plus location (resolved to line/column on demand).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// What went wrong.
    pub message: String,
    /// Where.
    pub span: Span,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(message: impl Into<String>, span: Span) -> Self {
        Diagnostic {
            message: message.into(),
            span,
        }
    }

    /// Renders the diagnostic against the source as `line:col: message`.
    pub fn render(&self, source: &str) -> String {
        let (line, col) = line_col(source, self.span.start);
        format!("{line}:{col}: {}", self.message)
    }

    /// Renders the diagnostic with a caret-underlined source excerpt:
    ///
    /// ```text
    /// 3:9: expected `->`
    ///    3 | R1 + + R2 -> R3;
    ///      |         ^
    /// ```
    ///
    /// Out-of-range spans (possible when a diagnostic survives a source
    /// edit, or points at end-of-input) degrade to the plain
    /// [`render`](Self::render) form rather than panicking. A line longer
    /// than 160 characters is quoted as a window of at most 160 characters
    /// around the span, with `…` where it is cut.
    pub fn render_excerpt(&self, source: &str) -> String {
        let head = self.render(source);
        let start = self.span.start.min(source.len());
        let (line, col) = line_col(source, start);
        let Some(text) = source.lines().nth(line - 1) else {
            return head;
        };
        // Width of the underline: the span's extent within this line,
        // measured in characters, at least one caret.
        let line_start = source[..start].rfind('\n').map_or(0, |i| i + 1);
        let in_line = start - line_start;
        let line_rest = text.len().saturating_sub(in_line);
        let span_len = self.span.end.saturating_sub(start).clamp(1, line_rest.max(1));
        let carets: usize = text
            .get(in_line..)
            .unwrap_or("")
            .char_indices()
            .take_while(|(i, _)| *i < span_len)
            .count()
            .max(1);
        let (text, at, carets) = window(text, col - 1, carets);
        format!(
            "{head}\n{line:>5} | {text}\n      | {spaces}{carets}",
            spaces = " ".repeat(at),
            carets = "^".repeat(carets),
        )
    }
}

/// The most characters of a source line that
/// [`Diagnostic::render_excerpt`] quotes.
const EXCERPT_CHARS: usize = 160;

/// The part of `text` to quote for a span starting at character `at` and
/// underlined by `carets` carets: the whole line when it is at most
/// [`EXCERPT_CHARS`] characters long, else a window around the span with
/// `…` where it cuts. Returns the quoted text and the caret position and
/// count within it.
fn window(text: &str, at: usize, carets: usize) -> (std::borrow::Cow<'_, str>, usize, usize) {
    let len = text.chars().count();
    if len <= EXCERPT_CHARS {
        return (text.into(), at, carets);
    }
    // Room between two ellipses, centred on the span where the line allows.
    let room = EXCERPT_CHARS - 2;
    let from = at.saturating_sub(room / 2).min(len - room);
    let to = from + room;
    let byte = |c: usize| text.char_indices().nth(c).map_or(text.len(), |(i, _)| i);
    let cut_left = from > 0;
    let mut quoted = String::with_capacity(4 * EXCERPT_CHARS);
    if cut_left {
        quoted.push('…');
    }
    quoted.push_str(&text[byte(from)..byte(to)]);
    if to < len {
        quoted.push('…');
    }
    let at_in = at - from + usize::from(cut_left);
    (
        quoted.into(),
        at_in,
        carets.min(to.saturating_sub(at)).max(1),
    )
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.span.start, self.message)
    }
}

impl std::error::Error for Diagnostic {}

/// 1-based line/column of a byte offset.
pub fn line_col(source: &str, offset: usize) -> (usize, usize) {
    let mut line = 1;
    let mut col = 1;
    for (i, ch) in source.char_indices() {
        if i >= offset {
            break;
        }
        if ch == '\n' {
            line += 1;
            col = 1;
        } else {
            col += 1;
        }
    }
    (line, col)
}

/// A character cursor over source text, with the helpers every
/// hand-written lexer needs.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts at the beginning of `src`.
    pub fn new(src: &'a str) -> Self {
        Cursor { src, pos: 0 }
    }

    /// Current byte position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The full source.
    pub fn source(&self) -> &'a str {
        self.src
    }

    /// Next character without consuming.
    pub fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    /// Consumes and returns the next character.
    pub fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    /// Consumes the literal `s` if it is next (case-sensitive).
    pub fn eat_str(&mut self, s: &str) -> bool {
        if self.src[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    /// Consumes characters while `f` holds, returning the consumed slice.
    pub fn take_while(&mut self, mut f: impl FnMut(char) -> bool) -> &'a str {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if !f(c) {
                break;
            }
            self.bump();
        }
        &self.src[start..self.pos]
    }

    /// Skips ASCII whitespace.
    pub fn skip_ws(&mut self) {
        self.take_while(|c| c.is_whitespace());
    }

    /// Skips whitespace and line comments starting with `marker`.
    pub fn skip_ws_and_line_comments(&mut self, marker: &str) {
        loop {
            self.skip_ws();
            if self.src[self.pos..].starts_with(marker) {
                self.take_while(|c| c != '\n');
            } else {
                break;
            }
        }
    }
}

/// Parses an integer literal in the notations the 1970s languages share:
/// decimal, `0x`/`0o`/`0b` prefixes, and a trailing `H`/`B` suffix form.
pub fn parse_int(text: &str) -> Option<u64> {
    let t = text.trim();
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u64::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = t.strip_prefix("0o").or_else(|| t.strip_prefix("0O")) {
        return u64::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = t.strip_prefix("0b").or_else(|| t.strip_prefix("0B")) {
        return u64::from_str_radix(bin, 2).ok();
    }
    if let Some(hex) = t.strip_suffix('H').or_else(|| t.strip_suffix('h')) {
        if hex.chars().all(|c| c.is_ascii_hexdigit()) {
            return u64::from_str_radix(hex, 16).ok();
        }
    }
    if let Some(bin) = t.strip_suffix('B').or_else(|| t.strip_suffix('b')) {
        if bin.chars().all(|c| c == '0' || c == '1') {
            return u64::from_str_radix(bin, 2).ok();
        }
    }
    t.parse().ok()
}

/// Resource limits every frontend enforces while lexing and parsing, so
/// that arbitrary (including adversarial) input always terminates with a
/// structured [`Diagnostic`] — never a hang, stack overflow, or OOM.
///
/// The limits are deterministic counts, not timeouts: the same input
/// exhausts the same budget on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendLimits {
    /// Largest accepted source text, in bytes.
    pub max_source_bytes: usize,
    /// Token budget: lexing stops with a diagnostic after this many tokens.
    pub max_tokens: usize,
    /// Maximum statement/expression nesting depth in recursive-descent
    /// parsers (bounds native stack use; overflow would abort, not unwind).
    pub max_depth: usize,
}

impl Default for FrontendLimits {
    fn default() -> Self {
        FrontendLimits {
            max_source_bytes: 1 << 20,
            max_tokens: 500_000,
            max_depth: 64,
        }
    }
}

impl FrontendLimits {
    /// Checks the source size budget.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] naming the limit when the text is too large.
    pub fn check_source(&self, src: &str) -> Result<(), Diagnostic> {
        if src.len() > self.max_source_bytes {
            return Err(Diagnostic::new(
                format!(
                    "source of {} bytes exceeds the {}-byte limit",
                    src.len(),
                    self.max_source_bytes
                ),
                Span::new(0, 0),
            ));
        }
        Ok(())
    }
}

/// One token of SIMPL, S\* or EMPL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok<'a> {
    /// An identifier or keyword, folded to the language's [`Case`].
    Ident(String),
    /// A number literal in any [`parse_int`] notation.
    Num(u64),
    /// An operator or punctuation mark, as written in the source.
    Sym(&'a str),
    /// End of input.
    Eof,
}

/// How a language writes comments.
#[derive(Debug, Clone, Copy)]
pub enum Comments {
    /// It has none.
    None,
    /// From the marker to the end of the line.
    Line(&'static str),
    /// From an opening to a closing marker; a missing close is an error.
    Block(&'static str, &'static str),
}

/// How the lexer folds identifiers.
#[derive(Debug, Clone, Copy)]
pub enum Case {
    /// As written.
    Keep,
    /// To ASCII lowercase.
    Lower,
    /// To ASCII uppercase.
    Upper,
}

/// What one token language's lexer differs in. Each frontend declares its
/// own as a constant.
#[derive(Debug)]
pub struct Syntax {
    /// Comment syntax.
    pub comments: Comments,
    /// Identifier case.
    pub case: Case,
    /// Multi-character symbols, tried in this order before one character.
    pub multi: &'static [&'static str],
    /// The one-character symbols. Any other character is an "unexpected
    /// character" error; `None` takes every character as a symbol.
    pub single: Option<&'static str>,
}

/// The relational operators of all three token languages.
pub const RELATIONS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

/// A lexer position to return to; see [`Lexer::save`].
#[derive(Debug)]
pub struct Mark<'a> {
    c: Cursor<'a>,
    tok: Tok<'a>,
    span: Span,
}

/// The token lexer of SIMPL, S\* and EMPL, driven by a [`Syntax`] table,
/// with the parser helpers all three share. It holds one token of
/// lookahead ([`tok`](Self::tok) at [`span`](Self::span)) and ticks the
/// token budget on every advance, end of input included, so that a parser
/// loop that fails to notice end of input still stops.
#[derive(Debug)]
pub struct Lexer<'a> {
    c: Cursor<'a>,
    syntax: &'static Syntax,
    tok: Tok<'a>,
    span: Span,
    budget: TokenBudget,
}

impl<'a> Lexer<'a> {
    /// Lexes the first token of `src`.
    ///
    /// # Errors
    ///
    /// As [`advance`](Self::advance).
    pub fn new(
        src: &'a str,
        syntax: &'static Syntax,
        limits: &FrontendLimits,
    ) -> Result<Self, Diagnostic> {
        let mut l = Lexer {
            c: Cursor::new(src),
            syntax,
            tok: Tok::Eof,
            span: Span::default(),
            budget: TokenBudget::new(limits),
        };
        l.advance()?;
        Ok(l)
    }

    /// The current token.
    pub fn tok(&self) -> &Tok<'a> {
        &self.tok
    }

    /// Where the current token is.
    pub fn span(&self) -> Span {
        self.span
    }

    /// The full source.
    pub fn source(&self) -> &'a str {
        self.c.source()
    }

    /// Moves to the next token.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] for an unterminated comment, an exhausted token
    /// budget, a malformed number or a character outside the symbol set.
    pub fn advance(&mut self) -> Result<(), Diagnostic> {
        self.skip_trivia()?;
        let start = self.c.pos();
        self.budget.tick(Span::new(start, start))?;
        let syntax = self.syntax;
        let tok = match self.c.peek() {
            None => Tok::Eof,
            Some(ch) if ch.is_alphabetic() || ch == '_' => {
                let w = self.c.take_while(|c| c.is_alphanumeric() || c == '_');
                Tok::Ident(match syntax.case {
                    Case::Keep => w.to_string(),
                    Case::Lower => w.to_ascii_lowercase(),
                    Case::Upper => w.to_ascii_uppercase(),
                })
            }
            Some(ch) if ch.is_ascii_digit() => {
                let w = self.c.take_while(|c| c.is_alphanumeric());
                match parse_int(w) {
                    Some(v) => Tok::Num(v),
                    None => {
                        return Err(Diagnostic::new(
                            format!("bad number `{w}`"),
                            Span::new(start, self.c.pos()),
                        ))
                    }
                }
            }
            Some(ch) => {
                if !syntax.multi.iter().any(|s| self.c.eat_str(s)) {
                    if syntax.single.is_some_and(|set| !set.contains(ch)) {
                        return Err(Diagnostic::new(
                            format!("unexpected character `{ch}`"),
                            Span::new(start, start + ch.len_utf8()),
                        ));
                    }
                    self.c.bump();
                }
                Tok::Sym(&self.c.source()[start..self.c.pos()])
            }
        };
        self.span = Span::new(start, self.c.pos());
        self.tok = tok;
        Ok(())
    }

    fn skip_trivia(&mut self) -> Result<(), Diagnostic> {
        match self.syntax.comments {
            Comments::None => self.c.skip_ws(),
            Comments::Line(marker) => self.c.skip_ws_and_line_comments(marker),
            Comments::Block(open, close) => loop {
                self.c.skip_ws();
                if !self.c.eat_str(open) {
                    break;
                }
                let start = self.c.pos();
                while !self.c.eat_str(close) {
                    if self.c.bump().is_none() {
                        return Err(Diagnostic::new(
                            "unterminated comment",
                            Span::new(start, self.c.pos()),
                        ));
                    }
                }
            },
        }
        Ok(())
    }

    /// The current position, to [`restore`](Self::restore) after
    /// lookahead. The token budget is not part of it: it only ever
    /// decrements, so a restore double-counts the tokens lexed since, and
    /// termination stays guaranteed.
    pub fn save(&self) -> Mark<'a> {
        Mark {
            c: self.c.clone(),
            tok: self.tok.clone(),
            span: self.span,
        }
    }

    /// Returns to a [`save`](Self::save)d position.
    pub fn restore(&mut self, m: Mark<'a>) {
        self.c = m.c;
        self.tok = m.tok;
        self.span = m.span;
    }

    /// A diagnostic at the current token.
    pub fn diag(&self, msg: impl Into<String>) -> Diagnostic {
        Diagnostic::new(msg, self.span)
    }

    /// Whether the current token is the keyword `word`, ignoring ASCII
    /// case.
    pub fn peek_kw(&self, word: &str) -> bool {
        matches!(&self.tok, Tok::Ident(w) if w.eq_ignore_ascii_case(word))
    }

    /// Consumes the keyword `word` if it is next; returns whether it did.
    ///
    /// # Errors
    ///
    /// As [`advance`](Self::advance).
    pub fn kw(&mut self, word: &str) -> Result<bool, Diagnostic> {
        let hit = self.peek_kw(word);
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    /// Consumes the keyword `word`.
    ///
    /// # Errors
    ///
    /// "expected `word`" when it is not next.
    pub fn expect_kw(&mut self, word: &str) -> Result<(), Diagnostic> {
        if self.kw(word)? {
            Ok(())
        } else {
            Err(self.diag(format!("expected `{word}`")))
        }
    }

    /// Whether the current token is the symbol `s`.
    pub fn peek_sym(&self, s: &str) -> bool {
        matches!(self.tok, Tok::Sym(x) if x == s)
    }

    /// Consumes the symbol `s` if it is next; returns whether it did.
    ///
    /// # Errors
    ///
    /// As [`advance`](Self::advance).
    pub fn sym(&mut self, s: &str) -> Result<bool, Diagnostic> {
        let hit = self.peek_sym(s);
        if hit {
            self.advance()?;
        }
        Ok(hit)
    }

    /// Consumes the symbol `s`.
    ///
    /// # Errors
    ///
    /// "expected `s`" when it is not next.
    pub fn expect_sym(&mut self, s: &str) -> Result<(), Diagnostic> {
        if self.sym(s)? {
            Ok(())
        } else {
            Err(self.diag(format!("expected `{s}`")))
        }
    }

    /// Consumes one of the [`RELATIONS`].
    ///
    /// # Errors
    ///
    /// "expected relational operator" when none is next.
    pub fn rel(&mut self) -> Result<&'a str, Diagnostic> {
        match self.tok {
            Tok::Sym(r) if RELATIONS.contains(&r) => {
                self.advance()?;
                Ok(r)
            }
            _ => Err(self.diag("expected relational operator")),
        }
    }

    /// Consumes an identifier.
    ///
    /// # Errors
    ///
    /// "expected identifier" when none is next.
    pub fn ident(&mut self) -> Result<String, Diagnostic> {
        match &self.tok {
            Tok::Ident(w) => {
                let w = w.clone();
                self.advance()?;
                Ok(w)
            }
            _ => Err(self.diag("expected identifier")),
        }
    }

    /// Consumes a number.
    ///
    /// # Errors
    ///
    /// "expected number" when none is next.
    pub fn number(&mut self) -> Result<u64, Diagnostic> {
        match self.tok {
            Tok::Num(v) => {
                self.advance()?;
                Ok(v)
            }
            _ => Err(self.diag("expected number")),
        }
    }
}

/// A deterministic decrementing budget over a discrete resource: simulator
/// cycles, watchdog cycles-without-a-poll, harness retry attempts. One type
/// shared by `mcc-sim`, `mcc-fuzz`, and `mcc-harness` so the toolkit's hang
/// and exhaustion thresholds are counted the same way everywhere and cannot
/// drift apart. Budgets are counts, never wall-clock: the same input
/// exhausts the same budget on every machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    limit: u64,
    spent: u64,
}

impl Budget {
    /// The toolkit-wide default simulator cycle ceiling. The fuzz oracle's
    /// hang detection and `SimOptions::default()` both use this value, so
    /// "hang" means the same thing to the simulator and the fuzzer.
    pub const DEFAULT_SIM_CYCLES: u64 = 1_000_000;

    /// A fresh budget of `limit` ticks.
    pub const fn new(limit: u64) -> Self {
        Budget { limit, spent: 0 }
    }

    /// The toolkit-default simulation cycle budget.
    pub const fn sim_cycles() -> Self {
        Budget::new(Self::DEFAULT_SIM_CYCLES)
    }

    /// The configured ceiling.
    pub const fn limit(&self) -> u64 {
        self.limit
    }

    /// Ticks spent so far.
    pub const fn spent(&self) -> u64 {
        self.spent
    }

    /// Ticks remaining before exhaustion.
    pub const fn remaining(&self) -> u64 {
        self.limit.saturating_sub(self.spent)
    }

    /// Whether the budget is exhausted.
    pub const fn exhausted(&self) -> bool {
        self.spent >= self.limit
    }

    /// Spends one tick. Returns `false` once the budget is exhausted (the
    /// tick that would cross the ceiling is refused, so a caller can treat
    /// `false` as "stop now" without overshooting).
    pub fn tick(&mut self) -> bool {
        if self.spent >= self.limit {
            return false;
        }
        self.spent += 1;
        true
    }

    /// Resets the spent count to zero (a watchdog "pet").
    pub fn reset(&mut self) {
        self.spent = 0;
    }
}

/// A decrementing token budget for lexers; see [`FrontendLimits::max_tokens`].
#[derive(Debug, Clone)]
pub struct TokenBudget {
    left: usize,
}

impl TokenBudget {
    /// A budget of `limits.max_tokens` ticks.
    pub fn new(limits: &FrontendLimits) -> Self {
        TokenBudget {
            left: limits.max_tokens,
        }
    }

    /// Spends one token.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] at `span` once the budget is exhausted.
    pub fn tick(&mut self, span: Span) -> Result<(), Diagnostic> {
        if self.left == 0 {
            return Err(Diagnostic::new("token budget exceeded", span));
        }
        self.left -= 1;
        Ok(())
    }
}

/// A recursion-depth guard for recursive-descent parsers; see
/// [`FrontendLimits::max_depth`]. Call [`enter`](Self::enter) at the top
/// of each recursive production and [`leave`](Self::leave) on its success
/// path (error paths abort the whole parse, so leaks there are harmless).
#[derive(Debug, Clone)]
pub struct DepthGuard {
    depth: usize,
    max: usize,
}

impl DepthGuard {
    /// A guard allowing `limits.max_depth` nested levels.
    pub fn new(limits: &FrontendLimits) -> Self {
        DepthGuard {
            depth: 0,
            max: limits.max_depth,
        }
    }

    /// Descends one level.
    ///
    /// # Errors
    ///
    /// A [`Diagnostic`] at `span` when nesting exceeds the limit.
    pub fn enter(&mut self, span: Span) -> Result<(), Diagnostic> {
        self.depth += 1;
        if self.depth > self.max {
            return Err(Diagnostic::new(
                format!("nesting deeper than {} levels", self.max),
                span,
            ));
        }
        Ok(())
    }

    /// Ascends one level.
    pub fn leave(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn excerpt_renders_caret_under_span() {
        let src = "line one\nR1 ++ R2\nline three\n";
        let d = Diagnostic::new("bad op", Span::new(12, 14));
        let r = d.render_excerpt(src);
        assert_eq!(r, "2:4: bad op\n    2 | R1 ++ R2\n      |    ^^");
    }

    #[test]
    fn excerpt_survives_out_of_range_spans() {
        let src = "x";
        let d = Diagnostic::new("eof", Span::new(900, 901));
        // Clamped to end-of-input; must not panic.
        let r = d.render_excerpt(src);
        assert!(r.starts_with("1:2: eof"), "{r}");
        let r = d.render_excerpt("");
        assert_eq!(r, "1:1: eof");
    }

    /// Quoted text and caret line of a rendered excerpt.
    fn quoted_and_caret(r: &str) -> (&str, &str) {
        let lines: Vec<&str> = r.lines().collect();
        let quoted = lines[1].split_once(" | ").unwrap().1;
        let caret = lines[2].strip_prefix("      | ").unwrap();
        (quoted, caret)
    }

    #[test]
    fn excerpt_of_a_long_line_is_a_window_around_the_span() {
        let src = format!("{}@{}\nnext", "a".repeat(20_000), "b".repeat(19_999));
        let d = Diagnostic::new("stray `@`", Span::new(20_000, 20_001));
        let r = d.render_excerpt(&src);
        assert!(r.len() < 1024, "{} bytes", r.len());
        assert!(r.starts_with("1:20001: stray `@`\n"), "{r}");
        let (quoted, caret) = quoted_and_caret(&r);
        assert!(
            quoted.starts_with("…a") && quoted.ends_with("b…"),
            "{quoted}"
        );
        assert_eq!(quoted.chars().count(), EXCERPT_CHARS);
        let at = caret.len() - 1;
        assert_eq!(caret, format!("{}^", " ".repeat(at)));
        assert_eq!(quoted.chars().nth(at), Some('@'));
    }

    #[test]
    fn excerpt_windows_stay_inside_the_line() {
        let text = format!("{}@{}", "a".repeat(5), "b".repeat(994));
        // Near the start: cut on the right only.
        let r = Diagnostic::new("m", Span::new(5, 9)).render_excerpt(&text);
        let (quoted, caret) = quoted_and_caret(&r);
        assert!(
            quoted.starts_with("aaaaa@b") && quoted.ends_with('…'),
            "{quoted}"
        );
        assert_eq!(caret, "     ^^^^");
        // At the end of the line: cut on the left only, caret one past
        // the last character, as for a short line.
        let r = Diagnostic::new("m", Span::new(1000, 1000)).render_excerpt(&text);
        let (quoted, caret) = quoted_and_caret(&r);
        assert!(
            quoted.starts_with('…') && quoted.ends_with("bbb"),
            "{quoted}"
        );
        assert_eq!(caret.len() - 1, quoted.chars().count());
    }

    #[test]
    fn excerpt_quotes_lines_up_to_the_limit_whole() {
        for len in [EXCERPT_CHARS - 1, EXCERPT_CHARS] {
            let text = "x".repeat(len);
            let r = Diagnostic::new("m", Span::new(len - 1, len)).render_excerpt(&text);
            assert_eq!(
                r,
                format!(
                    "1:{len}: m\n    1 | {text}\n      | {}^",
                    " ".repeat(len - 1)
                )
            );
        }
        let text = "x".repeat(EXCERPT_CHARS + 1);
        let r = Diagnostic::new("m", Span::new(0, 1)).render_excerpt(&text);
        assert!(quoted_and_caret(&r).0.ends_with('…'), "{r}");
    }

    #[test]
    fn excerpt_handles_multibyte_lines() {
        let src = "é é é\nfoo";
        let d = Diagnostic::new("m", Span::new(3, 5));
        // Span covers the middle `é` (2 bytes → 1 caret).
        let r = d.render_excerpt(src);
        assert!(r.contains("| é é é"), "{r}");
        assert!(r.ends_with("^"), "{r}");
    }

    const CLOSED: Syntax = Syntax {
        comments: Comments::None,
        case: Case::Keep,
        multi: &["->", "<="],
        single: Some("-<;"),
    };
    const LINE: Syntax = Syntax {
        comments: Comments::Line("#"),
        case: Case::Lower,
        multi: &[":=", "<>"],
        single: None,
    };
    const BLOCK: Syntax = Syntax {
        comments: Comments::Block("/*", "*/"),
        case: Case::Upper,
        multi: &[],
        single: None,
    };

    /// Every token of `src` under `syntax`, or the first error.
    fn lex<'a>(src: &'a str, syntax: &'static Syntax) -> Result<Vec<(Tok<'a>, Span)>, Diagnostic> {
        let mut l = Lexer::new(src, syntax, &FrontendLimits::default())?;
        let mut out = Vec::new();
        while l.tok != Tok::Eof {
            out.push((l.tok.clone(), l.span));
            l.advance()?;
        }
        Ok(out)
    }

    #[test]
    fn lexer_tables_set_symbols_and_case() {
        let toks: Vec<_> = lex("Ab -> 0x1F <= - ;", &CLOSED)
            .unwrap()
            .into_iter()
            .map(|(t, _)| t)
            .collect();
        assert_eq!(
            toks,
            [
                Tok::Ident("Ab".into()),
                Tok::Sym("->"),
                Tok::Num(31),
                Tok::Sym("<="),
                Tok::Sym("-"),
                Tok::Sym(";"),
            ]
        );
        let e = lex("a € b", &CLOSED).unwrap_err();
        assert_eq!(e.message, "unexpected character `€`");
        assert_eq!(e.span, Span::new(2, 5));
        // An open symbol set takes any character.
        let toks = lex("Ab := €", &LINE).unwrap();
        assert_eq!(toks[0].0, Tok::Ident("ab".into()));
        assert_eq!(toks[2], (Tok::Sym("€"), Span::new(6, 9)));
        assert_eq!(lex("ab", &BLOCK).unwrap()[0].0, Tok::Ident("AB".into()));
        let e = lex("9z", &LINE).unwrap_err();
        assert_eq!((e.message.as_str(), e.span), ("bad number `9z`", Span::new(0, 2)));
    }

    #[test]
    fn lexer_tables_set_comments() {
        let toks = lex("# one\nx # two\n:= #", &LINE).unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1].1, Span::new(14, 16));
        let toks = lex("/**/ x /* a */ /* b */ y", &BLOCK).unwrap();
        assert_eq!(toks.len(), 2);
        let e = lex("x /* open", &BLOCK).unwrap_err();
        assert_eq!((e.message.as_str(), e.span), ("unterminated comment", Span::new(4, 9)));
        // Without comment syntax, `#` is a symbol or an error.
        assert!(lex("# x", &CLOSED).is_err());
    }

    #[test]
    fn lexer_budget_counts_end_of_input_and_survives_restore() {
        let limits = FrontendLimits {
            max_tokens: 3,
            ..FrontendLimits::default()
        };
        let mut l = Lexer::new("a b", &LINE, &limits).unwrap();
        let mark = l.save();
        l.advance().unwrap();
        l.restore(mark);
        assert!(l.peek_kw("A"), "keywords match regardless of ASCII case");
        // `b` again is the third tick; the restore did not refund the
        // first `b`, so end of input is refused.
        l.advance().unwrap();
        let e = l.advance().unwrap_err();
        assert!(e.message.contains("token budget"), "{}", e.message);
        let mut l = Lexer::new("a", &LINE, &limits).unwrap();
        l.advance().unwrap();
        assert_eq!(l.tok, Tok::Eof);
        l.advance().unwrap();
        assert!(l.advance().is_err(), "end of input ticks too");
    }

    #[test]
    fn lexer_helpers_consume_only_on_match() {
        let mut l = Lexer::new("x := 5 <> y", &LINE, &FrontendLimits::default()).unwrap();
        assert!(!l.kw("y").unwrap());
        assert_eq!(l.ident().unwrap(), "x");
        assert!(l.expect_sym("=").is_err());
        l.expect_sym(":=").unwrap();
        assert_eq!(l.number().unwrap(), 5);
        assert_eq!(l.rel().unwrap(), "<>");
        let e = l.expect_kw("z").unwrap_err();
        assert_eq!((e.message.as_str(), e.span), ("expected `z`", Span::new(10, 11)));
        assert_eq!(l.number().unwrap_err().message, "expected number");
        assert_eq!(l.source(), "x := 5 <> y");
    }

    #[test]
    fn budget_ticks_and_resets() {
        let mut b = Budget::new(3);
        assert_eq!(b.limit(), 3);
        assert!(b.tick() && b.tick());
        assert_eq!(b.remaining(), 1);
        assert!(!b.exhausted());
        assert!(b.tick());
        assert!(b.exhausted());
        // The crossing tick is refused, not overshot.
        assert!(!b.tick());
        assert_eq!(b.spent(), 3);
        b.reset();
        assert_eq!(b.spent(), 0);
        assert!(b.tick());
        assert_eq!(Budget::sim_cycles().limit(), Budget::DEFAULT_SIM_CYCLES);
    }

    #[test]
    fn zero_budget_is_born_exhausted() {
        let mut b = Budget::new(0);
        assert!(b.exhausted());
        assert!(!b.tick());
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn token_budget_exhausts_exactly() {
        let limits = FrontendLimits {
            max_tokens: 2,
            ..FrontendLimits::default()
        };
        let mut b = TokenBudget::new(&limits);
        assert!(b.tick(Span::default()).is_ok());
        assert!(b.tick(Span::default()).is_ok());
        let e = b.tick(Span::new(5, 6)).unwrap_err();
        assert!(e.message.contains("token budget"));
        assert_eq!(e.span.start, 5);
    }

    #[test]
    fn depth_guard_limits_nesting() {
        let limits = FrontendLimits {
            max_depth: 3,
            ..FrontendLimits::default()
        };
        let mut g = DepthGuard::new(&limits);
        for _ in 0..3 {
            g.enter(Span::default()).unwrap();
        }
        assert!(g.enter(Span::default()).is_err());
        g.leave();
        g.leave();
        assert!(g.enter(Span::default()).is_ok());
    }

    #[test]
    fn source_size_check() {
        let limits = FrontendLimits {
            max_source_bytes: 4,
            ..FrontendLimits::default()
        };
        assert!(limits.check_source("abcd").is_ok());
        assert!(limits.check_source("abcde").is_err());
    }

    #[test]
    fn spans_merge() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.to(b), Span::new(3, 12));
    }

    #[test]
    fn line_col_counts_newlines() {
        let src = "ab\ncd\nef";
        assert_eq!(line_col(src, 0), (1, 1));
        assert_eq!(line_col(src, 4), (2, 2));
        assert_eq!(line_col(src, 6), (3, 1));
    }

    #[test]
    fn diagnostic_renders_position() {
        let src = "x\nyz";
        let d = Diagnostic::new("bad thing", Span::new(3, 4));
        assert_eq!(d.render(src), "2:2: bad thing");
    }

    #[test]
    fn cursor_basics() {
        let mut c = Cursor::new("ab cd");
        assert_eq!(c.peek(), Some('a'));
        assert_eq!(c.bump(), Some('a'));
        assert!(c.eat_str("b"));
        c.skip_ws();
        assert_eq!(c.take_while(|ch| ch.is_alphabetic()), "cd");
        assert_eq!(c.peek(), None);
    }

    #[test]
    fn cursor_comments() {
        let mut c = Cursor::new("  ; note\n  x");
        c.skip_ws_and_line_comments(";");
        assert_eq!(c.peek(), Some('x'));
    }

    #[test]
    fn eat_str_advances_only_on_match() {
        let mut c = Cursor::new("begin end");
        assert!(c.eat_str("begin"));
        assert!(!c.eat_str("begin"));
        c.skip_ws();
        assert!(c.eat_str("end"));
    }

    #[test]
    fn int_formats() {
        assert_eq!(parse_int("42"), Some(42));
        assert_eq!(parse_int("0x2A"), Some(42));
        assert_eq!(parse_int("0o52"), Some(42));
        assert_eq!(parse_int("0b101010"), Some(42));
        assert_eq!(parse_int("2AH"), Some(42));
        assert_eq!(parse_int("101010B"), Some(42));
        assert_eq!(parse_int("nope"), None);
    }
}
