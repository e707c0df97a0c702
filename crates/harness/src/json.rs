//! The toolkit's tiny flat-JSON subset: one object per line, string /
//! unsigned-number / string-array values, no nesting.
//!
//! This is the wire format shared by the campaign journal ([`crate::journal`]),
//! the cache's record logs, and the `mcc serve` request protocol. It is
//! deliberately *not* general JSON: every consumer owns both ends of the
//! pipe, and a flat object of three value shapes parses in one pass with
//! no allocation surprises. Unknown keys are preserved (callers ignore
//! them), malformed input returns `None` — never a panic — because both
//! the journal recovery path and the network request path feed this
//! parser arbitrary bytes.

use std::collections::HashMap;

/// A value in the JSON subset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Val {
    /// A JSON string.
    Str(String),
    /// An unsigned integer.
    Num(u64),
    /// An array of strings.
    Arr(Vec<String>),
}

/// Escapes a string for embedding in a JSON string literal.
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    esc_into(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped for embedding in a JSON string literal.
pub fn esc_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

struct P<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> P<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && (self.b[self.i] as char).is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Option<()> {
        self.ws();
        (self.i < self.b.len() && self.b[self.i] == c).then(|| self.i += 1)
    }

    fn peek(&mut self) -> Option<u8> {
        self.ws();
        self.b.get(self.i).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.b.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return Some(out),
                b'\\' => {
                    let e = *self.b.get(self.i)?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.b.get(self.i..self.i + 4)?;
                            self.i += 4;
                            let n =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(n)?);
                        }
                        _ => return None,
                    }
                }
                c if c < 0x80 => out.push(c as char),
                _ => {
                    // Multi-byte UTF-8: copy the full sequence.
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        0xF0..=0xF7 => 4,
                        _ => return None,
                    };
                    let start = self.i - 1;
                    let bytes = self.b.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(bytes).ok()?);
                    self.i = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<u64> {
        self.ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i]).ok()?.parse().ok()
    }

    fn value(&mut self) -> Option<Val> {
        match self.peek()? {
            b'"' => self.string().map(Val::Str),
            b'[' => {
                self.eat(b'[')?;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.eat(b']')?;
                    return Some(Val::Arr(items));
                }
                loop {
                    items.push(self.string()?);
                    match self.peek()? {
                        b',' => self.eat(b',')?,
                        b']' => {
                            self.eat(b']')?;
                            return Some(Val::Arr(items));
                        }
                        _ => return None,
                    }
                }
            }
            c if c.is_ascii_digit() => self.number().map(Val::Num),
            _ => None,
        }
    }

    /// Parses one flat object into a key → value map.
    fn object(&mut self) -> Option<HashMap<String, Val>> {
        self.eat(b'{')?;
        let mut map = HashMap::new();
        if self.peek()? == b'}' {
            self.eat(b'}')?;
            self.ws();
            return (self.i == self.b.len()).then_some(map);
        }
        loop {
            let k = self.string()?;
            self.eat(b':')?;
            map.insert(k, self.value()?);
            match self.peek()? {
                b',' => self.eat(b',')?,
                b'}' => {
                    self.eat(b'}')?;
                    self.ws();
                    return (self.i == self.b.len()).then_some(map);
                }
                _ => return None,
            }
        }
    }
}

/// Parses one flat JSON object; `None` on any malformation or trailing
/// garbage.
pub fn parse_object(s: &str) -> Option<HashMap<String, Val>> {
    P { b: s.as_bytes(), i: 0 }.object()
}

/// Fetches a string field.
pub fn get_str(m: &HashMap<String, Val>, k: &str) -> Option<String> {
    match m.get(k)? {
        Val::Str(s) => Some(s.clone()),
        _ => None,
    }
}

/// Fetches an unsigned-number field.
pub fn get_num(m: &HashMap<String, Val>, k: &str) -> Option<u64> {
    match m.get(k)? {
        Val::Num(n) => Some(*n),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let m = parse_object(r#"{"a":"x","n":42,"arr":["p","q"]}"#).unwrap();
        assert_eq!(get_str(&m, "a").as_deref(), Some("x"));
        assert_eq!(get_num(&m, "n"), Some(42));
        assert_eq!(m.get("arr"), Some(&Val::Arr(vec!["p".into(), "q".into()])));
    }

    #[test]
    fn escapes_round_trip() {
        let nasty = "quote\" back\\ nl\n tab\t ctrl\u{1} é⊕";
        let line = format!("{{\"s\":\"{}\"}}", esc(nasty));
        let m = parse_object(&line).unwrap();
        assert_eq!(get_str(&m, "s").as_deref(), Some(nasty));
    }

    #[test]
    fn rejects_malformed_and_trailing_garbage() {
        for bad in [
            "",
            "{",
            "{}}",
            "{\"a\":}",
            "{\"a\":\"x\"} trailing",
            "not json at all",
            "{\"a\":[1,2]}", // numbers in arrays are outside the subset
        ] {
            assert!(parse_object(bad).is_none(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_object("{}").unwrap().is_empty());
    }
}
