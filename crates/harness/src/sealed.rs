//! Sealed line logs: the one codec behind the campaign journal
//! ([`crate::journal`]), the cache's artifact and stats logs, and the
//! serve trace.
//!
//! Every line of such a log ends in `\n` and carries the 64-bit FNV-1a
//! of its own body as exactly 16 lowercase hex digits. A JSON log seals
//! a flat object by splicing `"sum":"<hex>"` in as its last field
//! ([`seal`], [`unseal`]); a line with its own layout checks the sum
//! with [`verify`].
//!
//! Recovery keeps the intact prefix and nothing else ([`prefix`]). A log
//! is appended in order, so the first line that is torn (no newline),
//! not UTF-8, or rejected by its reader marks the end of what is known
//! to be durable: that line and everything after it are dropped. The
//! checksum is not cryptographic — it detects torn writes and flipped
//! bits, not adversaries.

/// Streaming 64-bit FNV-1a: fold bytes in with [`write`](Fnv1a::write)
/// and read the hash with [`finish`](Fnv1a::finish).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Folds `bytes` into the hash.
    #[must_use]
    pub fn write(self, bytes: &[u8]) -> Fnv1a {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Fnv1a(h)
    }

    /// The hash of everything written so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::default().write(bytes).finish()
}

/// The seal's opening, spliced in ahead of a flat object's closing `}`.
const SUM_FIELD: &str = ",\"sum\":\"";

/// Whether `hex` is the sum of `body`: exactly 16 lowercase hex digits
/// spelling `fnv1a(body)`. `from_str_radix` alone would also take
/// uppercase digits, a leading `+` or a leading zero, so a damaged sum
/// could still read as intact.
pub fn verify(body: &[u8], hex: &str) -> bool {
    hex.len() == 16
        && hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
        && u64::from_str_radix(hex, 16) == Ok(fnv1a(body))
}

/// Seals a flat JSON object: splices `"sum":"<fnv1a(body):016x>"` in as
/// its last field and ends the line.
pub fn seal(body: &str) -> String {
    debug_assert!(body.ends_with('}'));
    let sum = fnv1a(body.as_bytes());
    format!("{}{SUM_FIELD}{sum:016x}\"}}\n", &body[..body.len() - 1])
}

/// Checks a sealed line (without its newline) and returns the object it
/// sealed; `None` when the seal is missing, malformed, or does not match.
pub fn unseal(line: &str) -> Option<String> {
    let idx = line.rfind(SUM_FIELD)?;
    let hex = line[idx + SUM_FIELD.len()..].strip_suffix("\"}")?;
    let body = format!("{}}}", &line[..idx]);
    verify(body.as_bytes(), hex).then_some(body)
}

/// Walks a log from the top and returns the records of its intact prefix
/// with that prefix's length in bytes.
///
/// `log` is split at `\n`. The walk stops at the first line that is torn
/// (no newline), not UTF-8, or rejected by `parse`, which sees each line
/// without its newline together with the records accepted so far (so a
/// reader can demand a dense sequence). A writer truncates the file to
/// the returned length before it appends again.
pub fn prefix<T>(log: &[u8], mut parse: impl FnMut(&str, &[T]) -> Option<T>) -> (Vec<T>, usize) {
    let mut records = Vec::new();
    let mut len = 0;
    for line in log.split_inclusive(|&b| b == b'\n') {
        let Some(body) = line.strip_suffix(b"\n") else {
            break;
        };
        let Some(rec) = std::str::from_utf8(body)
            .ok()
            .and_then(|l| parse(l, &records))
        else {
            break;
        };
        records.push(rec);
        len += line.len();
    }
    (records, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            Fnv1a::default().write(b"foo").write(b"bar").finish(),
            fnv1a(b"foobar")
        );
    }

    #[test]
    fn sums_are_exactly_16_lowercase_hex_digits() {
        assert!(verify(b"", "cbf29ce484222325"));
        for bad in ["CBF29CE484222325", "0cbf29ce484222325", "cbf29ce48422232"] {
            assert!(!verify(b"", bad), "{bad:?}");
        }
    }

    #[test]
    fn seal_round_trips_and_unseal_rejects_damage() {
        let line = seal(r#"{"a":"é"}"#);
        let line = line.strip_suffix('\n').unwrap();
        assert_eq!(unseal(line).as_deref(), Some(r#"{"a":"é"}"#));
        for bad in ["", "{}", &line[..line.len() - 1], &line.replace('é', "e")] {
            assert_eq!(unseal(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn prefix_stops_at_the_first_bad_line() {
        let parse = |l: &str, seen: &[u32]| l.parse().ok().filter(|&n| n == seen.len() as u32);
        assert_eq!(prefix(b"0\n1\n2\n", parse), (vec![0, 1, 2], 6));
        assert_eq!(prefix(b"0\n1\n2", parse), (vec![0, 1], 4));
        assert_eq!(prefix(b"0\n2\n1\n", parse), (vec![0], 2));
        assert_eq!(prefix(b"0\n\xff\n1\n", parse), (vec![0], 2));
        assert_eq!(prefix(b"", parse), (vec![], 0));
    }
}
