//! The `mcc serve` wire protocol: newline-delimited flat JSON, one
//! request object in, exactly one response object out, over the
//! toolkit's shared JSON subset ([`mcc_harness::json`]).
//!
//! Requests:
//!
//! ```text
//! {"op":"compile","id":"r1","machine":"hm1","lang":"yalll","src":"..."}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"drain"}
//! {"op":"join","name":"b2","addr":"127.0.0.1:7102"}
//! {"op":"leave","name":"b2"}
//! ```
//!
//! `compile` accepts optional `"algo"` (the CLI's algorithm names),
//! `"deadline_ms"`, `"tenant"` (QoS accounting identity; defaults to
//! the transport client id so bare peers keep working), and `"class"`
//! (`interactive` | `batch` | `background`, default `interactive`)
//! fields. Every op accepts an optional `"id"`, echoed
//! verbatim in the response so clients can pipeline. Responses carry an
//! HTTP-flavoured `code`:
//!
//! * `200` — compiled (fields: `instrs`, `ops`, `algorithm`, `cached`,
//!   `checksum`, `tier`);
//! * `400` — malformed frame, unknown machine/language, or compile error;
//! * `429` — the client's token bucket ran dry;
//! * `500` — a panic inside the pipeline, contained and reported;
//! * `503` — shed (queue full), breaker open, or the server is draining;
//! * `504` — the per-request deadline expired (condemn-and-replace).
//!
//! Malformed frames get a structured `400` — the connection stays up,
//! and a frame can never take the daemon down.

use mcc_harness::json::{esc, get_num, get_str, parse_object};
use mcc_harness::sealed::fnv1a;

/// Hard cap on one inbound wire frame. A peer that sends a longer line gets a
/// structured `400` and the connection is closed — it can never make a server
/// buffer unboundedly.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Marker that opens an enveloped frame. Everything after it is
/// `<client_id> <request_id> <fnv1a:016x> <body>`.
pub const ENVELOPE_PREFIX: &str = "@mcc1 ";

/// A request's identity: the client id and that client's request id.
/// It arrives in a v2 frame header or an `@mcc1` line, is decoded once
/// where it arrives, and keys the server's idempotency window, so a
/// retry with the same identity executes once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The logical client, stable across reconnects.
    pub cid: String,
    /// The client's request id: the retry-safety handle.
    pub rid: u64,
}

/// Result of inspecting one inbound line for the envelope.
///
/// The envelope is the line dialect's identity syntax, recognised by
/// shape: a line that starts with [`ENVELOPE_PREFIX`] carries an
/// identity, anything else is a bare JSON line without one. A line that
/// *claims* to be enveloped but fails structural or checksum validation
/// is `Corrupt` — it must be answered with a bare `400` (the identity
/// fields cannot be trusted) and never executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Envelope {
    /// Bare JSON line; no identity, no checksum.
    Bare,
    /// Validated envelope: checksum matched the transmitted bytes.
    Enveloped {
        /// Client identity half of the dedup key.
        cid: String,
        /// Monotonic per-client request id — the retry-safety handle.
        rid: u64,
        /// The inner JSON line (no trailing newline).
        body: String,
    },
    /// Envelope-shaped but invalid; the reason for the diagnostic `400`.
    Corrupt(String),
}

/// Wraps a bare JSON line in the `@mcc1` envelope. The checksum is FNV-1a
/// over the exact transmitted substring `"{cid} {rid} {body}"`, so any
/// single-byte change to identity or payload is detectable.
pub fn wrap_envelope(cid: &str, rid: u64, body: &str) -> String {
    let body = body.trim_end_matches('\n');
    let sum = fnv1a(format!("{cid} {rid} {body}").as_bytes());
    format!("{ENVELOPE_PREFIX}{cid} {rid} {sum:016x} {body}\n")
}

/// Classifies one inbound line: bare, a validated envelope, or corrupt.
///
/// The checksum is recomputed over the *raw received* cid/rid substrings (not
/// re-rendered values), so a corruption that still parses — e.g. a digit
/// flip in `rid` — is caught by the sum even though the field looks valid.
pub fn unwrap_envelope(line: &str) -> Envelope {
    let trimmed = line.trim_end_matches('\n');
    let Some(rest) = trimmed.strip_prefix(ENVELOPE_PREFIX) else {
        return Envelope::Bare;
    };
    let mut parts = rest.splitn(4, ' ');
    let (Some(cid), Some(rid_s), Some(sum_s), Some(body)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Envelope::Corrupt("corrupt frame: short envelope".to_string());
    };
    if cid.is_empty() {
        return Envelope::Corrupt("corrupt frame: empty client id".to_string());
    }
    if sum_s.len() != 16 || !sum_s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Envelope::Corrupt("corrupt frame: bad checksum field".to_string());
    }
    let Ok(sum) = u64::from_str_radix(sum_s, 16) else {
        return Envelope::Corrupt("corrupt frame: bad checksum field".to_string());
    };
    let Ok(rid) = rid_s.parse::<u64>() else {
        return Envelope::Corrupt("corrupt frame: bad request id".to_string());
    };
    let computed = fnv1a(format!("{cid} {rid_s} {body}").as_bytes());
    if computed != sum {
        return Envelope::Corrupt("corrupt frame: checksum mismatch".to_string());
    }
    Envelope::Enveloped { cid: cid.to_string(), rid, body: body.to_string() }
}

/// The inner JSON of a line whether or not it is enveloped — used where only
/// the payload matters (e.g. spotting a `drain` frame in the accept loop).
/// Corrupt envelopes yield the raw line, which will fail parsing downstream.
pub fn envelope_body(line: &str) -> &str {
    let trimmed = line.trim_end_matches('\n');
    if let Some(rest) = trimmed.strip_prefix(ENVELOPE_PREFIX) {
        let mut parts = rest.splitn(4, ' ');
        if let (Some(_), Some(_), Some(_), Some(body)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        {
            return body;
        }
    }
    line
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile one source.
    Compile(CompileReq),
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Prometheus text exposition (per-tenant/class/tier series).
    Metrics,
    /// Begin graceful drain.
    Drain,
    /// Router admin: add (or re-point) a backend on the live ring.
    /// A plain `mcc serve` shard answers this with a `400` — membership
    /// is a router concern.
    Join(JoinReq),
    /// Router admin: remove a backend from the live ring.
    Leave {
        /// Backend name to remove.
        name: String,
    },
}

/// The payload of a `compile` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileReq {
    /// Client-chosen id, echoed in the response (empty when omitted).
    pub id: String,
    /// Reference machine name (`hm1` | `vm1` | `bx2` | `wm64`).
    pub machine: String,
    /// Frontend name (`yalll` | `simpl` | `empl` | `sstar`).
    pub lang: String,
    /// The source text.
    pub src: String,
    /// Optional algorithm override (CLI names).
    pub algo: Option<String>,
    /// Optional per-request deadline override.
    pub deadline_ms: Option<u64>,
    /// Optional QoS tenant id (defaults to the transport client id).
    pub tenant: Option<String>,
    /// Optional priority class name (default `interactive`); validated
    /// at admission so an unknown class is a structured `400`.
    pub class: Option<String>,
}

/// The payload of a `join` request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinReq {
    /// Client-chosen id, echoed in the response (empty when omitted).
    pub id: String,
    /// Backend name: ring placement is a pure function of the name, so
    /// a shard that rejoins under its old name reclaims its old keys.
    pub name: String,
    /// `host:port` the router should dial for this backend.
    pub addr: String,
}

/// One response line. `body` carries code-specific key/value pairs,
/// already JSON-rendered by the constructors below.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request id.
    pub id: String,
    /// HTTP-flavoured status code.
    pub code: u16,
    /// Extra fields as pre-rendered `"key":value` JSON fragments.
    pub fields: Vec<(String, String)>,
}

impl Response {
    /// A bare response with no extra fields.
    pub fn new(id: &str, code: u16) -> Response {
        Response {
            id: id.to_string(),
            code,
            fields: Vec::new(),
        }
    }

    /// An error response (`400`/`429`/`500`/`503`/`504`) with a reason.
    pub fn error(id: &str, code: u16, reason: &str) -> Response {
        let mut r = Response::new(id, code);
        r.push_str("error", reason);
        r
    }

    /// Appends a string field.
    pub fn push_str(&mut self, key: &str, value: &str) {
        self.fields
            .push((key.to_string(), format!("\"{}\"", esc(value))));
    }

    /// Appends a numeric field.
    pub fn push_num(&mut self, key: &str, value: u64) {
        self.fields.push((key.to_string(), value.to_string()));
    }

    /// Renders the newline-terminated wire line.
    pub fn to_line(&self) -> String {
        let mut out = format!("{{\"id\":\"{}\",\"code\":{}", esc(&self.id), self.code);
        for (k, v) in &self.fields {
            out.push_str(&format!(",\"{}\":{v}", esc(k)));
        }
        out.push_str("}\n");
        out
    }

    /// Reads a string field back out of a rendered response line —
    /// the client-side accessor used by tests and the load generator.
    pub fn field_str(line: &str, key: &str) -> Option<String> {
        get_str(&parse_object(line.trim_end())?, key)
    }

    /// Reads a numeric field back out of a rendered response line.
    pub fn field_num(line: &str, key: &str) -> Option<u64> {
        get_num(&parse_object(line.trim_end())?, key)
    }
}

/// Parses one request frame. `Err` carries the structured reason for the
/// `400` — never a panic, because frames arrive from the network.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let Some(m) = parse_object(line.trim_end()) else {
        return Err("malformed frame: not a flat JSON object".to_string());
    };
    let op = get_str(&m, "op").ok_or("missing or non-string `op` field")?;
    match op.as_str() {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "drain" => Ok(Request::Drain),
        "join" => Ok(Request::Join(JoinReq {
            id: get_str(&m, "id").unwrap_or_default(),
            name: get_str(&m, "name").ok_or("join: missing `name`")?,
            addr: get_str(&m, "addr").ok_or("join: missing `addr`")?,
        })),
        "leave" => Ok(Request::Leave {
            name: get_str(&m, "name").ok_or("leave: missing `name`")?,
        }),
        "compile" => {
            let req = CompileReq {
                id: get_str(&m, "id").unwrap_or_default(),
                machine: get_str(&m, "machine").ok_or("compile: missing `machine`")?,
                lang: get_str(&m, "lang").ok_or("compile: missing `lang`")?,
                src: get_str(&m, "src").ok_or("compile: missing `src`")?,
                algo: get_str(&m, "algo"),
                deadline_ms: get_num(&m, "deadline_ms"),
                tenant: get_str(&m, "tenant"),
                class: get_str(&m, "class"),
            };
            Ok(Request::Compile(req))
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

/// The id a response should echo for a frame that may not even parse.
pub fn frame_id(line: &str) -> String {
    parse_object(line.trim_end())
        .as_ref()
        .and_then(|m| get_str(m, "id"))
        .unwrap_or_default()
}

/// Renders a compile request as a wire line — the client-side encoder
/// shared by the load generator and the tests.
pub fn compile_line(id: &str, machine: &str, lang: &str, src: &str) -> String {
    format!(
        "{{\"op\":\"compile\",\"id\":\"{}\",\"machine\":\"{}\",\"lang\":\"{}\",\"src\":\"{}\"}}\n",
        esc(id),
        esc(machine),
        esc(lang),
        esc(src)
    )
}

/// Renders a compile request carrying QoS identity — the encoder the
/// diurnal load generator and the QoS tests use. Omitted (`None`)
/// fields are left off the wire entirely, so old servers parse the
/// line unchanged.
pub fn compile_line_qos(
    id: &str,
    machine: &str,
    lang: &str,
    src: &str,
    tenant: Option<&str>,
    class: Option<&str>,
) -> String {
    let mut line = format!(
        "{{\"op\":\"compile\",\"id\":\"{}\",\"machine\":\"{}\",\"lang\":\"{}\"",
        esc(id),
        esc(machine),
        esc(lang),
    );
    if let Some(t) = tenant {
        line.push_str(&format!(",\"tenant\":\"{}\"", esc(t)));
    }
    if let Some(c) = class {
        line.push_str(&format!(",\"class\":\"{}\"", esc(c)));
    }
    line.push_str(&format!(",\"src\":\"{}\"}}\n", esc(src)));
    line
}

/// Renders a `join` admin frame — the client-side encoder used by the
/// fleet supervisor when it re-adds a restarted shard to the ring.
pub fn join_line(id: &str, name: &str, addr: &str) -> String {
    format!(
        "{{\"op\":\"join\",\"id\":\"{}\",\"name\":\"{}\",\"addr\":\"{}\"}}\n",
        esc(id),
        esc(name),
        esc(addr)
    )
}

/// Renders a `leave` admin frame.
pub fn leave_line(id: &str, name: &str) -> String {
    format!("{{\"op\":\"leave\",\"id\":\"{}\",\"name\":\"{}\"}}\n", esc(id), esc(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_request_round_trips() {
        let line = compile_line("r7", "hm1", "yalll", "reg a = R0\nexit a\n");
        match parse_request(&line).unwrap() {
            Request::Compile(c) => {
                assert_eq!(c.id, "r7");
                assert_eq!(c.machine, "hm1");
                assert_eq!(c.lang, "yalll");
                assert!(c.src.contains('\n'), "newlines survive escaping");
                assert_eq!(c.algo, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(parse_request("{\"op\":\"stats\"}\n").unwrap(), Request::Stats);
        assert_eq!(parse_request("{\"op\":\"metrics\"}").unwrap(), Request::Metrics);
        assert_eq!(parse_request("{\"op\":\"drain\"}").unwrap(), Request::Drain);
    }

    #[test]
    fn qos_fields_round_trip_and_stay_optional() {
        let line = compile_line_qos("q1", "hm1", "yalll", "exit\n", Some("acme"), Some("batch"));
        match parse_request(&line).unwrap() {
            Request::Compile(c) => {
                assert_eq!(c.tenant.as_deref(), Some("acme"));
                assert_eq!(c.class.as_deref(), Some("batch"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // Bare encoders leave the fields off the wire entirely.
        let bare = compile_line_qos("q2", "hm1", "yalll", "exit\n", None, None);
        assert!(!bare.contains("tenant") && !bare.contains("class"));
        match parse_request(&bare).unwrap() {
            Request::Compile(c) => {
                assert_eq!(c.tenant, None);
                assert_eq!(c.class, None);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        // And the legacy encoder still parses identically.
        match parse_request(&compile_line("q3", "hm1", "yalll", "exit\n")).unwrap() {
            Request::Compile(c) => assert_eq!(c.tenant, None),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn malformed_frames_are_structured_errors() {
        for bad in [
            "",
            "garbage",
            "{\"op\":\"compile\"}",
            "{\"op\":\"warp\"}",
            "{\"no_op\":1}",
            "{\"op\":\"join\",\"name\":\"b2\"}",
            "{\"op\":\"join\",\"addr\":\"127.0.0.1:1\"}",
            "{\"op\":\"leave\"}",
        ] {
            assert!(parse_request(bad).is_err(), "accepted: {bad:?}");
        }
    }

    #[test]
    fn join_and_leave_round_trip() {
        match parse_request(&join_line("j1", "b2", "127.0.0.1:7102")).unwrap() {
            Request::Join(j) => {
                assert_eq!(j.id, "j1");
                assert_eq!(j.name, "b2");
                assert_eq!(j.addr, "127.0.0.1:7102");
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse_request(&leave_line("l1", "b2")).unwrap(),
            Request::Leave { name: "b2".to_string() }
        );
    }

    #[test]
    fn responses_render_and_read_back() {
        let mut r = Response::new("x", 200);
        r.push_num("instrs", 12);
        r.push_str("cached", "memory");
        let line = r.to_line();
        assert!(line.ends_with('\n'));
        assert_eq!(Response::field_num(&line, "code"), Some(200));
        assert_eq!(Response::field_num(&line, "instrs"), Some(12));
        assert_eq!(Response::field_str(&line, "cached").as_deref(), Some("memory"));
        assert_eq!(Response::field_str(&line, "id").as_deref(), Some("x"));
    }

    #[test]
    fn frame_id_survives_malformed_ops() {
        assert_eq!(frame_id("{\"op\":\"warp\",\"id\":\"z9\"}"), "z9");
        assert_eq!(frame_id("total garbage"), "");
    }

    #[test]
    fn envelope_round_trips() {
        let body = compile_line("r1", "hm1", "yalll", "reg a = R0\nexit a\n");
        let wrapped = wrap_envelope("client-7", 42, &body);
        assert!(wrapped.starts_with(ENVELOPE_PREFIX));
        assert!(wrapped.ends_with('\n'));
        match unwrap_envelope(&wrapped) {
            Envelope::Enveloped { cid, rid, body: b } => {
                assert_eq!(cid, "client-7");
                assert_eq!(rid, 42);
                assert_eq!(b, body.trim_end_matches('\n'));
            }
            other => panic!("wrong unwrap: {other:?}"),
        }
        assert_eq!(envelope_body(&wrapped), body.trim_end_matches('\n'));
    }

    #[test]
    fn bare_frames_stay_bare() {
        assert_eq!(unwrap_envelope("{\"op\":\"ping\"}\n"), Envelope::Bare);
        assert_eq!(envelope_body("{\"op\":\"ping\"}\n"), "{\"op\":\"ping\"}\n");
    }

    #[test]
    fn structurally_broken_envelopes_are_corrupt() {
        for bad in [
            "@mcc1 \n",
            "@mcc1 c 1\n",
            "@mcc1 c 1 abcd\n",
            "@mcc1  1 0000000000000000 {}\n",
            "@mcc1 c x 0000000000000000 {}\n",
            "@mcc1 c 1 zzzzzzzzzzzzzzzz {}\n",
            "@mcc1 c 1 00000000000000000 {}\n",
        ] {
            assert!(
                matches!(unwrap_envelope(bad), Envelope::Corrupt(_)),
                "accepted: {bad:?}"
            );
        }
    }

    #[test]
    fn checksum_mismatch_is_corrupt() {
        let wrapped = wrap_envelope("c", 9, "{\"op\":\"ping\"}");
        // Damage the body: the sum no longer matches.
        let tampered = wrapped.replace("ping", "pong");
        assert!(matches!(unwrap_envelope(&tampered), Envelope::Corrupt(_)));
        // Damage the rid: still rejected even though it parses as a number.
        let tampered = wrapped.replacen(" 9 ", " 8 ", 1);
        assert!(matches!(unwrap_envelope(&tampered), Envelope::Corrupt(_)));
    }
}
