//! Binary wire protocol v2: length-prefixed, pipelined, optionally
//! compressed frames.
//!
//! v1 speaks newline-delimited flat JSON, optionally wrapped in the
//! `@mcc1 <cid> <rid> <checksum>` text envelope. v2 promotes those
//! envelope fields into a fixed binary header and length-prefixes the
//! payload so a connection can carry many requests in flight at once —
//! responses are matched to requests by `rid`, not by arrival order.
//!
//! ## Frame layout
//!
//! ```text
//! offset  bytes  field
//! 0       2      magic 0xB5 0x32 ("µ2"; unambiguous vs '{' and '@')
//! 2       1      version (0x02)
//! 3       1      frame type (1 hello, 2 hello-ack, 3 request,
//!                4 response, 5 error)
//! 4       1      flags (bit0: payload is mlz-compressed)
//! 5       var    LEB128 cid length, then that many UTF-8 cid bytes
//! ...     var    LEB128 rid
//! ...     var    LEB128 raw (uncompressed) payload length
//! ...     var    LEB128 wire payload length
//! ...     n      payload bytes
//! ...     8      FNV-1a64 (little-endian) over bytes[2..] up to here
//! ```
//!
//! Every declared length is checked against its cap **before** the
//! payload is buffered: the decoder can refuse a hostile 2 GiB length
//! from the ~20-byte header prefix alone, and the `raw` length bounds
//! decompression so a compressed bomb cannot inflate past
//! [`MAX_FRAME_BYTES`](crate::proto::MAX_FRAME_BYTES).
//!
//! ## Negotiation
//!
//! A v2 client opens with a [`FrameType::Hello`] frame followed by one
//! bait newline. A v2 server ignores inter-frame newlines and answers
//! [`FrameType::HelloAck`] with the negotiated capabilities; a line
//! server reads the hello as garbage and answers its usual bare-JSON
//! 400, which the client reports as [`Handshake::V1Peer`]. A line
//! client's first byte (`{` or `@`) is not the v2 magic, so a server
//! routes that connection to its line loop — one listener serves both
//! dialects.
//!
//! LEB128 decoding is canonical-form-only (no overlong encodings, max
//! 10 bytes), matching the clickhouse-style varint discipline, so every
//! value has exactly one wire image and goldens stay byte-stable.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::time::Duration;

use mcc_harness::sealed::fnv1a;

use crate::proto::{Response, MAX_FRAME_BYTES};

/// Frame magic: 0xB5 ("µ") then '2'. Distinct from v1's first bytes
/// ('{' bare JSON, '@' envelope), which is what makes the per-connection
/// protocol sniff unambiguous.
pub const MAGIC: [u8; 2] = [0xB5, 0x32];

/// Wire protocol version carried in byte 2.
pub const VERSION: u8 = 0x02;

/// Flag bit 0: the payload is mlz-compressed and `raw_len` is the
/// inflated size.
pub const FLAG_COMPRESSED: u8 = 0b0000_0001;

/// Cap on the client-id field; a cid is a short logical name, never a
/// payload.
pub const MAX_CID_BYTES: usize = 256;

/// Bodies shorter than this are never worth compressing; negotiated
/// compression only applies at or above this threshold.
pub const COMPRESS_MIN_BYTES: usize = 512;

/// The server's ceiling on the per-connection in-flight window; the
/// negotiated window is `min(client request, this)`.
pub const SERVER_WINDOW: u32 = 64;

/// Window used for a connection whose peer never sent a hello. Such a
/// peer skipped negotiation, so it gets a conservative pipeline depth
/// and no compression.
pub const DEFAULT_WINDOW: u32 = 16;

// ---------------------------------------------------------------------------
// LEB128 varints
// ---------------------------------------------------------------------------

/// Appends `v` as a canonical unsigned LEB128 varint (1–10 bytes).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Reads one canonical LEB128 varint at `*pos`, advancing it.
///
/// Rejects non-canonical images: more than 10 bytes, a 10th byte using
/// bits beyond the 64th, or an overlong encoding (a terminal zero byte
/// after at least one continuation byte). Every `u64` therefore has
/// exactly one accepted wire image.
///
/// # Errors
///
/// [`DecodeErr::Incomplete`] when the buffer ends mid-varint,
/// [`DecodeErr::Corrupt`] on a non-canonical or over-wide image.
pub fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, DecodeErr> {
    let start = *pos;
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&b) = buf.get(*pos) else {
            return Err(DecodeErr::Incomplete);
        };
        *pos += 1;
        let nbytes = *pos - start;
        if nbytes == 10 && (b & 0x80 != 0 || b > 0x01) {
            return Err(DecodeErr::Corrupt("varint wider than 64 bits".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            if b == 0 && nbytes > 1 {
                return Err(DecodeErr::Corrupt("overlong varint encoding".into()));
            }
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// mlz: the homegrown threshold-gated payload compressor
// ---------------------------------------------------------------------------
//
// No compression crate is vendored, so v2 carries its own little LZ77:
// a 4-byte-prefix hash table finds matches within a 64 KiB window, and
// the stream is LZ4-flavoured sequences of
//
//   token(lit<<4 | match) [lit 0xFF-extensions] literals
//   [offset u16 LE] [match 0xFF-extensions]
//
// where match nibble 0 marks the terminal literals-only sequence,
// nibble 1..=14 encodes match length 4..=17, and nibble 15 adds
// 255-saturating extension bytes on top of length 18. Decompression is
// bounds-checked against a caller-supplied `max_out` so a declared-size
// lie can never balloon memory.

const MLZ_HASH_BITS: u32 = 13;
const MLZ_MIN_MATCH: usize = 4;
const MLZ_MAX_OFFSET: usize = 0xFFFF;

fn mlz_push_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(255);
        v -= 255;
    }
    out.push(v as u8);
}

fn mlz_read_ext(src: &[u8], i: &mut usize) -> Result<usize, String> {
    let mut total = 0usize;
    loop {
        let Some(&b) = src.get(*i) else {
            return Err("mlz: truncated length extension".into());
        };
        *i += 1;
        total += b as usize;
        if b != 255 {
            return Ok(total);
        }
        if total > MAX_FRAME_BYTES {
            return Err("mlz: length extension exceeds the frame cap".into());
        }
    }
}

fn mlz_emit(out: &mut Vec<u8>, lits: &[u8], m: Option<(u16, usize)>) {
    let lit_nibble = lits.len().min(15);
    let (match_nibble, ext) = match m {
        None => (0usize, None),
        Some((_, ml)) => {
            debug_assert!(ml >= MLZ_MIN_MATCH);
            let coded = ml - (MLZ_MIN_MATCH - 1);
            if coded <= 14 {
                (coded, None)
            } else {
                (15, Some(ml - (MLZ_MIN_MATCH + 14)))
            }
        }
    };
    out.push(((lit_nibble as u8) << 4) | match_nibble as u8);
    if lit_nibble == 15 {
        mlz_push_ext(out, lits.len() - 15);
    }
    out.extend_from_slice(lits);
    if let Some((off, _)) = m {
        out.extend_from_slice(&off.to_le_bytes());
        if let Some(e) = ext {
            mlz_push_ext(out, e);
        }
    }
}

/// Compresses `src`; the output always ends with a terminal sequence, so
/// the empty input compresses to the single byte `0x00`.
pub fn mlz_compress(src: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(src.len() / 2 + 16);
    let mut table = vec![0u32; 1 << MLZ_HASH_BITS];
    let hash = |w: u32| (w.wrapping_mul(2_654_435_761) >> (32 - MLZ_HASH_BITS)) as usize;
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MLZ_MIN_MATCH <= src.len() {
        let w = u32::from_le_bytes(src[i..i + 4].try_into().unwrap());
        let h = hash(w);
        let cand = table[h] as usize;
        table[h] = (i + 1) as u32;
        if cand > 0 {
            let c = cand - 1;
            if i - c <= MLZ_MAX_OFFSET && src[c..c + 4] == src[i..i + 4] {
                let mut ml = MLZ_MIN_MATCH;
                while i + ml < src.len() && src[c + ml] == src[i + ml] {
                    ml += 1;
                }
                mlz_emit(&mut out, &src[lit_start..i], Some(((i - c) as u16, ml)));
                i += ml;
                lit_start = i;
                continue;
            }
        }
        i += 1;
    }
    mlz_emit(&mut out, &src[lit_start..], None);
    out
}

/// Decompresses an mlz stream, refusing to produce more than `max_out`
/// bytes.
///
/// # Errors
///
/// A static description of the first structural problem: truncated
/// token/offset/extension, an offset pointing before the start of the
/// produced output, trailing bytes after the terminal sequence, or an
/// output that would exceed `max_out` (the decompression-bomb cap).
pub fn mlz_decompress(src: &[u8], max_out: usize) -> Result<Vec<u8>, String> {
    let mut out: Vec<u8> = Vec::with_capacity(src.len().min(max_out));
    let mut i = 0usize;
    loop {
        let Some(&tok) = src.get(i) else {
            return Err("mlz: truncated stream (missing token)".into());
        };
        i += 1;
        let mut lit = (tok >> 4) as usize;
        if lit == 15 {
            lit += mlz_read_ext(src, &mut i)?;
        }
        if i + lit > src.len() {
            return Err("mlz: truncated literal run".into());
        }
        if out.len() + lit > max_out {
            return Err("mlz: output exceeds the declared size".into());
        }
        out.extend_from_slice(&src[i..i + lit]);
        i += lit;
        let m = (tok & 0x0F) as usize;
        if m == 0 {
            if i != src.len() {
                return Err("mlz: trailing bytes after the terminal sequence".into());
            }
            return Ok(out);
        }
        if i + 2 > src.len() {
            return Err("mlz: truncated match offset".into());
        }
        let off = u16::from_le_bytes([src[i], src[i + 1]]) as usize;
        i += 2;
        let mut ml = m + (MLZ_MIN_MATCH - 1);
        if m == 15 {
            ml = MLZ_MIN_MATCH + 14 + mlz_read_ext(src, &mut i)?;
        }
        if off == 0 || off > out.len() {
            return Err("mlz: match offset outside the produced output".into());
        }
        if out.len() + ml > max_out {
            return Err("mlz: output exceeds the declared size".into());
        }
        let start = out.len() - off;
        for k in 0..ml {
            let b = out[start + k];
            out.push(b);
        }
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// The five v2 frame types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Client capability offer; first frame on a v2 connection.
    Hello,
    /// Server's negotiated reply to a hello.
    HelloAck,
    /// One request; the body is the same flat JSON a v1 line carries.
    Request,
    /// One response, matched to its request by (cid, rid).
    Response,
    /// A connection-fatal protocol error; the sender closes after it.
    Error,
}

impl FrameType {
    fn code(self) -> u8 {
        match self {
            FrameType::Hello => 1,
            FrameType::HelloAck => 2,
            FrameType::Request => 3,
            FrameType::Response => 4,
            FrameType::Error => 5,
        }
    }

    fn from_code(b: u8) -> Option<FrameType> {
        match b {
            1 => Some(FrameType::Hello),
            2 => Some(FrameType::HelloAck),
            3 => Some(FrameType::Request),
            4 => Some(FrameType::Response),
            5 => Some(FrameType::Error),
            _ => None,
        }
    }
}

/// One decoded v2 frame. The body never carries a trailing newline on
/// the wire; line-oriented callers append one after decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    pub ftype: FrameType,
    pub cid: String,
    pub rid: u64,
    pub body: String,
}

/// Decoder outcome for a partial buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeErr {
    /// More bytes are needed; nothing is wrong yet.
    Incomplete,
    /// The stream is structurally invalid and cannot be resynchronized.
    Corrupt(String),
}

/// Structural faults reported by [`frame_len`], split so callers can
/// count an oversized declaration separately from plain corruption.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// A declared length exceeds its cap. Detected from the header
    /// prefix alone, before any payload byte is buffered.
    Oversized(String),
    /// Bad magic/version/type/flags or a malformed varint.
    Corrupt(String),
}

impl FrameFault {
    /// The human-readable reason, whichever variant carries it.
    pub fn reason(&self) -> &str {
        match self {
            FrameFault::Oversized(s) | FrameFault::Corrupt(s) => s,
        }
    }
}

/// Encodes one frame, appending to `out`. When `compress_min` is set and
/// the body is at least that long, the payload is mlz-compressed —
/// but only kept if strictly smaller than the raw body. Returns whether
/// the emitted frame ended up compressed.
pub fn encode_frame(
    out: &mut Vec<u8>,
    ftype: FrameType,
    cid: &str,
    rid: u64,
    body: &str,
    compress_min: Option<usize>,
) -> bool {
    debug_assert!(cid.len() <= MAX_CID_BYTES, "cid exceeds MAX_CID_BYTES");
    let raw = body.as_bytes();
    let mut compressed_payload = None;
    if let Some(min) = compress_min {
        if raw.len() >= min {
            let c = mlz_compress(raw);
            if c.len() < raw.len() {
                compressed_payload = Some(c);
            }
        }
    }
    let (flags, payload): (u8, &[u8]) = match &compressed_payload {
        Some(c) => (FLAG_COMPRESSED, c.as_slice()),
        None => (0, raw),
    };
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(ftype.code());
    out.push(flags);
    write_varint(out, cid.len() as u64);
    out.extend_from_slice(cid.as_bytes());
    write_varint(out, rid);
    write_varint(out, raw.len() as u64);
    write_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    let sum = fnv1a(&out[start + 2..]);
    out.extend_from_slice(&sum.to_le_bytes());
    flags & FLAG_COMPRESSED != 0
}

/// Walks the header prefix at `buf[0]` and returns the total frame
/// length once enough bytes are present (`Ok(None)` = feed more).
///
/// Every declared length is validated here, against its cap,
/// **before** the caller buffers the payload — the fix for the v1-only
/// `MAX_FRAME_BYTES` enforcement. Readers reach it through
/// [`next_frame`].
///
/// # Errors
///
/// [`FrameFault::Oversized`] when a declared cid/payload/raw length
/// exceeds its cap; [`FrameFault::Corrupt`] for bad
/// magic/version/type/flags or malformed varints.
pub fn frame_len(buf: &[u8]) -> Result<Option<usize>, FrameFault> {
    let corrupt = |s: &str| FrameFault::Corrupt(s.into());
    match buf.first() {
        None => return Ok(None),
        Some(&b) if b != MAGIC[0] => return Err(corrupt("bad frame magic")),
        Some(_) => {}
    }
    match buf.get(1) {
        None => return Ok(None),
        Some(&b) if b != MAGIC[1] => return Err(corrupt("bad frame magic")),
        Some(_) => {}
    }
    match buf.get(2) {
        None => return Ok(None),
        Some(&VERSION) => {}
        Some(_) => return Err(corrupt("unsupported protocol version")),
    }
    match buf.get(3) {
        None => return Ok(None),
        Some(&b) if FrameType::from_code(b).is_none() => {
            return Err(corrupt("unknown frame type"))
        }
        Some(_) => {}
    }
    match buf.get(4) {
        None => return Ok(None),
        Some(&b) if b & !FLAG_COMPRESSED != 0 => return Err(corrupt("unknown frame flags")),
        Some(_) => {}
    }
    let mut pos = 5;
    let take = |r: Result<u64, DecodeErr>| match r {
        Ok(v) => Ok(Some(v)),
        Err(DecodeErr::Incomplete) => Ok(None),
        Err(DecodeErr::Corrupt(s)) => Err(FrameFault::Corrupt(s)),
    };
    let Some(cid_len) = take(read_varint(buf, &mut pos))? else {
        return Ok(None);
    };
    if cid_len > MAX_CID_BYTES as u64 {
        return Err(FrameFault::Oversized(format!(
            "declared cid length {cid_len} exceeds the {MAX_CID_BYTES}-byte cap"
        )));
    }
    pos += cid_len as usize;
    let Some(_rid) = take(read_varint(buf, &mut pos))? else {
        return Ok(None);
    };
    let Some(raw_len) = take(read_varint(buf, &mut pos))? else {
        return Ok(None);
    };
    if raw_len > MAX_FRAME_BYTES as u64 {
        return Err(FrameFault::Oversized(format!(
            "declared raw length {raw_len} exceeds the {MAX_FRAME_BYTES}-byte frame cap"
        )));
    }
    let Some(pay_len) = take(read_varint(buf, &mut pos))? else {
        return Ok(None);
    };
    if pay_len > MAX_FRAME_BYTES as u64 {
        return Err(FrameFault::Oversized(format!(
            "declared payload length {pay_len} exceeds the {MAX_FRAME_BYTES}-byte frame cap"
        )));
    }
    Ok(Some(pos + pay_len as usize + 8))
}

/// The framing step every v2 reader shares — the server loop, the
/// client, and the chaos proxy's binary relay: counts the bait newlines
/// at the head of a receive accumulator and measures the frame after
/// them. Returns `(bait, Some(len))` once `acc[bait..bait + len]` holds
/// one whole frame, `(bait, None)` while more bytes are needed. A reader
/// that drops bait drains it either way, so a peer streaming newlines
/// cannot grow its buffer.
///
/// # Errors
///
/// The [`frame_len`] fault of the frame after the bait.
pub fn next_frame(acc: &[u8]) -> Result<(usize, Option<usize>), FrameFault> {
    let bait = acc.iter().take_while(|b| **b == b'\n').count();
    let len = frame_len(&acc[bait..])?.filter(|len| bait + len <= acc.len());
    Ok((bait, len))
}

/// Decodes the frame at `buf[0]`, returning it and the bytes consumed.
///
/// The checksum is verified before decompression, so a corrupted
/// compressed payload is rejected without running the decompressor.
///
/// # Errors
///
/// [`DecodeErr::Incomplete`] if the buffer does not yet hold the whole
/// frame; [`DecodeErr::Corrupt`] for any structural fault, including
/// checksum mismatch, non-UTF-8 cid/body, and raw/payload length
/// disagreements.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), DecodeErr> {
    let total = match frame_len(buf) {
        Ok(Some(t)) => t,
        Ok(None) => return Err(DecodeErr::Incomplete),
        Err(f) => return Err(DecodeErr::Corrupt(f.reason().to_string())),
    };
    if buf.len() < total {
        return Err(DecodeErr::Incomplete);
    }
    let corrupt = |s: &str| DecodeErr::Corrupt(s.into());
    let ftype = FrameType::from_code(buf[3]).expect("frame_len validated the type");
    let flags = buf[4];
    let mut pos = 5;
    let cid_len = read_varint(buf, &mut pos)? as usize;
    let cid = std::str::from_utf8(&buf[pos..pos + cid_len])
        .map_err(|_| corrupt("client id is not UTF-8"))?
        .to_string();
    pos += cid_len;
    let rid = read_varint(buf, &mut pos)?;
    let raw_len = read_varint(buf, &mut pos)? as usize;
    let pay_len = read_varint(buf, &mut pos)? as usize;
    let payload = &buf[pos..pos + pay_len];
    let sum_off = pos + pay_len;
    let want = u64::from_le_bytes(buf[sum_off..sum_off + 8].try_into().unwrap());
    if fnv1a(&buf[2..sum_off]) != want {
        return Err(corrupt("frame checksum mismatch"));
    }
    let body_bytes = if flags & FLAG_COMPRESSED != 0 {
        let inflated = mlz_decompress(payload, raw_len).map_err(DecodeErr::Corrupt)?;
        if inflated.len() != raw_len {
            return Err(corrupt("decompressed length disagrees with the header"));
        }
        inflated
    } else {
        if raw_len != pay_len {
            return Err(corrupt("raw/payload length mismatch on an uncompressed frame"));
        }
        payload.to_vec()
    };
    let body =
        String::from_utf8(body_bytes).map_err(|_| corrupt("frame body is not UTF-8"))?;
    Ok((Frame { ftype, cid, rid, body }, total))
}

/// Renders bytes as the pinned golden-fixture format: 16 lowercase hex
/// bytes per line, space-separated.
pub fn hexdump(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 3 + 8);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 {
            out.push(if i % 16 == 0 { '\n' } else { ' ' });
        }
        out.push_str(&format!("{b:02x}"));
    }
    out.push('\n');
    out
}

// ---------------------------------------------------------------------------
// Hello negotiation
// ---------------------------------------------------------------------------

/// Capabilities carried by hello and hello-ack bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// Peer is willing to send and receive mlz-compressed payloads.
    pub compress: bool,
    /// Requested (hello) or granted (hello-ack) in-flight window.
    pub window: u32,
}

impl Caps {
    /// The no-negotiation fallback: serial requests, no compression.
    pub fn off() -> Caps {
        Caps { compress: false, window: 1 }
    }
}

/// Renders a hello/hello-ack body (flat JSON, like every other body).
pub fn hello_body(caps: &Caps) -> String {
    format!(
        "{{\"hello\":\"mcc2\",\"compress\":{},\"window\":{}}}",
        u8::from(caps.compress),
        caps.window
    )
}

/// Parses a hello/hello-ack body; `None` if it is not one.
pub fn parse_hello(body: &str) -> Option<Caps> {
    use mcc_harness::json::{get_num, get_str, parse_object};
    let fields = parse_object(body.trim())?;
    if get_str(&fields, "hello")? != "mcc2" {
        return None;
    }
    let compress = get_num(&fields, "compress")? != 0;
    let window = u32::try_from(get_num(&fields, "window")?).ok()?;
    Some(Caps { compress, window })
}

/// The server's side of negotiation: compression only if both ends have
/// it, window clamped to `[1, SERVER_WINDOW]`.
pub fn negotiate(client: &Caps) -> Caps {
    Caps {
        compress: client.compress,
        window: client.window.clamp(1, SERVER_WINDOW),
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Outcome of a v2 handshake attempt against an unknown peer.
pub enum Handshake {
    /// The peer acked the hello; speak v2 on this connection.
    V2(Client),
    /// The peer answered with the line loop's bare-JSON 400 — it is a
    /// line-protocol server. The socket has been consumed.
    V1Peer,
}

/// A v2 client connection: hello-negotiated, pipelining-capable, with
/// reusable encode/accumulate buffers so steady-state calls allocate
/// only the returned body. It is its two halves, held together until a
/// pipelined caller [`split`](Client::split)s them.
pub struct Client {
    tx: ClientSender,
    rx: ClientReceiver,
    /// Negotiated capabilities (the send half holds the same).
    pub caps: Caps,
}

impl Client {
    /// Performs the v2 handshake on a fresh stream: sends a hello frame
    /// plus one bait newline, then classifies the peer by its first
    /// reply byte. A v1 server line-reads the bait and answers a bare
    /// 400 (`V1Peer`); a v2 server answers a hello-ack.
    ///
    /// # Errors
    ///
    /// Connection-level failures: timeouts, close during handshake, or a
    /// first reply that is neither a hello-ack nor v1's bare 400.
    pub fn handshake(
        stream: TcpStream,
        read_timeout: Option<Duration>,
        want: &Caps,
    ) -> Result<Handshake, String> {
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(read_timeout)
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        let mut w = stream.try_clone().map_err(|e| format!("clone stream: {e}"))?;
        let mut ebuf = Vec::with_capacity(128);
        encode_frame(&mut ebuf, FrameType::Hello, "", 0, &hello_body(want), None);
        ebuf.push(b'\n');
        crate::tcp::write_frame(&mut w, &ebuf).map_err(|e| format!("hello write: {e}"))?;
        ebuf.clear();
        let mut c = Client {
            tx: ClientSender { w, ebuf, caps: Caps::off() },
            rx: ClientReceiver { r: BufReader::new(stream), acc: Vec::new() },
            caps: Caps::off(),
        };
        let first = c.peek_byte()?;
        if first != MAGIC[0] {
            let line = c.read_bare_line()?;
            if Response::field_num(&line, "code") == Some(400)
                && line.contains("not a flat JSON object")
            {
                return Ok(Handshake::V1Peer);
            }
            return Err(format!(
                "peer answered the hello with junk: {}",
                line.trim_end()
            ));
        }
        let ack = c.recv()?;
        if ack.ftype != FrameType::HelloAck {
            return Err("peer answered the hello with a non-ack frame".into());
        }
        let granted =
            parse_hello(&ack.body).ok_or_else(|| "malformed hello-ack body".to_string())?;
        c.caps = Caps {
            compress: want.compress && granted.compress,
            window: granted.window.max(1),
        };
        c.tx.caps = c.caps;
        Ok(Handshake::V2(c))
    }

    fn peek_byte(&mut self) -> Result<u8, String> {
        loop {
            match self.rx.r.fill_buf() {
                Ok([]) => return Err("peer closed during the v2 handshake".into()),
                Ok(chunk) => return Ok(chunk[0]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err("v2 handshake timed out".into())
                }
                Err(e) => return Err(format!("v2 handshake read: {e}")),
            }
        }
    }

    fn read_bare_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        loop {
            match self.rx.r.read_line(&mut line) {
                Ok(_) => return Ok(line),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("handshake line read: {e}")),
            }
        }
    }

    /// [`ClientSender::send`]: sends one frame without waiting for the
    /// response — the pipelining primitive.
    ///
    /// # Errors
    ///
    /// The underlying socket write error, stringified.
    pub fn send(&mut self, ftype: FrameType, cid: &str, rid: u64, body: &str) -> Result<(), String> {
        self.tx.send(ftype, cid, rid, body)
    }

    /// [`ClientReceiver::recv`]: receives the next frame, blocking up to
    /// the stream's read timeout.
    ///
    /// # Errors
    ///
    /// Timeout, peer close, or a corrupt stream — all transport-level;
    /// a v2 stream cannot be resynchronized after corruption.
    pub fn recv(&mut self) -> Result<Frame, String> {
        self.rx.recv()
    }

    /// Splits the client into independently owned send and receive
    /// halves, so a pipelined caller can pace requests from one thread
    /// while another drains responses as they arrive — without a
    /// full-window stall serializing the two directions.
    pub fn split(self) -> (ClientSender, ClientReceiver) {
        (self.tx, self.rx)
    }

    /// One serial round trip: send a request, wait for the response with
    /// a matching (cid, rid), discarding stale responses and redundant
    /// hello-acks along the way. Returns the body with a trailing
    /// newline, matching what a v1 round trip yields.
    ///
    /// # Errors
    ///
    /// Transport failures from [`Client::send`]/[`Client::recv`], an
    /// error frame from the peer, or an unexpected frame type.
    pub fn call(&mut self, cid: &str, rid: u64, body: &str) -> Result<String, String> {
        self.send(FrameType::Request, cid, rid, body)?;
        loop {
            let f = self.recv()?;
            match f.ftype {
                FrameType::Response if f.cid == cid && f.rid == rid => {
                    return Ok(format!("{}\n", f.body));
                }
                FrameType::Response | FrameType::HelloAck => continue,
                FrameType::Error => {
                    return Err(format!("peer error frame: {}", f.body));
                }
                FrameType::Hello | FrameType::Request => {
                    return Err("unexpected frame type from the server".into());
                }
            }
        }
    }
}

/// The send half of a [`Client`]: owns the write stream, the reusable
/// encode buffer, and the negotiated capabilities.
pub struct ClientSender {
    w: TcpStream,
    ebuf: Vec<u8>,
    /// Negotiated capabilities (the receive half carries none).
    pub caps: Caps,
}

impl ClientSender {
    /// Sends one frame without waiting for the response. Compression
    /// follows the negotiated capability and the [`COMPRESS_MIN_BYTES`]
    /// threshold. Flushes anything queued first, preserving frame order.
    ///
    /// # Errors
    ///
    /// The underlying socket write error, stringified.
    pub fn send(&mut self, ftype: FrameType, cid: &str, rid: u64, body: &str) -> Result<(), String> {
        self.queue(ftype, cid, rid, body);
        self.flush()
    }

    /// Encodes one frame into the send buffer without writing it — the
    /// batching primitive. A backlogged pipelining client queues every
    /// request already due and puts them all on the wire with one
    /// [`ClientSender::flush`], amortizing the write syscall and the
    /// wakeups it causes across the whole batch.
    pub fn queue(&mut self, ftype: FrameType, cid: &str, rid: u64, body: &str) {
        let min = self.caps.compress.then_some(COMPRESS_MIN_BYTES);
        encode_frame(&mut self.ebuf, ftype, cid, rid, body.trim_end_matches('\n'), min);
    }

    /// Writes every queued frame in one syscall; a no-op with nothing
    /// queued.
    ///
    /// # Errors
    ///
    /// The underlying socket write error, stringified.
    pub fn flush(&mut self) -> Result<(), String> {
        if self.ebuf.is_empty() {
            return Ok(());
        }
        let r = crate::tcp::write_frame(&mut self.w, &self.ebuf)
            .map_err(|e| format!("frame write: {e}"));
        crate::buf::shrink_reusable(&mut self.ebuf);
        r
    }
}

/// The receive half of a [`Client`]: owns the buffered read stream and
/// the frame accumulator.
pub struct ClientReceiver {
    r: BufReader<TcpStream>,
    acc: Vec<u8>,
}

impl ClientReceiver {
    /// Receives the next frame, blocking up to the stream's read
    /// timeout: [`ClientReceiver::recv_ready`] with a read that times
    /// out (or would block) as an error.
    ///
    /// # Errors
    ///
    /// Timeout, peer close, or a corrupt stream — all transport-level;
    /// a v2 stream cannot be resynchronized after corruption.
    pub fn recv(&mut self) -> Result<Frame, String> {
        self.recv_ready()?
            .ok_or_else(|| "v2 read timed out".to_string())
    }

    /// Toggles non-blocking mode on the underlying socket. The mode is
    /// shared with the send half (same file description), so only flip
    /// it when no send is in progress — i.e. from the thread that owns
    /// both halves, strictly between sends.
    ///
    /// # Errors
    ///
    /// The underlying `FIONBIO` ioctl error, stringified.
    pub fn set_nonblocking(&self, nb: bool) -> Result<(), String> {
        self.r
            .get_ref()
            .set_nonblocking(nb)
            .map_err(|e| format!("set_nonblocking: {e}"))
    }

    /// Receives one frame if one is already buffered or readable right
    /// now; `Ok(None)` once the socket has nothing more (`WouldBlock`,
    /// or a blocking read's timeout). In non-blocking mode this is the
    /// opportunistic drain primitive: a pipelined sender calls it
    /// between sends so responses never sit unread in the socket
    /// inflating their own measured latency.
    ///
    /// # Errors
    ///
    /// Peer close or a corrupt stream.
    pub fn recv_ready(&mut self) -> Result<Option<Frame>, String> {
        loop {
            let (bait, len) =
                next_frame(&self.acc).map_err(|f| format!("corrupt v2 stream: {}", f.reason()))?;
            self.acc.drain(..bait);
            if let Some(len) = len {
                let frame = match decode_frame(&self.acc) {
                    Ok((f, _)) => f,
                    Err(DecodeErr::Corrupt(s)) => return Err(format!("corrupt v2 frame: {s}")),
                    Err(DecodeErr::Incomplete) => unreachable!("next_frame found it whole"),
                };
                self.acc.drain(..len);
                return Ok(Some(frame));
            }
            match self.r.fill_buf() {
                Ok([]) => return Err("peer closed mid-frame".into()),
                Ok(chunk) => {
                    let n = chunk.len();
                    self.acc.extend_from_slice(chunk);
                    self.r.consume(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(format!("v2 read: {e}")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(ftype: FrameType, cid: &str, rid: u64, body: &str, min: Option<usize>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(&mut out, ftype, cid, rid, body, min);
        out
    }

    #[test]
    fn varint_round_trips_boundary_values() {
        for v in [0u64, 1, 127, 128, 129, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        let mut max = Vec::new();
        write_varint(&mut max, u64::MAX);
        assert_eq!(max.len(), 10, "u64::MAX is the max-width varint");
    }

    #[test]
    fn varint_rejects_overlong_and_overwide_images() {
        let overlong_zero = [0x80u8, 0x00];
        let mut pos = 0;
        assert!(matches!(
            read_varint(&overlong_zero, &mut pos),
            Err(DecodeErr::Corrupt(_))
        ));
        let overwide = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        pos = 0;
        assert!(matches!(
            read_varint(&overwide, &mut pos),
            Err(DecodeErr::Corrupt(_))
        ));
        let never_ends = [0x80u8; 10];
        pos = 0;
        assert!(matches!(
            read_varint(&never_ends, &mut pos),
            Err(DecodeErr::Corrupt(_))
        ));
        pos = 0;
        assert_eq!(read_varint(&[0x80, 0x01], &mut pos), Ok(128));
    }

    #[test]
    fn frame_round_trips_with_and_without_compression() {
        let body = "{\"id\":\"k1\",\"code\":200}".repeat(40);
        for min in [None, Some(1)] {
            let bytes = frame_bytes(FrameType::Request, "bench", 7, &body, min);
            let (f, used) = decode_frame(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            assert_eq!(f.ftype, FrameType::Request);
            assert_eq!(f.cid, "bench");
            assert_eq!(f.rid, 7);
            assert_eq!(f.body, body);
        }
        let plain = frame_bytes(FrameType::Request, "bench", 7, &body, None);
        let squeezed = frame_bytes(FrameType::Request, "bench", 7, &body, Some(1));
        assert!(
            squeezed.len() < plain.len(),
            "a repetitive body actually compresses"
        );
    }

    #[test]
    fn declared_lengths_are_capped_before_any_payload_arrives() {
        // Header that declares a 2 MiB payload; no payload bytes follow.
        let mut header = vec![MAGIC[0], MAGIC[1], VERSION, 3, 0];
        write_varint(&mut header, 0); // cid len
        write_varint(&mut header, 1); // rid
        write_varint(&mut header, 2 * 1024 * 1024); // raw len: over cap
        match frame_len(&header) {
            Err(FrameFault::Oversized(msg)) => {
                assert!(msg.contains("raw length"), "unexpected reason: {msg}")
            }
            other => panic!("expected Oversized before payload arrival, got {other:?}"),
        }
        // Same for the wire-payload length.
        let mut header = vec![MAGIC[0], MAGIC[1], VERSION, 3, 0];
        write_varint(&mut header, 0);
        write_varint(&mut header, 1);
        write_varint(&mut header, 10);
        write_varint(&mut header, 2 * 1024 * 1024);
        assert!(matches!(frame_len(&header), Err(FrameFault::Oversized(_))));
        // And the cid length.
        let mut header = vec![MAGIC[0], MAGIC[1], VERSION, 3, 0];
        write_varint(&mut header, 100_000);
        assert!(matches!(frame_len(&header), Err(FrameFault::Oversized(_))));
    }

    #[test]
    fn decompression_bomb_is_refused_by_the_raw_length_cap() {
        // A tiny stream that inflates 255x per sequence: matches over a
        // one-byte window.
        let mut bomb = Vec::new();
        bomb.push(0x1F); // 1 literal, match nibble 15
        bomb.push(b'A');
        bomb.extend_from_slice(&1u16.to_le_bytes());
        mlz_push_ext(&mut bomb, 100_000);
        bomb.push(0x00); // terminal
        let err = mlz_decompress(&bomb, 1024).unwrap_err();
        assert!(err.contains("exceeds the declared size"), "got: {err}");
        // The same stream inflates fine when the cap allows it.
        let ok = mlz_decompress(&bomb, 1 << 20).unwrap();
        assert_eq!(ok.len(), 1 + MLZ_MIN_MATCH + 14 + 100_000);
        assert!(ok.iter().all(|&b| b == b'A'));
    }

    #[test]
    fn mlz_round_trips_assorted_shapes() {
        let cases: Vec<Vec<u8>> = vec![
            Vec::new(),
            b"a".to_vec(),
            b"abcd".to_vec(),
            b"abcabcabcabcabcabc".to_vec(),
            vec![0u8; 5000],
            (0..=255u8).cycle().take(4096).collect(),
            b"{\"id\":\"k1\",\"code\":200,\"checksum\":\"deadbeef\"}".repeat(30),
        ];
        for case in cases {
            let c = mlz_compress(&case);
            let d = mlz_decompress(&c, case.len()).unwrap();
            assert_eq!(d, case);
        }
    }

    #[test]
    fn truncated_compressed_payload_is_always_an_error() {
        let body = b"the quick brown fox jumps over the lazy dog ".repeat(40);
        let c = mlz_compress(&body);
        for cut in 0..c.len() {
            assert!(
                mlz_decompress(&c[..cut], body.len()).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn decoder_skips_nothing_but_caller_strips_bait_newlines() {
        let bytes = frame_bytes(FrameType::Hello, "", 0, &hello_body(&Caps { compress: true, window: 8 }), None);
        let mut with_bait = bytes.clone();
        with_bait.push(b'\n');
        let (f, used) = decode_frame(&with_bait).unwrap();
        assert_eq!(used, bytes.len(), "the bait newline is not part of the frame");
        assert_eq!(f.ftype, FrameType::Hello);
        assert_eq!(parse_hello(&f.body), Some(Caps { compress: true, window: 8 }));
    }

    #[test]
    fn negotiate_clamps_the_window() {
        let granted = negotiate(&Caps { compress: true, window: 10_000 });
        assert_eq!(granted.window, SERVER_WINDOW);
        assert!(granted.compress);
        let granted = negotiate(&Caps { compress: false, window: 0 });
        assert_eq!(granted.window, 1);
        assert!(!granted.compress);
    }

    #[test]
    fn hexdump_is_sixteen_bytes_per_line() {
        let dump = hexdump(&[0xB5, 0x32, 0x02]);
        assert_eq!(dump, "b5 32 02\n");
        let dump = hexdump(&(0..18u8).collect::<Vec<_>>());
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("00 01"));
        assert!(lines[1].starts_with("10 11"));
    }
}
