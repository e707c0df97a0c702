//! Pins what the v2 frame readers return, stream by stream.
//!
//! A loopback peer answers the client's hello with a hello-ack, then
//! writes a fixed stream of response frames (raw, compressed, empty and
//! large bodies, with bait newlines before and between them) that ends
//! in one terminal fault. The stream goes out in 1-byte writes, 7-byte
//! writes and one write. `Client::recv`, a split `ClientReceiver::recv`
//! and a non-blocking `ClientReceiver::recv_ready` must each return
//! every frame and then the same error. A chaos proxy that injects
//! nothing must relay v2 bytes verbatim in both directions.

use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use mcc_chaosnet::{ChaosProxy, FaultPlan};
use mcc_serve::proto::MAX_FRAME_BYTES;
use mcc_serve::proto2::{
    self, Caps, Client, DecodeErr, Frame, FrameType, Handshake, COMPRESS_MIN_BYTES,
};

const PATIENCE: Duration = Duration::from_secs(10);

/// The four body shapes every stream carries, in order, each with
/// whether its frame is sent compressed.
fn shapes() -> Vec<(String, bool)> {
    let large: String = (0..700u32)
        .map(|i| char::from(b'a' + (i.wrapping_mul(7919) % 26) as u8))
        .collect();
    vec![
        ("{\"id\":\"a\",\"code\":200}".to_string(), false),
        ("{\"id\":\"b\",\"code\":200}".repeat(40), true),
        (String::new(), false),
        (large, false),
    ]
}

/// Encodes one frame; asserts it went out compressed exactly when asked.
fn encode(ftype: FrameType, rid: u64, body: &str, compress: bool) -> Vec<u8> {
    let mut out = Vec::new();
    let min = compress.then_some(COMPRESS_MIN_BYTES);
    let squeezed = proto2::encode_frame(&mut out, ftype, "pin", rid, body, min);
    assert_eq!(squeezed, compress, "rid {rid}: compression as asked");
    out
}

/// The terminal faults, each with the error every reader must report.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Checksum,
    Oversized,
    Magic,
    Eof,
}

impl Fault {
    fn bytes(self) -> Vec<u8> {
        let mut frame = encode(FrameType::Response, 9, "{\"code\":200}", false);
        match self {
            Fault::Checksum => *frame.last_mut().unwrap() ^= 0xFF,
            Fault::Oversized => {
                frame = vec![proto2::MAGIC[0], proto2::MAGIC[1], proto2::VERSION, 4, 0];
                proto2::write_varint(&mut frame, 0);
                proto2::write_varint(&mut frame, 9);
                proto2::write_varint(&mut frame, 10);
                proto2::write_varint(&mut frame, MAX_FRAME_BYTES as u64 + 1);
            }
            Fault::Magic => frame[1] ^= 0x01,
            Fault::Eof => frame.truncate(frame.len() / 2),
        }
        frame
    }

    fn error(self) -> String {
        match self {
            Fault::Checksum => "corrupt v2 frame: frame checksum mismatch".into(),
            Fault::Oversized => format!(
                "corrupt v2 stream: declared payload length {} exceeds the {MAX_FRAME_BYTES}-byte frame cap",
                MAX_FRAME_BYTES + 1
            ),
            Fault::Magic => "corrupt v2 stream: bad frame magic".into(),
            Fault::Eof => "peer closed mid-frame".into(),
        }
    }
}

/// The response frames of a stream, and its bytes ending in `fault`.
fn stream(fault: Fault) -> (Vec<Frame>, Vec<u8>) {
    let mut frames = Vec::new();
    let mut bytes = b"\n".to_vec();
    for (rid, (body, compress)) in (1u64..).zip(shapes()) {
        bytes.extend_from_slice(&encode(FrameType::Response, rid, &body, compress));
        bytes.extend_from_slice(&b"\n\n"[..rid as usize % 3]);
        frames.push(Frame {
            ftype: FrameType::Response,
            cid: "pin".into(),
            rid,
            body,
        });
    }
    bytes.extend_from_slice(&fault.bytes());
    (frames, bytes)
}

/// Reads any bait newlines and one whole frame, appending every byte
/// read to `raw`; `None` at a clean end of stream.
fn read_frame_raw(r: &mut impl Read, raw: &mut Vec<u8>) -> Option<Frame> {
    let start = raw.len();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte) {
            Ok(0) => {
                assert!(
                    raw[start..].iter().all(|b| *b == b'\n'),
                    "stream ended mid-frame"
                );
                return None;
            }
            Ok(_) => raw.push(byte[0]),
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => panic!("read: {e}"),
        }
        let unit = &raw[start..];
        let bait = unit.iter().take_while(|b| **b == b'\n').count();
        match proto2::decode_frame(&unit[bait..]) {
            Ok((f, _)) => return Some(f),
            Err(DecodeErr::Incomplete) => {}
            Err(DecodeErr::Corrupt(e)) => panic!("corrupt frame: {e}"),
        }
    }
}

/// The hello-ack a v2 server answers `hello` with.
fn ack_for(hello: &Frame) -> Vec<u8> {
    assert_eq!(hello.ftype, FrameType::Hello);
    let granted = proto2::negotiate(&proto2::parse_hello(&hello.body).expect("a hello body"));
    let mut out = Vec::new();
    proto2::encode_frame(
        &mut out,
        FrameType::HelloAck,
        "",
        0,
        &proto2::hello_body(&granted),
        None,
    );
    out
}

/// A peer for one connection: reads the hello and its bait newline,
/// acks, writes `bytes` in `chunk`-byte writes (0: one write), then
/// closes its write side and waits for the client to hang up, so the
/// close is a FIN, never a reset.
fn serve_stream(listener: TcpListener, bytes: Vec<u8>, chunk: usize) -> thread::JoinHandle<()> {
    thread::spawn(move || {
        let (s, _) = listener.accept().unwrap();
        s.set_nodelay(true).unwrap();
        s.set_read_timeout(Some(PATIENCE)).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut w = s;
        let mut raw = Vec::new();
        let hello = read_frame_raw(&mut r, &mut raw).expect("a hello");
        let mut bait = [0u8; 1];
        r.read_exact(&mut bait).unwrap();
        assert_eq!(bait, *b"\n", "the hello carries one bait newline");
        w.write_all(&ack_for(&hello)).unwrap();
        let size = if chunk == 0 { bytes.len() } else { chunk };
        for piece in bytes.chunks(size) {
            if w.write_all(piece).is_err() {
                break;
            }
        }
        let _ = w.shutdown(Shutdown::Write);
        let _ = r.read_to_end(&mut Vec::new());
    })
}

#[derive(Debug, Clone, Copy)]
enum Reader {
    Client,
    Split,
    Ready,
}

/// Every frame `reader` returns for `bytes` written in `chunk`-byte
/// writes, and the error it ends on.
fn read_all(reader: Reader, bytes: &[u8], chunk: usize) -> (Vec<Frame>, String) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = serve_stream(listener, bytes.to_vec(), chunk);
    let want = Caps {
        compress: true,
        window: 8,
    };
    let stream = TcpStream::connect(addr).unwrap();
    let c = match Client::handshake(stream, Some(PATIENCE), &want).unwrap() {
        Handshake::V2(c) => c,
        Handshake::V1Peer => panic!("the peer acks the hello"),
    };
    assert!(c.caps.compress, "compression negotiated on");
    let mut frames = Vec::new();
    let err = match reader {
        Reader::Client => {
            let mut c = c;
            loop {
                match c.recv() {
                    Ok(f) => frames.push(f),
                    Err(e) => break e,
                }
            }
        }
        Reader::Split => {
            let (_tx, mut rx) = c.split();
            loop {
                match rx.recv() {
                    Ok(f) => frames.push(f),
                    Err(e) => break e,
                }
            }
        }
        Reader::Ready => {
            let (_tx, mut rx) = c.split();
            rx.set_nonblocking(true).unwrap();
            let start = Instant::now();
            loop {
                match rx.recv_ready() {
                    Ok(Some(f)) => frames.push(f),
                    Ok(None) => {
                        assert!(start.elapsed() < PATIENCE, "the stream never ended");
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => break e,
                }
            }
        }
    };
    peer.join().unwrap();
    (frames, err)
}

#[test]
fn every_reader_returns_the_same_frames_and_fault_for_any_write_size() {
    for fault in [Fault::Checksum, Fault::Oversized, Fault::Magic, Fault::Eof] {
        let (want, bytes) = stream(fault);
        for chunk in [1, 7, 0] {
            for reader in [Reader::Client, Reader::Split, Reader::Ready] {
                let (got, err) = read_all(reader, &bytes, chunk);
                let at = format!("{reader:?} reader, {chunk}-byte writes, {fault:?}");
                assert_eq!(got, want, "{at}: frames");
                assert_eq!(err, fault.error(), "{at}: final error");
            }
        }
    }
}

#[test]
fn a_proxy_that_injects_nothing_relays_v2_bytes_verbatim() {
    let upstream = TcpListener::bind("127.0.0.1:0").unwrap();
    let up_addr = upstream.local_addr().unwrap().to_string();
    // The upstream answers the hello with an ack and each request with
    // the next response shape, recording every byte both ways.
    let up = thread::spawn(move || {
        let (s, _) = upstream.accept().unwrap();
        s.set_read_timeout(Some(PATIENCE)).unwrap();
        let mut r = BufReader::new(s.try_clone().unwrap());
        let mut w = s;
        let (mut received, mut sent) = (Vec::new(), Vec::new());
        let mut replies = (1u64..).zip(shapes());
        while let Some(f) = read_frame_raw(&mut r, &mut received) {
            let out = match f.ftype {
                FrameType::Hello => ack_for(&f),
                _ => {
                    let (rid, (body, compress)) = replies.next().expect("one reply per shape");
                    encode(FrameType::Response, rid, &body, compress)
                }
            };
            w.write_all(&out).unwrap();
            sent.extend_from_slice(&out);
        }
        (received, sent)
    });
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let plan = FaultPlan {
        warm: 100,
        ..FaultPlan::default()
    };
    let mut proxy = ChaosProxy::start(listener, &up_addr, 5, plan).unwrap();

    // The client's units: the hello with its bait newline, then one
    // request per shape, some behind bait of their own.
    let mut hello = Vec::new();
    let want = Caps {
        compress: true,
        window: 8,
    };
    proto2::encode_frame(
        &mut hello,
        FrameType::Hello,
        "",
        0,
        &proto2::hello_body(&want),
        None,
    );
    hello.push(b'\n');
    let mut units = vec![hello];
    for (rid, (body, compress)) in (1u64..).zip(shapes()) {
        let mut unit = b"\n\n"[..rid as usize % 3].to_vec();
        unit.extend_from_slice(&encode(FrameType::Request, rid, &body, compress));
        units.push(unit);
    }
    let mut c = TcpStream::connect(proxy.addr()).unwrap();
    c.set_read_timeout(Some(PATIENCE)).unwrap();
    let mut cr = BufReader::new(c.try_clone().unwrap());
    let (mut sent, mut received) = (Vec::new(), Vec::new());
    for unit in &units {
        c.write_all(unit).unwrap();
        sent.extend_from_slice(unit);
        read_frame_raw(&mut cr, &mut received).expect("one reply per unit");
    }
    drop(cr);
    drop(c);
    let (up_received, up_sent) = up.join().unwrap();
    assert_eq!(
        up_received, sent,
        "upstream got the client's bytes verbatim"
    );
    assert_eq!(
        received, up_sent,
        "client got the upstream's bytes verbatim"
    );
    assert_eq!(
        proxy.frames(),
        units.len() as u64,
        "one schedule slot per unit"
    );
    proxy.stop();
}
