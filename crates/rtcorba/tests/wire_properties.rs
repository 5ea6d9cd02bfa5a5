//! Property tests for the wire layer: seeded random GIOP messages
//! round-trip encode → decode to identity in both endiannesses, random
//! CDR primitive sequences round-trip, and decoding mutated frames
//! (bit flips, truncations, random garbage) returns an error or a
//! message — it must never panic. This is the input guarantee behind
//! the `MessageError` reply path: a peer can feed us anything.
//!
//! There is one encoder and one decoder, so there is no second
//! implementation to compare against. Instead the encoder is held to
//! itself across sinks and segment sizes, the decoder to itself across
//! every way of splitting a frame, and the wire format to golden frames
//! captured from the last commit that still had the `Vec` codec — the
//! Zen↔Compadres interop tests cannot catch a format change both ends
//! share.

use rtcorba::cdr::{CdrDecoder, CdrEncoder, CdrSink, Endian};
use rtcorba::giop::{
    decode_view, encode_close, encode_error, peek_trace_parts, trace_slot, GiopError, Message,
    ReplyMessage, ReplyStatus, RequestMessage, TRACE_CONTEXT_SLOT,
};
use rtplatform::bufchain::{BufChain, SegPool};
use rtplatform::rng::SplitMix64;

fn cases() -> u64 {
    std::env::var("RTCHECK_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2_000)
}

fn random_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.below(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

fn random_string(rng: &mut SplitMix64, max_len: usize) -> String {
    // Mixes ASCII with multi-byte code points to stress CDR's
    // length-prefixed UTF-8 strings.
    let alphabet: Vec<char> = "abcXYZ09_µλ→é老".chars().collect();
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| alphabet[rng.below(alphabet.len())])
        .collect()
}

/// Zero to three service contexts: sometimes a well-formed trace slot,
/// sometimes unknown slot ids with arbitrary octets.
fn random_contexts(rng: &mut SplitMix64) -> Vec<(u32, Vec<u8>)> {
    (0..rng.below(4))
        .map(|_| {
            if rng.chance(0.3) {
                (
                    TRACE_CONTEXT_SLOT,
                    trace_slot(
                        rng.next_u64() as u32 | 1,
                        rng.next_u64() as u16,
                        rng.next_u64(),
                    )
                    .to_vec(),
                )
            } else {
                (rng.next_u64() as u32, random_bytes(rng, 32))
            }
        })
        .collect()
}

fn random_request(rng: &mut SplitMix64) -> RequestMessage {
    RequestMessage {
        request_id: rng.next_u64() as u32,
        response_expected: rng.chance(0.5),
        object_key: random_bytes(rng, 24),
        operation: random_string(rng, 16),
        body: random_bytes(rng, 96),
        service_context: random_contexts(rng),
    }
}

fn random_reply(rng: &mut SplitMix64) -> ReplyMessage {
    ReplyMessage {
        request_id: rng.next_u64() as u32,
        status: [
            ReplyStatus::NoException,
            ReplyStatus::SystemException,
            ReplyStatus::ObjectNotExist,
        ][rng.below(3)],
        body: random_bytes(rng, 96),
        service_context: random_contexts(rng),
    }
}

fn random_endian(rng: &mut SplitMix64) -> Endian {
    if rng.chance(0.5) {
        Endian::Big
    } else {
        Endian::Little
    }
}

/// Small segments, so frames are real multi-segment chains.
fn pool() -> SegPool {
    SegPool::new(8, 48)
}

/// Either kind of message, so one test body covers both.
#[derive(Debug, Clone)]
enum Either {
    Request(RequestMessage),
    Reply(ReplyMessage),
}

impl Either {
    fn random(rng: &mut SplitMix64) -> Either {
        if rng.chance(0.5) {
            Either::Request(random_request(rng))
        } else {
            Either::Reply(random_reply(rng))
        }
    }

    fn encode(&self, endian: Endian, pool: &SegPool) -> Vec<u8> {
        match self {
            Either::Request(m) => m.encode_chain(endian, pool).to_vec(),
            Either::Reply(m) => m.encode_chain(endian, pool).to_vec(),
        }
    }

    fn message(self) -> Message {
        match self {
            Either::Request(m) => Message::Request(m),
            Either::Reply(m) => Message::Reply(m),
        }
    }
}

/// Owned decode of a contiguous frame: the one-part case of
/// [`decode_view`].
fn decode(frame: &[u8]) -> Result<Message, GiopError> {
    decode_view(&[frame]).map(|v| v.to_message())
}

/// Flips random bits of `frame`, sometimes truncating it too.
fn mutate(rng: &mut SplitMix64, frame: &mut Vec<u8>) {
    for _ in 0..rng.range_usize(1, 8) {
        if frame.is_empty() {
            break;
        }
        let at = rng.below(frame.len());
        frame[at] ^= 1 << rng.below(8);
    }
    if rng.chance(0.3) && !frame.is_empty() {
        frame.truncate(rng.below(frame.len()));
    }
}

/// Random bytes that half the time look superficially like GIOP, so the
/// deeper decode paths are reached.
fn garbage(rng: &mut SplitMix64) -> Vec<u8> {
    let mut garbage = random_bytes(rng, 64);
    if rng.chance(0.5) && garbage.len() >= 8 {
        garbage[..4].copy_from_slice(b"GIOP");
        garbage[4] = 1;
        garbage[5] = 0;
    }
    garbage
}

/// Cuts a frame into random contiguous fragments — the shapes a
/// [`decode_view`] caller sees when a frame straddles pool segments:
/// whole, split at a few random points, or shredded into tiny pieces.
fn fragment(rng: &mut SplitMix64, frame: &[u8]) -> Vec<Vec<u8>> {
    if frame.is_empty() || rng.chance(0.25) {
        return vec![frame.to_vec()];
    }
    let mut cuts: Vec<usize> = if rng.chance(0.2) {
        // Shred: every fragment at most 3 bytes, so every multi-byte
        // primitive read crosses a boundary.
        (1..frame.len()).filter(|_| rng.chance(0.5)).collect()
    } else {
        (0..rng.range_usize(1, 5))
            .map(|_| rng.below(frame.len()))
            .collect()
    };
    cuts.push(0);
    cuts.push(frame.len());
    cuts.sort_unstable();
    cuts.dedup();
    cuts.windows(2)
        .map(|w| frame[w[0]..w[1]].to_vec())
        .collect()
}

#[test]
fn messages_roundtrip_to_identity_both_endians() {
    let mut rng = SplitMix64::new(0x0A11);
    let pool = pool();
    for case in 0..cases() {
        let msg = Either::random(&mut rng);
        for endian in [Endian::Big, Endian::Little] {
            let frame = msg.encode(endian, &pool);
            assert_eq!(
                decode(&frame),
                Ok(msg.clone().message()),
                "case {case} ({endian:?})"
            );
        }
    }
}

/// One typed CDR write, replayable into any sink and checkable against
/// any decoder.
#[derive(Debug, Clone)]
enum Value {
    U8(u8),
    Bool(bool),
    U16(u16),
    U32(u32),
    U64(u64),
    I16(i16),
    I32(i32),
    I64(i64),
    Str(String),
    Octets(Vec<u8>),
}

fn random_values(rng: &mut SplitMix64) -> Vec<Value> {
    (0..rng.below(24))
        .map(|_| {
            let v = rng.next_u64();
            match rng.below(10) {
                0 => Value::U8(v as u8),
                1 => Value::Bool(v & 1 == 1),
                2 => Value::U16(v as u16),
                3 => Value::U32(v as u32),
                4 => Value::U64(v),
                5 => Value::I32(v as i32),
                6 => Value::I64(v as i64),
                7 => Value::Str(random_string(rng, 12)),
                8 => Value::I16(v as i16),
                _ => Value::Octets(random_bytes(rng, 12)),
            }
        })
        .collect()
}

fn write_values<S: CdrSink>(enc: &mut CdrEncoder<S>, values: &[Value]) {
    for v in values {
        match v {
            Value::U8(x) => enc.write_u8(*x),
            Value::Bool(x) => enc.write_bool(*x),
            Value::U16(x) => enc.write_u16(*x),
            Value::U32(x) => enc.write_u32(*x),
            Value::U64(x) => enc.write_u64(*x),
            Value::I16(x) => enc.write_i16(*x),
            Value::I32(x) => enc.write_i32(*x),
            Value::I64(x) => enc.write_i64(*x),
            Value::Str(x) => enc.write_string(x),
            Value::Octets(x) => enc.write_octets(x),
        }
    }
}

fn expect_values(dec: &mut CdrDecoder<'_>, values: &[Value], what: &str) {
    for v in values {
        match v {
            Value::U8(x) => assert_eq!(dec.read_u8().unwrap(), *x, "{what}"),
            Value::Bool(x) => assert_eq!(dec.read_bool().unwrap(), *x, "{what}"),
            Value::U16(x) => assert_eq!(dec.read_u16().unwrap(), *x, "{what}"),
            Value::U32(x) => assert_eq!(dec.read_u32().unwrap(), *x, "{what}"),
            Value::U64(x) => assert_eq!(dec.read_u64().unwrap(), *x, "{what}"),
            Value::I16(x) => assert_eq!(dec.read_i16().unwrap(), *x, "{what}"),
            Value::I32(x) => assert_eq!(dec.read_i32().unwrap(), *x, "{what}"),
            Value::I64(x) => assert_eq!(dec.read_i64().unwrap(), *x, "{what}"),
            Value::Str(x) => assert_eq!(&dec.read_string().unwrap(), x, "{what}"),
            Value::Octets(x) => assert_eq!(&dec.read_octets().unwrap(), x, "{what}"),
        }
    }
    assert_eq!(dec.remaining(), 0, "{what}: trailing bytes");
}

/// The same encoder over a `Vec` and over segment chains of every
/// awkward segment size writes the same bytes, and those bytes read
/// back as the values written — contiguous or fragmented.
#[test]
fn cdr_sequences_roundtrip_identically_through_every_sink() {
    let mut rng = SplitMix64::new(0x0A13);
    let pools = [1, 7, 64, 4096].map(|seg| SegPool::new(8, seg));
    for case in 0..cases() {
        let endian = random_endian(&mut rng);
        let values = random_values(&mut rng);
        let mut vec = CdrEncoder::new(endian);
        write_values(&mut vec, &values);
        let bytes = vec.into_bytes();
        for pool in &pools {
            let mut chain = CdrEncoder::over(BufChain::with_headroom(pool, 0), endian);
            write_values(&mut chain, &values);
            assert_eq!(
                chain.into_sink().into_frame().to_vec(),
                bytes,
                "case {case}: {}-byte segments",
                pool.seg_size()
            );
        }
        expect_values(
            &mut CdrDecoder::new(&bytes, endian),
            &values,
            &format!("case {case}"),
        );
        let frags = fragment(&mut rng, &bytes);
        let parts: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        expect_values(
            &mut CdrDecoder::over(&parts, endian),
            &values,
            &format!("case {case}, {} fragments", parts.len()),
        );
    }
}

/// An 8-byte primitive after an odd-length string: alignment counts
/// from the body origin on every sink (a chain's header room included),
/// and the value survives a trip through a GIOP frame.
#[test]
fn eight_byte_primitive_aligns_from_the_body_origin_on_both_sinks() {
    let pool = SegPool::new(8, 16);
    for endian in [Endian::Big, Endian::Little] {
        let mut vec = CdrEncoder::new(endian);
        vec.write_string("ab"); // 4 + 3 = 7 bytes: the u64 needs one pad byte
        vec.write_u64(0x0102_0304_0506_0708);
        let args = vec.into_bytes();
        assert_eq!(args.len(), 16, "u64 lands at body offset 8");
        let mut chain = CdrEncoder::over(BufChain::with_headroom(&pool, 12), endian);
        chain.write_string("ab");
        chain.write_u64(0x0102_0304_0506_0708);
        assert_eq!(chain.into_sink().into_frame().to_vec(), args, "{endian:?}");

        let req = RequestMessage {
            request_id: 1,
            response_expected: true,
            object_key: b"k".to_vec(),
            operation: "op".to_string(),
            body: args,
            service_context: Vec::new(),
        };
        let frame = req.encode_chain(endian, &pool);
        let parts = frame.slices();
        assert!(parts.len() > 1, "frame spans segments");
        let Message::Request(got) = decode_view(&parts).unwrap().to_message() else {
            panic!("not a request");
        };
        let mut dec = CdrDecoder::new(&got.body, endian);
        assert_eq!(dec.read_string().unwrap(), "ab");
        assert_eq!(dec.read_u64().unwrap(), 0x0102_0304_0506_0708);
    }
}

/// An unknown service-context slot must survive a full decode →
/// re-encode → decode cycle byte-for-byte: a new peer relaying or
/// echoing contexts it does not understand must not corrupt them, and
/// an old-format frame (no context tail) must decode to an empty list.
#[test]
fn unknown_service_contexts_roundtrip_unharmed() {
    let mut rng = SplitMix64::new(0x0A16);
    let pool = pool();
    for case in 0..cases() {
        let endian = random_endian(&mut rng);
        let mut req = random_request(&mut rng);
        req.service_context = vec![(rng.next_u64() as u32, random_bytes(&mut rng, 48))];
        let once = match decode(&req.encode_chain(endian, &pool).to_vec()) {
            Ok(Message::Request(r)) => r,
            other => panic!("case {case}: {other:?}"),
        };
        let twice = match decode(&once.encode_chain(endian, &pool).to_vec()) {
            Ok(Message::Request(r)) => r,
            other => panic!("case {case} re-encode: {other:?}"),
        };
        assert_eq!(twice, req, "case {case}: context mangled in transit");

        // A legacy frame is exactly a context-free encoding.
        let mut legacy = req.clone();
        legacy.service_context.clear();
        match decode(&legacy.encode_chain(endian, &pool).to_vec()) {
            Ok(Message::Request(r)) => assert!(r.service_context.is_empty(), "case {case}"),
            other => panic!("case {case} legacy: {other:?}"),
        }
    }
}

/// `peek_trace_parts` shares decode's guarantee: any bytes in, no panic
/// out — it runs on the server's I/O path against unauthenticated input.
#[test]
fn peek_trace_never_panics_and_agrees_with_decode() {
    let mut rng = SplitMix64::new(0x0A17);
    let pool = pool();
    for case in 0..cases() {
        let endian = random_endian(&mut rng);
        let req = random_request(&mut rng);
        let mut frame = req.encode_chain(endian, &pool).to_vec();
        // On the pristine frame, peek must agree with the full decode,
        // however the frame is fragmented.
        let frags = fragment(&mut rng, &frame);
        let parts: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        assert_eq!(
            peek_trace_parts(&parts),
            req.trace_context(),
            "case {case}: peek disagrees with decode"
        );
        // Then mutate and require only absence-of-panic.
        mutate(&mut rng, &mut frame);
        let frags = fragment(&mut rng, &frame);
        let parts: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        if std::panic::catch_unwind(|| peek_trace_parts(&parts)).is_err() {
            panic!("case {case}: peek_trace_parts panicked on {frame:02X?}");
        }
    }
}

/// Every 2- and 3-way split of a frame decodes to what the contiguous
/// frame decodes to — chain-encoded at several segment sizes, both
/// endians — and every segment size yields the same frame bytes.
#[test]
fn every_split_of_a_frame_decodes_like_the_whole() {
    let mut rng = SplitMix64::new(0x0A18);
    let pools = [16, 64, 4096].map(|seg| SegPool::new(8, seg));
    for case in 0..8 {
        let msg = Either::random(&mut rng);
        for endian in [Endian::Big, Endian::Little] {
            let frame = msg.encode(endian, &pools[0]);
            for pool in &pools[1..] {
                assert_eq!(msg.encode(endian, pool), frame, "case {case}");
            }
            let whole = decode(&frame).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(whole, msg.clone().message(), "case {case}");
            let peeked = peek_trace_parts(&[&frame]);
            for a in 0..=frame.len() {
                for b in a..=frame.len() {
                    let parts = [&frame[..a], &frame[a..b], &frame[b..]];
                    let view = decode_view(&parts)
                        .unwrap_or_else(|e| panic!("case {case}, cuts {a}/{b}: {e}"));
                    assert_eq!(view.to_message(), whole, "case {case}, cuts {a}/{b}");
                    assert_eq!(
                        peek_trace_parts(&parts),
                        peeked,
                        "case {case}, cuts {a}/{b}"
                    );
                }
            }
        }
    }
}

/// Decode must return, not panic, on arbitrary mutations of valid
/// frames, fragmented any which way — and whenever the contiguous and
/// the fragmented decode both accept a frame they must agree. Each
/// failure would be a reproducible seed.
#[test]
fn decode_of_mutated_fragmented_frames_never_panics() {
    let mut rng = SplitMix64::new(0x0A1A);
    let pool = pool();
    for case in 0..cases() {
        let endian = random_endian(&mut rng);
        let mut frame = Either::random(&mut rng).encode(endian, &pool);
        mutate(&mut rng, &mut frame);
        let frags = fragment(&mut rng, &frame);
        let parts: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        let fragmented = std::panic::catch_unwind(|| decode_view(&parts).map(|v| v.to_message()))
            .unwrap_or_else(|_| panic!("case {case}: fragmented decode panicked on {frame:02X?}"));
        let whole = std::panic::catch_unwind(|| decode(&frame))
            .unwrap_or_else(|_| panic!("case {case}: decode panicked on {frame:02X?}"));
        assert_eq!(
            fragmented, whole,
            "case {case}: fragmentation changed the verdict"
        );
    }
}

/// Pure garbage (no valid frame as the starting point), whole and
/// fragmented: no panic.
#[test]
fn decode_of_random_garbage_never_panics() {
    let mut rng = SplitMix64::new(0x0A1B);
    for case in 0..cases() {
        let garbage = garbage(&mut rng);
        let frags = fragment(&mut rng, &garbage);
        let parts: Vec<&[u8]> = frags.iter().map(|f| f.as_slice()).collect();
        if std::panic::catch_unwind(|| (decode(&garbage).ok(), decode_view(&parts).is_ok()))
            .is_err()
        {
            panic!("case {case}: decode panicked on {garbage:02X?}");
        }
    }
}

// ---------------------------------------------------------------------
// Golden frames: the wire format itself, captured from the last commit
// that carried the `Vec`-based codec (where `RequestMessage::encode` and
// `encode_chain` were asserted byte-identical). Any difference here is a
// wire-format change, whichever side of the codec caused it.
// ---------------------------------------------------------------------

const REQUEST_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x29, 0x01, 0x02, 0x03, 0x04,
    0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x65, 0x63, 0x68, 0x6F, 0x2D, 0x31, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x05, 0x65, 0x63, 0x68, 0x6F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
    0x01, 0x02, 0x03, 0x04, 0x05,
];
const REQUEST_TRACED_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x53, 0x01, 0x02, 0x03, 0x04,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x65, 0x63, 0x68, 0x6F, 0x2D, 0x31, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x05, 0x65, 0x63, 0x68, 0x6F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05,
    0x01, 0x02, 0x03, 0x04, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x54, 0x52, 0x41, 0x43,
    0x00, 0x00, 0x00, 0x10, 0x00, 0xC0, 0xFF, 0xEE, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0xD0, 0x90, 0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x00, 0x03, 0x09, 0x09, 0x09,
];
const REPLY_OK_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x2C, 0x01, 0x02, 0x03, 0x04,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xAA, 0xBB, 0xCC, 0x00, 0x00, 0x00, 0x00, 0x01,
    0x54, 0x52, 0x41, 0x43, 0x00, 0x00, 0x00, 0x10, 0x00, 0xC0, 0xFF, 0xEE, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xD0, 0x90,
];
const REPLY_EXCEPTION_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x10, 0x01, 0x02, 0x03, 0x04,
    0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x62, 0x6F, 0x6F, 0x6D,
];
const REPLY_NO_OBJECT_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x0C, 0x01, 0x02, 0x03, 0x04,
    0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,
];
const MESSAGE_ERROR_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00,
];
const CLOSE_CONNECTION_BE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
];
const REQUEST_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x00, 0x29, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
    0x01, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x65, 0x63, 0x68, 0x6F, 0x2D, 0x31, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x65, 0x63, 0x68, 0x6F, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x01, 0x02, 0x03, 0x04, 0x05,
];
const REQUEST_TRACED_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x00, 0x53, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x65, 0x63, 0x68, 0x6F, 0x2D, 0x31, 0x00, 0x00,
    0x05, 0x00, 0x00, 0x00, 0x65, 0x63, 0x68, 0x6F, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00,
    0x01, 0x02, 0x03, 0x04, 0x05, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x43, 0x41, 0x52, 0x54,
    0x10, 0x00, 0x00, 0x00, 0x00, 0xC0, 0xFF, 0xEE, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x03, 0xD0, 0x90, 0xEF, 0xBE, 0xAD, 0xDE, 0x03, 0x00, 0x00, 0x00, 0x09, 0x09, 0x09,
];
const REPLY_OK_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x01, 0x2C, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
    0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0xAA, 0xBB, 0xCC, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x43, 0x41, 0x52, 0x54, 0x10, 0x00, 0x00, 0x00, 0x00, 0xC0, 0xFF, 0xEE, 0x00, 0x00, 0x00, 0x09,
    0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xD0, 0x90,
];
const REPLY_EXCEPTION_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x01, 0x10, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
    0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x62, 0x6F, 0x6F, 0x6D,
];
const REPLY_NO_OBJECT_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x01, 0x0C, 0x00, 0x00, 0x00, 0x04, 0x03, 0x02, 0x01,
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
];
const MESSAGE_ERROR_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x06, 0x00, 0x00, 0x00, 0x00,
];
const CLOSE_CONNECTION_LE: &[u8] = &[
    0x47, 0x49, 0x4F, 0x50, 0x01, 0x00, 0x01, 0x05, 0x00, 0x00, 0x00, 0x00,
];

fn golden_request(traced: bool) -> RequestMessage {
    RequestMessage {
        request_id: 0x0102_0304,
        response_expected: !traced,
        object_key: b"echo-1".to_vec(),
        operation: "echo".to_string(),
        body: vec![1, 2, 3, 4, 5],
        service_context: if traced {
            vec![
                (
                    TRACE_CONTEXT_SLOT,
                    trace_slot(0xC0FFEE, 9, 250_000).to_vec(),
                ),
                (0xDEAD_BEEF, vec![9, 9, 9]),
            ]
        } else {
            Vec::new()
        },
    }
}

fn golden_reply(status: ReplyStatus) -> ReplyMessage {
    let (body, service_context) = match status {
        ReplyStatus::NoException => (
            vec![0xAA, 0xBB, 0xCC],
            vec![(
                TRACE_CONTEXT_SLOT,
                trace_slot(0xC0FFEE, 9, 250_000).to_vec(),
            )],
        ),
        ReplyStatus::SystemException => (b"boom".to_vec(), Vec::new()),
        ReplyStatus::ObjectNotExist => (Vec::new(), Vec::new()),
    };
    ReplyMessage {
        request_id: 0x0102_0304,
        status,
        body,
        service_context,
    }
}

#[test]
fn golden_frames_pin_the_wire_format() {
    use ReplyStatus::{NoException, ObjectNotExist, SystemException};
    let messages = [
        Message::Request(golden_request(false)),
        Message::Request(golden_request(true)),
        Message::Reply(golden_reply(NoException)),
        Message::Reply(golden_reply(SystemException)),
        Message::Reply(golden_reply(ObjectNotExist)),
        Message::Error,
        Message::CloseConnection,
    ];
    let big: [&[u8]; 7] = [
        REQUEST_BE,
        REQUEST_TRACED_BE,
        REPLY_OK_BE,
        REPLY_EXCEPTION_BE,
        REPLY_NO_OBJECT_BE,
        MESSAGE_ERROR_BE,
        CLOSE_CONNECTION_BE,
    ];
    let little: [&[u8]; 7] = [
        REQUEST_LE,
        REQUEST_TRACED_LE,
        REPLY_OK_LE,
        REPLY_EXCEPTION_LE,
        REPLY_NO_OBJECT_LE,
        MESSAGE_ERROR_LE,
        CLOSE_CONNECTION_LE,
    ];
    let pools = [16, 4096].map(|seg| SegPool::new(8, seg));
    for (endian, frames) in [(Endian::Big, big), (Endian::Little, little)] {
        for (msg, golden) in messages.iter().zip(frames) {
            for pool in &pools {
                let encoded = match msg {
                    Message::Request(m) => m.encode_chain(endian, pool).to_vec(),
                    Message::Reply(m) => m.encode_chain(endian, pool).to_vec(),
                    Message::Error => encode_error(endian).to_vec(),
                    Message::CloseConnection => encode_close(endian).to_vec(),
                };
                assert_eq!(
                    encoded, golden,
                    "{endian:?} {msg:?}: encoder moved off the wire format"
                );
            }
            assert_eq!(
                decode(golden).as_ref(),
                Ok(msg),
                "{endian:?}: decoder moved off the wire format"
            );
        }
    }
}
