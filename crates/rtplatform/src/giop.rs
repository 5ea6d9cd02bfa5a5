//! GIOP message framing: headers, request and reply messages.
//!
//! Implements the subset of GIOP 1.0 both ORBs speak: `Request` and
//! `Reply` messages with the standard 12-byte header (`GIOP` magic,
//! version, flags, message type, message size).
//!
//! ## Service contexts
//!
//! Requests and replies may carry a list of `(slot id, octets)` service
//! contexts, encoded *after* the body octets as `u32 count` followed by
//! `u32 id, sequence<octet>` per entry. Placing the section at the tail
//! keeps the wire compatible in both directions: a pre-context decoder
//! reads its fields and never looks at the trailing bytes, and
//! [`decode_view`] treats a missing or malformed section as simply "no
//! contexts" — it never fails a frame over it. An unrecognised slot id
//! round-trips unharmed through a server that echoes contexts.
//!
//! The one slot defined today is [`TRACE_CONTEXT_SLOT`], carrying the
//! causal-tracing context of DESIGN.md §5g.
//!
//! ## One codec
//!
//! Frames are encoded into pool-leased segment chains
//! ([`encode_request_chain`], [`ReplyMessage::encode_chain`]) and decoded
//! in place over a frame's segments ([`decode_view`]); a contiguous
//! buffer is the one-part case (`decode_view(&[&frame])`). The owned
//! [`Message`] types are a conversion ([`MessageView::to_message`]), not
//! a second decoder.

use std::borrow::Cow;

use crate::bufchain::{BufChain, FrameBuf, SegPool};
use crate::cdr::{CdrDecoder, CdrEncoder, CdrError, CdrSink, Endian};

/// The 4-byte GIOP magic.
pub const GIOP_MAGIC: [u8; 4] = *b"GIOP";
/// GIOP protocol version implemented.
pub const GIOP_VERSION: (u8, u8) = (1, 0);
/// Size of the fixed GIOP message header.
pub const HEADER_LEN: usize = 12;

/// Largest GIOP body either side accepts. A header declaring more is a
/// protocol violation wherever it is parsed — before anything is
/// allocated for it.
pub const MAX_BODY: usize = 16 << 20;

/// Offset of a reply's body bytes in its frame: the header, then
/// request id, status and the body's length, four bytes each.
pub const REPLY_BODY_AT: usize = HEADER_LEN + 12;

/// Service-context slot id for the causal-tracing context (`"TRAC"`).
///
/// Slot payload (always big-endian, independent of the frame's flags
/// byte): `u32` trace id, `u32` parent span id, `u64` remaining
/// deadline budget in nanoseconds (`0` = no deadline). See
/// [`trace_slot`] / [`decode_trace_slot`].
pub const TRACE_CONTEXT_SLOT: u32 = 0x5452_4143;

/// Service-context slot id of RT-CORBA's `RTCorbaPriority` (IOP service
/// id 10): the request's CORBA priority as a big-endian `u16`.
pub const PRIORITY_CONTEXT_SLOT: u32 = 10;

/// GIOP message types (subset).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgType {
    /// A client request.
    Request,
    /// A server reply.
    Reply,
    /// Connection close notification.
    CloseConnection,
    /// Protocol error notification.
    MessageError,
}

impl MsgType {
    fn code(self) -> u8 {
        match self {
            MsgType::Request => 0,
            MsgType::Reply => 1,
            MsgType::CloseConnection => 5,
            MsgType::MessageError => 6,
        }
    }

    fn from_code(code: u8) -> Option<MsgType> {
        Some(match code {
            0 => MsgType::Request,
            1 => MsgType::Reply,
            5 => MsgType::CloseConnection,
            6 => MsgType::MessageError,
            _ => return None,
        })
    }
}

/// Reply status (subset of GIOP `ReplyStatusType`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The request completed normally.
    NoException,
    /// The servant raised an exception; the body carries a message string.
    SystemException,
    /// The object key was unknown.
    ObjectNotExist,
}

impl ReplyStatus {
    fn code(self) -> u32 {
        match self {
            ReplyStatus::NoException => 0,
            ReplyStatus::SystemException => 2,
            ReplyStatus::ObjectNotExist => 3,
        }
    }

    fn from_code(code: u32) -> Option<ReplyStatus> {
        Some(match code {
            0 => ReplyStatus::NoException,
            2 => ReplyStatus::SystemException,
            3 => ReplyStatus::ObjectNotExist,
            _ => return None,
        })
    }
}

/// GIOP protocol errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GiopError {
    /// The header did not start with `GIOP`.
    BadMagic([u8; 4]),
    /// Unsupported protocol version.
    BadVersion(u8, u8),
    /// Unknown message type code.
    BadMsgType(u8),
    /// Unknown reply status code.
    BadReplyStatus(u32),
    /// Header or body failed to decode.
    Cdr(CdrError),
    /// The frame was shorter than the declared message size. (A size
    /// above the 16 MiB frame limit is
    /// [`Cdr`](GiopError::Cdr)`(`[`CdrError::LengthOverflow`]`)`.)
    ShortBody {
        /// Declared size.
        declared: usize,
        /// Actual body bytes present.
        actual: usize,
    },
}

impl std::fmt::Display for GiopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GiopError::BadMagic(m) => write!(f, "bad GIOP magic {m:?}"),
            GiopError::BadVersion(a, b) => write!(f, "unsupported GIOP version {a}.{b}"),
            GiopError::BadMsgType(t) => write!(f, "unknown GIOP message type {t}"),
            GiopError::BadReplyStatus(s) => write!(f, "unknown reply status {s}"),
            GiopError::Cdr(e) => write!(f, "CDR error: {e}"),
            GiopError::ShortBody { declared, actual } => {
                write!(f, "short GIOP body: declared {declared}, got {actual}")
            }
        }
    }
}

impl std::error::Error for GiopError {}

impl From<CdrError> for GiopError {
    fn from(e: CdrError) -> Self {
        GiopError::Cdr(e)
    }
}

/// A GIOP request message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMessage {
    /// Client-chosen id correlating the reply.
    pub request_id: u32,
    /// Whether a reply is expected (false = oneway).
    pub response_expected: bool,
    /// Opaque key identifying the target object.
    pub object_key: Vec<u8>,
    /// Operation name.
    pub operation: String,
    /// Marshalled in-parameters.
    pub body: Vec<u8>,
    /// Service contexts (`(slot id, octets)`), e.g.
    /// [`TRACE_CONTEXT_SLOT`]. Servers echo them into the reply.
    pub service_context: Vec<(u32, Vec<u8>)>,
}

/// A GIOP reply message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMessage {
    /// Correlates with the request.
    pub request_id: u32,
    /// Outcome.
    pub status: ReplyStatus,
    /// Marshalled result (or exception message).
    pub body: Vec<u8>,
    /// Service contexts echoed back from the request.
    pub service_context: Vec<(u32, Vec<u8>)>,
}

/// Either kind of incoming message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// A request.
    Request(RequestMessage),
    /// A reply.
    Reply(ReplyMessage),
    /// Connection close.
    CloseConnection,
    /// The peer could not parse what we sent (GIOP `MessageError`).
    Error,
}

/// Builds the fixed 12-byte header. A frame's body is encoded first
/// into a chain and this header prepended into its headroom, so nothing
/// is patched in place; bodiless messages are this header alone.
fn header_bytes(endian: Endian, msg_type: MsgType, size: u32) -> [u8; HEADER_LEN] {
    let mut h = [0u8; HEADER_LEN];
    h[..4].copy_from_slice(&GIOP_MAGIC);
    h[4] = GIOP_VERSION.0;
    h[5] = GIOP_VERSION.1;
    h[6] = endian.flag_bit();
    h[7] = msg_type.code();
    h[8..12].copy_from_slice(&match endian {
        Endian::Big => size.to_be_bytes(),
        Endian::Little => size.to_le_bytes(),
    });
    h
}

/// Validates a 12-byte header and returns its byte order, message type
/// and declared body size — the one place the fixed header is parsed,
/// so the one place the frame limit is enforced.
///
/// # Errors
///
/// [`GiopError`] on bad magic, version or message type, or a declared
/// size over 16 MiB.
pub fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(Endian, MsgType, usize), GiopError> {
    let magic = [h[0], h[1], h[2], h[3]];
    if magic != GIOP_MAGIC {
        return Err(GiopError::BadMagic(magic));
    }
    if (h[4], h[5]) != GIOP_VERSION {
        return Err(GiopError::BadVersion(h[4], h[5]));
    }
    let endian = Endian::from_flag(h[6]);
    let msg_type = MsgType::from_code(h[7]).ok_or(GiopError::BadMsgType(h[7]))?;
    let size = [h[8], h[9], h[10], h[11]];
    let declared = match endian {
        Endian::Big => u32::from_be_bytes(size),
        Endian::Little => u32::from_le_bytes(size),
    };
    if declared as usize > MAX_BODY {
        return Err(CdrError::LengthOverflow(declared).into());
    }
    Ok((endian, msg_type, declared as usize))
}

/// Appends the service-context tail: `count` entries. None writes
/// nothing, so context-free frames stay byte-identical to the
/// pre-context format.
fn write_service_context<S: CdrSink, D: AsRef<[u8]>>(
    enc: &mut CdrEncoder<S>,
    count: usize,
    entries: impl Iterator<Item = (u32, D)>,
) {
    if count == 0 {
        return;
    }
    enc.write_u32(count as u32);
    for (id, data) in entries {
        enc.write_u32(id);
        enc.write_octets(data.as_ref());
    }
}

/// The service contexts of a decoded frame, read where they lie: a view
/// of the frame's tail that [`iter`](ServiceContexts::iter) walks on
/// demand, so decoding a frame builds no list and a server echoes a
/// request's contexts into its reply straight from the request frame.
///
/// The section is advisory and must never fail a frame that decoded
/// fine without it: absence or any malformation reads as no contexts.
#[derive(Debug, Clone, Default)]
pub struct ServiceContexts<'a> {
    /// Positioned on the first entry; all `count` were checked to parse.
    entries: CdrDecoder<'a>,
    count: u32,
}

impl<'a> ServiceContexts<'a> {
    /// Leniently reads the tail `dec` is positioned on.
    fn read(dec: &CdrDecoder<'a>) -> ServiceContexts<'a> {
        if dec.remaining() == 0 {
            return ServiceContexts::default();
        }
        Self::parse(dec.clone()).unwrap_or_default()
    }

    fn parse(mut dec: CdrDecoder<'a>) -> Option<ServiceContexts<'a>> {
        let count = dec.read_u32().ok()?;
        let entries = dec.clone();
        for _ in 0..count {
            dec.read_u32().ok()?;
            dec.skip_octets().ok()?;
        }
        Some(ServiceContexts { entries, count })
    }

    /// Number of contexts carried.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Whether the frame carried no contexts.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `(slot id, octets)` entries in wire order; the octets borrow
    /// the frame wherever they do not straddle a segment boundary.
    pub fn iter(&self) -> impl Iterator<Item = (u32, Cow<'a, [u8]>)> {
        let mut dec = self.entries.clone();
        (0..self.count)
            .map_while(move |_| Some((dec.read_u32().ok()?, dec.read_octets_view().ok()?)))
    }

    /// Copies the contexts into owned form.
    pub fn to_vec(&self) -> Vec<(u32, Vec<u8>)> {
        self.iter().map(|(id, d)| (id, d.into_owned())).collect()
    }

    /// The decoded [`TRACE_CONTEXT_SLOT`], if any.
    fn trace_context(&self) -> Option<(u32, u16, u64)> {
        find_trace(self.iter())
    }
}

/// Packs a trace context into [`TRACE_CONTEXT_SLOT`] wire form. The slot
/// payload is fixed big-endian so it survives re-framing at a different
/// endianness (contexts are echoed verbatim, not re-marshalled).
pub fn trace_slot(trace_id: u32, parent_span: u16, budget_ns: u64) -> [u8; 16] {
    let mut out = [0u8; 16];
    out[..4].copy_from_slice(&trace_id.to_be_bytes());
    out[4..8].copy_from_slice(&u32::from(parent_span).to_be_bytes());
    out[8..].copy_from_slice(&budget_ns.to_be_bytes());
    out
}

/// Unpacks a [`TRACE_CONTEXT_SLOT`] payload into `(trace_id,
/// parent_span, budget_ns)`. Returns `None` for short payloads or an
/// inactive (zero) trace id — garbage in a recognised slot is dropped,
/// never an error.
pub fn decode_trace_slot(data: &[u8]) -> Option<(u32, u16, u64)> {
    if data.len() < 16 {
        return None;
    }
    let trace_id = u32::from_be_bytes(data[0..4].try_into().ok()?);
    let parent = u32::from_be_bytes(data[4..8].try_into().ok()?);
    let budget = u64::from_be_bytes(data[8..16].try_into().ok()?);
    if trace_id == 0 {
        return None;
    }
    Some((trace_id, parent as u16, budget))
}

/// The decoded [`TRACE_CONTEXT_SLOT`] of a context list, if any.
fn find_trace<D: AsRef<[u8]>>(
    mut contexts: impl Iterator<Item = (u32, D)>,
) -> Option<(u32, u16, u64)> {
    contexts
        .find(|(id, _)| *id == TRACE_CONTEXT_SLOT)
        .and_then(|(_, data)| decode_trace_slot(data.as_ref()))
}

/// A list of owned contexts as the `(id, octets)` pairs the codec reads.
fn borrowed(ctx: &[(u32, Vec<u8>)]) -> impl Iterator<Item = (u32, &[u8])> {
    ctx.iter().map(|(id, data)| (*id, data.as_slice()))
}

/// Encodes one frame: `body` marshals straight into pool-leased
/// segments, then the header goes into the chain's headroom.
fn encode_frame(
    endian: Endian,
    pool: &SegPool,
    msg_type: MsgType,
    body: impl FnOnce(&mut CdrEncoder<BufChain>),
) -> FrameBuf {
    let mut enc = CdrEncoder::over(BufChain::with_headroom(pool, HEADER_LEN), endian);
    body(&mut enc);
    let mut chain = enc.into_sink();
    let size = chain.body_len() as u32;
    chain.prepend(&header_bytes(endian, msg_type, size));
    chain.into_frame()
}

impl RequestMessage {
    /// The decoded [`TRACE_CONTEXT_SLOT`] carried by this request, if any.
    pub fn trace_context(&self) -> Option<(u32, u16, u64)> {
        find_trace(borrowed(&self.service_context))
    }

    /// Encodes the full GIOP frame (see [`encode_request_chain`]).
    pub fn encode_chain(&self, endian: Endian, pool: &SegPool) -> FrameBuf {
        let contexts: Vec<_> = borrowed(&self.service_context).collect();
        encode_request_chain(
            self.request_id,
            self.response_expected,
            &self.object_key,
            &self.operation,
            &self.body,
            &contexts,
            endian,
            pool,
        )
    }
}

/// Encodes a request frame from borrowed fields directly into a chain
/// — the client hot path: key, operation, arguments and service
/// contexts are marshalled from where the caller keeps them.
#[allow(clippy::too_many_arguments)]
pub fn encode_request_chain(
    request_id: u32,
    response_expected: bool,
    object_key: &[u8],
    operation: &str,
    body: &[u8],
    service_context: &[(u32, &[u8])],
    endian: Endian,
    pool: &SegPool,
) -> FrameBuf {
    encode_frame(endian, pool, MsgType::Request, |enc| {
        enc.write_u32(request_id);
        enc.write_bool(response_expected);
        enc.write_octets(object_key);
        enc.write_string(operation);
        enc.write_octets(body);
        write_service_context(enc, service_context.len(), service_context.iter().copied());
    })
}

impl ReplyMessage {
    /// The decoded [`TRACE_CONTEXT_SLOT`] echoed in this reply, if any.
    pub fn trace_context(&self) -> Option<(u32, u16, u64)> {
        find_trace(borrowed(&self.service_context))
    }

    /// Encodes the full GIOP frame (header + reply header + body) into
    /// pool-leased segments.
    pub fn encode_chain(&self, endian: Endian, pool: &SegPool) -> FrameBuf {
        encode_frame(endian, pool, MsgType::Reply, |enc| {
            enc.write_u32(self.request_id);
            enc.write_u32(self.status.code());
            enc.write_octets(&self.body);
            let contexts = &self.service_context;
            write_service_context(enc, contexts.len(), borrowed(contexts));
        })
    }
}

/// Encodes a `CloseConnection` frame.
pub fn encode_close(endian: Endian) -> [u8; HEADER_LEN] {
    header_bytes(endian, MsgType::CloseConnection, 0)
}

/// Encodes a `MessageError` frame — sent back when an incoming frame
/// fails to parse, so a (possibly fault-injected) peer learns its message
/// was garbage instead of waiting for a reply that will never come.
pub fn encode_error(endian: Endian) -> [u8; HEADER_LEN] {
    header_bytes(endian, MsgType::MessageError, 0)
}

/// A request decoded in place: key, operation and body borrow the
/// frame's segments whenever they do not straddle a segment boundary.
#[derive(Debug, Clone)]
pub struct RequestView<'a> {
    /// Client-chosen id correlating the reply.
    pub request_id: u32,
    /// Whether a reply is expected (false = oneway).
    pub response_expected: bool,
    /// Opaque key identifying the target object.
    pub object_key: Cow<'a, [u8]>,
    /// Operation name.
    pub operation: Cow<'a, str>,
    /// Marshalled in-parameters.
    pub body: Cow<'a, [u8]>,
    /// Service contexts, read from the frame on demand.
    pub service_context: ServiceContexts<'a>,
}

impl RequestView<'_> {
    /// Copies the view into an owned [`RequestMessage`].
    pub fn to_message(&self) -> RequestMessage {
        RequestMessage {
            request_id: self.request_id,
            response_expected: self.response_expected,
            object_key: self.object_key.to_vec(),
            operation: self.operation.clone().into_owned(),
            body: self.body.to_vec(),
            service_context: self.service_context.to_vec(),
        }
    }

    /// The decoded [`TRACE_CONTEXT_SLOT`], if any.
    pub fn trace_context(&self) -> Option<(u32, u16, u64)> {
        self.service_context.trace_context()
    }
}

/// A reply whose parts are borrowed: decoded in place over a frame's
/// segments, or — what `rtcorba`'s `ObjectRegistry::dispatch_view`
/// returns — about to be encoded, its contexts still lying in the
/// request frame they echo.
#[derive(Debug, Clone)]
pub struct ReplyView<'a> {
    /// Correlates with the request.
    pub request_id: u32,
    /// Outcome.
    pub status: ReplyStatus,
    /// Marshalled result (or exception message).
    pub body: Cow<'a, [u8]>,
    /// Service contexts echoed back from the request.
    pub service_context: ServiceContexts<'a>,
}

impl ReplyView<'_> {
    /// Copies the view into an owned [`ReplyMessage`].
    pub fn to_message(&self) -> ReplyMessage {
        ReplyMessage {
            request_id: self.request_id,
            status: self.status,
            body: self.body.to_vec(),
            service_context: self.service_context.to_vec(),
        }
    }

    /// The decoded [`TRACE_CONTEXT_SLOT`], if any.
    pub fn trace_context(&self) -> Option<(u32, u16, u64)> {
        self.service_context.trace_context()
    }

    /// Encodes the full GIOP frame into pool-leased segments, like
    /// [`ReplyMessage::encode_chain`].
    pub fn encode_chain(&self, endian: Endian, pool: &SegPool) -> FrameBuf {
        encode_frame(endian, pool, MsgType::Reply, |enc| {
            enc.write_u32(self.request_id);
            enc.write_u32(self.status.code());
            enc.write_octets(&self.body);
            let contexts = &self.service_context;
            write_service_context(enc, contexts.len(), contexts.iter());
        })
    }
}

/// Either kind of incoming message, decoded in place.
#[derive(Debug, Clone)]
pub enum MessageView<'a> {
    /// A request.
    Request(RequestView<'a>),
    /// A reply.
    Reply(ReplyView<'a>),
    /// Connection close.
    CloseConnection,
    /// The peer could not parse what we sent.
    Error,
}

impl MessageView<'_> {
    /// Copies the view into an owned [`Message`].
    pub fn to_message(&self) -> Message {
        match self {
            MessageView::Request(r) => Message::Request(r.to_message()),
            MessageView::Reply(r) => Message::Reply(r.to_message()),
            MessageView::CloseConnection => Message::CloseConnection,
            MessageView::Error => Message::Error,
        }
    }
}

/// Parses the header of a complete frame held in `parts` and returns a
/// decoder positioned on its body (alignment restarts after the header).
fn open_frame<'a>(parts: &'a [&'a [u8]]) -> Result<(MsgType, CdrDecoder<'a>), GiopError> {
    let mut dec = CdrDecoder::over(parts, Endian::Big);
    let mut header = [0u8; HEADER_LEN];
    dec.read_exact(&mut header)?;
    let (endian, msg_type, declared) = parse_header(&header)?;
    if dec.remaining() < declared {
        return Err(GiopError::ShortBody {
            declared,
            actual: dec.remaining(),
        });
    }
    Ok((msg_type, dec.rebased(endian, declared)))
}

/// Decodes a complete GIOP frame *in place* over its parts (the regions
/// of a [`FrameBuf`], in wire order; one part for a contiguous buffer):
/// no coalescing copy is made, and the resulting views borrow the parts.
///
/// # Errors
///
/// [`GiopError`] on any protocol violation.
pub fn decode_view<'a>(parts: &'a [&'a [u8]]) -> Result<MessageView<'a>, GiopError> {
    let (msg_type, mut dec) = open_frame(parts)?;
    match msg_type {
        MsgType::Request => {
            let request_id = dec.read_u32()?;
            let response_expected = dec.read_bool()?;
            let object_key = dec.read_octets_view()?;
            let operation = dec.read_string_view()?;
            let body = dec.read_octets_view()?;
            let service_context = ServiceContexts::read(&dec);
            Ok(MessageView::Request(RequestView {
                request_id,
                response_expected,
                object_key,
                operation,
                body,
                service_context,
            }))
        }
        MsgType::Reply => {
            let request_id = dec.read_u32()?;
            let code = dec.read_u32()?;
            let status = ReplyStatus::from_code(code).ok_or(GiopError::BadReplyStatus(code))?;
            let body = dec.read_octets_view()?;
            let service_context = ServiceContexts::read(&dec);
            Ok(MessageView::Reply(ReplyView {
                request_id,
                status,
                body,
                service_context,
            }))
        }
        MsgType::CloseConnection => Ok(MessageView::CloseConnection),
        MsgType::MessageError => Ok(MessageView::Error),
    }
}

/// Lean scan of a request frame for its [`TRACE_CONTEXT_SLOT`]: skips
/// the object key, operation and body without copying them. Returns
/// `None` for non-requests, frames without the slot, or anything
/// malformed — it never panics on arbitrary bytes.
pub fn peek_trace_parts(parts: &[&[u8]]) -> Option<(u32, u16, u64)> {
    let (MsgType::Request, mut dec) = open_frame(parts).ok()? else {
        return None;
    };
    dec.read_u32().ok()?; // request_id
    dec.read_bool().ok()?; // response_expected
    dec.skip_octets().ok()?; // object_key
    dec.skip_octets().ok()?; // operation (string shares the layout)
    dec.skip_octets().ok()?; // body
    if dec.remaining() == 0 {
        return None;
    }
    let count = dec.read_u32().ok()?;
    for _ in 0..count {
        let id = dec.read_u32().ok()?;
        if id == TRACE_CONTEXT_SLOT {
            let data = dec.read_octets_view().ok()?;
            return decode_trace_slot(&data);
        }
        dec.skip_octets().ok()?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> RequestMessage {
        RequestMessage {
            request_id: 7,
            response_expected: true,
            object_key: b"echo-1".to_vec(),
            operation: "echo".to_string(),
            body: vec![1, 2, 3, 4, 5],
            service_context: Vec::new(),
        }
    }

    /// 16-byte segments: the 12-byte headroom leaves 4 body bytes in the
    /// first segment, forcing many boundary crossings.
    fn pool() -> SegPool {
        SegPool::new(64, 16)
    }

    fn encode(req: &RequestMessage, endian: Endian) -> Vec<u8> {
        req.encode_chain(endian, &pool()).to_vec()
    }

    fn decode(frame: &[u8]) -> Result<Message, GiopError> {
        decode_view(&[frame]).map(|v| v.to_message())
    }

    #[test]
    fn request_roundtrip_both_endians() {
        for endian in [Endian::Big, Endian::Little] {
            let req = sample_request();
            let frame = encode(&req, endian);
            assert_eq!(&frame[..4], b"GIOP");
            match decode(&frame).unwrap() {
                Message::Request(r) => assert_eq!(r, req),
                other => panic!("expected request, got {other:?}"),
            }
        }
    }

    #[test]
    fn reply_roundtrip() {
        let reply = ReplyMessage {
            request_id: 7,
            status: ReplyStatus::NoException,
            body: vec![0xAA; 64],
            service_context: Vec::new(),
        };
        for endian in [Endian::Big, Endian::Little] {
            let frame = reply.encode_chain(endian, &pool()).to_vec();
            match decode(&frame).unwrap() {
                Message::Reply(r) => assert_eq!(r, reply),
                other => panic!("expected reply, got {other:?}"),
            }
            assert_eq!(&frame[REPLY_BODY_AT..][..64], &reply.body[..]);
        }
    }

    #[test]
    fn declared_size_matches_frame() {
        let frame = encode(&sample_request(), Endian::Big);
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&frame[..HEADER_LEN]);
        assert_eq!(parse_header(&header).unwrap().2, frame.len() - HEADER_LEN);
    }

    #[test]
    fn cross_endian_decoding() {
        // Encode little, decode without being told: the flags byte governs.
        let frame = encode(&sample_request(), Endian::Little);
        match decode(&frame).unwrap() {
            Message::Request(r) => assert_eq!(r.operation, "echo"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bodiless_messages_are_a_bare_header() {
        for endian in [Endian::Big, Endian::Little] {
            let close = encode_close(endian);
            assert_eq!(decode(&close).unwrap(), Message::CloseConnection);
            let error = encode_error(endian);
            assert_eq!(decode(&error).unwrap(), Message::Error);
            assert_eq!(
                parse_header(&error).unwrap().2,
                0,
                "MessageError has no body"
            );
        }
    }

    #[test]
    fn malformed_headers_rejected() {
        let frame = encode(&sample_request(), Endian::Big);
        let header = |f: &[u8]| -> [u8; HEADER_LEN] { f[..HEADER_LEN].try_into().unwrap() };
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(decode(&bad), Err(GiopError::BadMagic(_))));
        assert!(matches!(
            parse_header(&header(&bad)),
            Err(GiopError::BadMagic(_))
        ));
        let mut bad = frame.clone();
        bad[4] = 9;
        assert!(matches!(decode(&bad), Err(GiopError::BadVersion(9, 0))));
        assert!(matches!(
            parse_header(&header(&bad)),
            Err(GiopError::BadVersion(9, 0))
        ));
        let mut bad = frame.clone();
        bad[7] = 4;
        assert!(matches!(decode(&bad), Err(GiopError::BadMsgType(4))));
        assert!(matches!(
            parse_header(&header(&bad)),
            Err(GiopError::BadMsgType(4))
        ));
        assert_eq!(peek_trace_parts(&[&bad]), None);
    }

    #[test]
    fn short_frames_rejected() {
        let frame = encode(&sample_request(), Endian::Big);
        assert!(matches!(
            decode(&frame[..frame.len() - 3]),
            Err(GiopError::ShortBody { .. })
        ));
        // A header cut short, however it is fragmented.
        let parts: [&[u8]; 2] = [&frame[..5], &[]];
        assert!(matches!(
            decode_view(&parts),
            Err(GiopError::Cdr(CdrError::Truncated {
                needed: HEADER_LEN,
                remaining: 5
            }))
        ));
    }

    #[test]
    fn service_context_roundtrip_both_endians() {
        for endian in [Endian::Big, Endian::Little] {
            let mut req = sample_request();
            req.service_context = vec![
                (TRACE_CONTEXT_SLOT, trace_slot(0xAB, 42, 1_000_000).to_vec()),
                (0xDEAD_BEEF, vec![9, 9, 9]), // unknown slot: opaque octets
            ];
            let frame = encode(&req, endian);
            match decode(&frame).unwrap() {
                Message::Request(r) => {
                    assert_eq!(r, req, "unknown slots round-trip unharmed");
                    assert_eq!(r.trace_context(), Some((0xAB, 42, 1_000_000)));
                }
                other => panic!("expected request, got {other:?}"),
            }
        }
    }

    #[test]
    fn context_free_frame_has_no_tail() {
        // An empty context list writes no tail at all, so a context-free
        // frame is exactly the pre-context wire format.
        let frame = encode(&sample_request(), Endian::Big);
        let mut dec = CdrDecoder::new(&frame[HEADER_LEN..], Endian::Big);
        dec.read_u32().unwrap(); // request_id
        dec.read_bool().unwrap();
        dec.skip_octets().unwrap();
        dec.skip_octets().unwrap();
        dec.skip_octets().unwrap();
        assert_eq!(dec.remaining(), 0, "no trailing section when empty");
    }

    #[test]
    fn reply_echoes_service_context() {
        let reply = ReplyMessage {
            request_id: 3,
            status: ReplyStatus::NoException,
            body: vec![1],
            service_context: vec![(TRACE_CONTEXT_SLOT, trace_slot(5, 6, 7).to_vec())],
        };
        let frame = reply.encode_chain(Endian::Little, &pool()).to_vec();
        match decode(&frame).unwrap() {
            Message::Reply(r) => assert_eq!(r.trace_context(), Some((5, 6, 7))),
            other => panic!("expected reply, got {other:?}"),
        }
    }

    #[test]
    fn malformed_context_tail_is_ignored_not_fatal() {
        // Truncate inside the service-context section: the core message
        // must still decode, with an empty context list.
        let mut req = sample_request();
        req.service_context = vec![(TRACE_CONTEXT_SLOT, trace_slot(1, 2, 3).to_vec())];
        let full = encode(&req, Endian::Big);
        let bare_len = encode(&sample_request(), Endian::Big).len();
        for cut in bare_len..full.len() {
            let mut frame = full[..cut].to_vec();
            let size = (cut - HEADER_LEN) as u32;
            frame[..HEADER_LEN].copy_from_slice(&header_bytes(Endian::Big, MsgType::Request, size));
            match decode(&frame) {
                Ok(Message::Request(r)) => {
                    assert_eq!(r.operation, "echo");
                    assert!(r.service_context.is_empty() || r.trace_context().is_some());
                }
                other => panic!("truncated tail at {cut} must not fail: {other:?}"),
            }
        }
    }

    #[test]
    fn peek_trace_finds_the_slot_without_full_decode() {
        for endian in [Endian::Big, Endian::Little] {
            let mut req = sample_request();
            req.service_context = vec![
                (1, vec![0xFF; 8]),
                (
                    TRACE_CONTEXT_SLOT,
                    trace_slot(0xC0FFEE, 9, 250_000).to_vec(),
                ),
            ];
            let frame = encode(&req, endian);
            assert_eq!(peek_trace_parts(&[&frame]), Some((0xC0FFEE, 9, 250_000)));
        }
        // No slot, non-request, and garbage frames all yield None.
        let bare = encode(&sample_request(), Endian::Big);
        assert_eq!(peek_trace_parts(&[&bare]), None);
        let reply = ReplyMessage {
            request_id: 1,
            status: ReplyStatus::NoException,
            body: vec![],
            service_context: vec![(TRACE_CONTEXT_SLOT, trace_slot(1, 1, 1).to_vec())],
        };
        let reply = reply.encode_chain(Endian::Big, &pool()).to_vec();
        assert_eq!(peek_trace_parts(&[&reply]), None);
        assert_eq!(peek_trace_parts(&[b"not a giop frame at all"]), None);
    }

    #[test]
    fn peek_and_decode_never_panic_on_mutated_frames() {
        let mut req = sample_request();
        req.service_context = vec![(TRACE_CONTEXT_SLOT, trace_slot(7, 7, 7).to_vec())];
        let frame = encode(&req, Endian::Big);
        // Single-byte corruptions over the whole frame.
        for i in 0..frame.len() {
            for delta in [1u8, 0x80, 0xFF] {
                let mut f = frame.clone();
                f[i] = f[i].wrapping_add(delta);
                let _ = peek_trace_parts(&[&f]);
                let _ = decode(&f);
            }
        }
        // Truncations at every length.
        for cut in 0..frame.len() {
            let _ = peek_trace_parts(&[&frame[..cut]]);
            let _ = decode(&frame[..cut]);
        }
    }

    #[test]
    fn segment_size_does_not_change_the_bytes() {
        let small = pool();
        let large = SegPool::new(4, 4096);
        for endian in [Endian::Big, Endian::Little] {
            let mut req = sample_request();
            req.service_context = vec![
                (TRACE_CONTEXT_SLOT, trace_slot(0xAB, 42, 1_000_000).to_vec()),
                (0xDEAD_BEEF, vec![9, 9, 9]),
            ];
            let chained = req.encode_chain(endian, &small);
            assert!(chained.as_single().is_none(), "frame spans segments");
            assert_eq!(chained.to_vec(), req.encode_chain(endian, &large).to_vec());
            let reply = ReplyMessage {
                request_id: 7,
                status: ReplyStatus::SystemException,
                body: vec![0xEE; 40],
                service_context: vec![(TRACE_CONTEXT_SLOT, trace_slot(1, 2, 3).to_vec())],
            };
            assert_eq!(
                reply.encode_chain(endian, &small).to_vec(),
                reply.encode_chain(endian, &large).to_vec()
            );
        }
        assert_eq!(small.available(), 64, "all segments recycled");
    }

    #[test]
    fn fragmented_frames_decode_like_contiguous_ones() {
        let mut req = sample_request();
        req.service_context = vec![(TRACE_CONTEXT_SLOT, trace_slot(0xC0, 1, 77).to_vec())];
        for endian in [Endian::Big, Endian::Little] {
            let frame = encode(&req, endian);
            // Every single split point, including through the header.
            for cut in 0..=frame.len() {
                let parts = [&frame[..cut], &frame[cut..]];
                match decode_view(&parts).unwrap() {
                    MessageView::Request(v) => assert_eq!(v.to_message(), req, "cut {cut}"),
                    other => panic!("cut {cut}: {other:?}"),
                }
                assert_eq!(peek_trace_parts(&parts), Some((0xC0, 1, 77)), "cut {cut}");
            }
        }
    }

    #[test]
    fn decode_view_borrows_on_contiguous_frames() {
        let frame = encode(&sample_request(), Endian::Big);
        let parts = [&frame[..]];
        match decode_view(&parts).unwrap() {
            MessageView::Request(v) => {
                assert!(matches!(v.object_key, Cow::Borrowed(_)));
                assert!(matches!(v.operation, Cow::Borrowed(_)));
                assert!(matches!(v.body, Cow::Borrowed(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oneway_request() {
        let mut req = sample_request();
        req.response_expected = false;
        let frame = encode(&req, Endian::Big);
        match decode(&frame).unwrap() {
            Message::Request(r) => assert!(!r.response_expected),
            other => panic!("unexpected {other:?}"),
        }
    }
}
