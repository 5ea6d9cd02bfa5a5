//! CDR (Common Data Representation) marshalling.
//!
//! Implements the alignment-sensitive encoding CORBA GIOP messages use —
//! the paper singles out marshalling/demarshalling as "the most
//! computationally-intensive modules of CORBA" (§3.3), so this is the hot
//! path of both ORBs. Primitives are aligned to their natural size
//! relative to the start of the encapsulation; both endiannesses are
//! supported as CDR requires.
//!
//! There is one encoder and one decoder. [`CdrEncoder`] is generic over
//! a [`CdrSink`] — a `Vec<u8>` for standalone encapsulations (naming-
//! service arguments), a [`BufChain`] for GIOP frames — and aligns
//! relative to the sink's body origin, so a frame body is laid out the
//! same whichever sink holds it. [`CdrDecoder`] reads a sequence of
//! borrowed parts in wire order (a [`crate::bufchain::FrameBuf`]'s
//! segments); a contiguous buffer is the one-part case.

use std::borrow::Cow;
use std::fmt;

use crate::bufchain::BufChain;

/// Byte order of an encapsulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Endian {
    /// Big-endian (network order).
    #[default]
    Big,
    /// Little-endian.
    Little,
}

impl Endian {
    /// The GIOP flags bit for this byte order (bit 0: 1 = little).
    pub fn flag_bit(self) -> u8 {
        match self {
            Endian::Big => 0,
            Endian::Little => 1,
        }
    }

    /// Parses the GIOP flags byte.
    pub fn from_flag(flags: u8) -> Endian {
        if flags & 1 == 1 {
            Endian::Little
        } else {
            Endian::Big
        }
    }

    /// The byte order native to this machine.
    pub fn native() -> Endian {
        if cfg!(target_endian = "little") {
            Endian::Little
        } else {
            Endian::Big
        }
    }
}

/// CDR decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CdrError {
    /// Input ended before the value was complete.
    Truncated {
        /// Bytes needed.
        needed: usize,
        /// Bytes remaining.
        remaining: usize,
    },
    /// A string was not valid UTF-8 or not NUL-terminated.
    BadString,
    /// A boolean octet was neither 0 nor 1.
    BadBoolean(u8),
    /// A declared sequence/string length is implausibly large.
    LengthOverflow(u32),
}

impl fmt::Display for CdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CdrError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated CDR stream: needed {needed} bytes, {remaining} remaining"
                )
            }
            CdrError::BadString => write!(f, "malformed CDR string"),
            CdrError::BadBoolean(b) => write!(f, "invalid CDR boolean {b:#x}"),
            CdrError::LengthOverflow(n) => write!(f, "CDR length {n} exceeds the stream"),
        }
    }
}

impl std::error::Error for CdrError {}

/// Where a [`CdrEncoder`] puts its bytes.
pub trait CdrSink {
    /// Bytes written since the body origin — the alignment reference.
    fn body_len(&self) -> usize;
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
    /// Appends `n` zero bytes.
    fn pad(&mut self, n: usize);
}

impl CdrSink for Vec<u8> {
    fn body_len(&self) -> usize {
        self.len()
    }

    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn pad(&mut self, n: usize) {
        self.resize(self.len() + n, 0);
    }
}

/// Bytes land in pool-leased segments (crossing boundaries
/// transparently) and are never moved again: the GIOP header is later
/// prepended into the chain's headroom, which `body_len` excludes.
impl CdrSink for BufChain {
    fn body_len(&self) -> usize {
        BufChain::body_len(self)
    }

    fn put(&mut self, bytes: &[u8]) {
        BufChain::put(self, bytes);
    }

    fn pad(&mut self, n: usize) {
        BufChain::pad(self, n);
    }
}

/// CDR encoder writing into a [`CdrSink`] (a growable buffer unless
/// told otherwise).
///
/// # Examples
///
/// ```
/// use rtplatform::cdr::{CdrEncoder, CdrDecoder, Endian};
///
/// let mut enc = CdrEncoder::new(Endian::Big);
/// enc.write_u8(1);
/// enc.write_u32(0xAABBCCDD); // aligned to 4: three pad bytes inserted
/// enc.write_string("echo");
/// let bytes = enc.into_bytes();
/// let mut dec = CdrDecoder::new(&bytes, Endian::Big);
/// assert_eq!(dec.read_u8()?, 1);
/// assert_eq!(dec.read_u32()?, 0xAABBCCDD);
/// assert_eq!(dec.read_string()?, "echo");
/// # Ok::<(), rtplatform::cdr::CdrError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CdrEncoder<S = Vec<u8>> {
    sink: S,
    endian: Endian,
}

impl CdrEncoder {
    /// Creates an encoder over a fresh `Vec` with the given byte order.
    pub fn new(endian: Endian) -> CdrEncoder {
        CdrEncoder::over(Vec::new(), endian)
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.sink
    }

    /// A view of the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.sink
    }
}

impl<S: CdrSink> CdrEncoder<S> {
    /// Wraps a sink; writes append after whatever it already holds.
    pub fn over(sink: S, endian: Endian) -> CdrEncoder<S> {
        CdrEncoder { sink, endian }
    }

    /// Consumes the encoder, returning the sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// The byte order in use.
    pub fn endian(&self) -> Endian {
        self.endian
    }

    /// Body bytes written so far.
    pub fn len(&self) -> usize {
        self.sink.body_len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts padding so the next write lands on `alignment`
    /// (relative to the sink's body origin).
    pub fn align(&mut self, alignment: usize) {
        let misaligned = self.sink.body_len() % alignment;
        if misaligned != 0 {
            self.sink.pad(alignment - misaligned);
        }
    }

    /// Writes an `N`-byte primitive aligned to `N`, given in both byte
    /// orders.
    fn put_aligned<const N: usize>(&mut self, be: [u8; N], le: [u8; N]) {
        self.align(N);
        self.sink.put(match self.endian {
            Endian::Big => &be,
            Endian::Little => &le,
        });
    }

    /// Writes one octet.
    pub fn write_u8(&mut self, v: u8) {
        self.sink.put(&[v]);
    }

    /// Writes a boolean as an octet.
    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Writes an aligned 16-bit unsigned integer.
    pub fn write_u16(&mut self, v: u16) {
        self.put_aligned(v.to_be_bytes(), v.to_le_bytes());
    }

    /// Writes an aligned 32-bit unsigned integer.
    pub fn write_u32(&mut self, v: u32) {
        self.put_aligned(v.to_be_bytes(), v.to_le_bytes());
    }

    /// Writes an aligned 64-bit unsigned integer.
    pub fn write_u64(&mut self, v: u64) {
        self.put_aligned(v.to_be_bytes(), v.to_le_bytes());
    }

    /// Writes an aligned 16-bit signed integer.
    pub fn write_i16(&mut self, v: i16) {
        self.write_u16(v as u16);
    }

    /// Writes an aligned 32-bit signed integer.
    pub fn write_i32(&mut self, v: i32) {
        self.write_u32(v as u32);
    }

    /// Writes an aligned 64-bit signed integer.
    pub fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    /// Writes an aligned IEEE-754 float.
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Writes an aligned IEEE-754 double.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a CDR string: u32 length (including NUL), bytes, NUL.
    pub fn write_string(&mut self, s: &str) {
        self.write_u32(s.len() as u32 + 1);
        self.sink.put(s.as_bytes());
        self.sink.put(&[0]);
    }

    /// Writes a `sequence<octet>`: u32 length then raw bytes.
    pub fn write_octets(&mut self, bytes: &[u8]) {
        self.write_u32(bytes.len() as u32);
        self.sink.put(bytes);
    }
}

/// CDR decoder over borrowed parts in wire order. Decodes in place:
/// sequence and string payloads come back as [`Cow::Borrowed`] views
/// whenever they do not straddle a part boundary (always, for a
/// contiguous buffer), and primitives that do straddle are reassembled
/// through a stack buffer. The default decoder is at the end of nothing.
#[derive(Debug, Clone, Default)]
pub struct CdrDecoder<'a> {
    /// Unread bytes of the current part.
    cur: &'a [u8],
    /// Parts after the current one.
    rest: &'a [&'a [u8]],
    /// Bytes consumed since the origin — the alignment reference.
    pos: usize,
    remaining: usize,
    endian: Endian,
}

impl<'a> CdrDecoder<'a> {
    /// Creates a decoder over one contiguous buffer.
    pub fn new(buf: &'a [u8], endian: Endian) -> CdrDecoder<'a> {
        CdrDecoder {
            cur: buf,
            rest: &[],
            pos: 0,
            remaining: buf.len(),
            endian,
        }
    }

    /// Creates a decoder over `parts` (concatenated in order).
    pub fn over(parts: &'a [&'a [u8]], endian: Endian) -> CdrDecoder<'a> {
        let mut d = CdrDecoder {
            cur: &[],
            rest: parts,
            pos: 0,
            remaining: parts.iter().map(|p| p.len()).sum(),
            endian,
        };
        d.advance(0); // step onto the first non-empty part
        d
    }

    /// A decoder for the encapsulation that starts at the current
    /// position: alignment restarts here, the byte order is `endian`
    /// and at most `len` further bytes are visible — how a GIOP body is
    /// decoded in place once its header has been read.
    pub fn rebased(mut self, endian: Endian, len: usize) -> CdrDecoder<'a> {
        self.pos = 0;
        self.endian = endian;
        self.remaining = self.remaining.min(len);
        self
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    fn check(&self, n: usize) -> Result<(), CdrError> {
        if self.remaining < n {
            return Err(CdrError::Truncated {
                needed: n,
                remaining: self.remaining,
            });
        }
        Ok(())
    }

    /// Advances past `n` bytes (which must be available), leaving
    /// `cur` on real bytes whenever any remain.
    fn advance(&mut self, mut n: usize) {
        self.pos += n;
        self.remaining -= n;
        while n >= self.cur.len() {
            n -= self.cur.len();
            let Some((next, rest)) = self.rest.split_first() else {
                self.cur = &[];
                return;
            };
            self.cur = next;
            self.rest = rest;
        }
        self.cur = &self.cur[n..];
    }

    /// Consumes `out.len()` bytes into `out` (must be available).
    fn copy_out(&mut self, out: &mut [u8]) {
        let mut done = 0;
        while done < out.len() {
            let here = self.cur.len().min(out.len() - done);
            out[done..done + here].copy_from_slice(&self.cur[..here]);
            done += here;
            self.advance(here);
        }
    }

    /// Reads `out.len()` raw octets, unaligned.
    pub fn read_exact(&mut self, out: &mut [u8]) -> Result<(), CdrError> {
        self.check(out.len())?;
        self.copy_out(out);
        Ok(())
    }

    /// Consumes `n` bytes as a zero-copy view when contiguous, or an
    /// owned copy when they straddle a boundary.
    fn take_view(&mut self, n: usize) -> Result<Cow<'a, [u8]>, CdrError> {
        self.check(n)?;
        if let Some(view) = self.cur.get(..n) {
            self.advance(n);
            return Ok(Cow::Borrowed(view));
        }
        let mut out = vec![0u8; n];
        self.copy_out(&mut out);
        Ok(Cow::Owned(out))
    }

    /// Skips padding so the next read is aligned.
    pub fn align(&mut self, alignment: usize) -> Result<(), CdrError> {
        let misaligned = self.pos % alignment;
        if misaligned != 0 {
            let pad = alignment - misaligned;
            self.check(pad)?;
            self.advance(pad);
        }
        Ok(())
    }

    /// Reads an `N`-byte primitive aligned to `N`, in wire order.
    fn take_aligned<const N: usize>(&mut self) -> Result<[u8; N], CdrError> {
        self.align(N)?;
        self.check(N)?;
        let mut raw = [0u8; N];
        match self.cur.get(..N) {
            Some(view) => {
                raw.copy_from_slice(view);
                self.advance(N);
            }
            None => self.copy_out(&mut raw),
        }
        Ok(raw)
    }

    /// Reads one octet.
    pub fn read_u8(&mut self) -> Result<u8, CdrError> {
        Ok(self.take_aligned::<1>()?[0])
    }

    /// Reads a boolean octet.
    pub fn read_bool(&mut self) -> Result<bool, CdrError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CdrError::BadBoolean(other)),
        }
    }

    /// Reads an aligned 16-bit unsigned integer.
    pub fn read_u16(&mut self) -> Result<u16, CdrError> {
        let raw = self.take_aligned()?;
        Ok(match self.endian {
            Endian::Big => u16::from_be_bytes(raw),
            Endian::Little => u16::from_le_bytes(raw),
        })
    }

    /// Reads an aligned 32-bit unsigned integer.
    pub fn read_u32(&mut self) -> Result<u32, CdrError> {
        let raw = self.take_aligned()?;
        Ok(match self.endian {
            Endian::Big => u32::from_be_bytes(raw),
            Endian::Little => u32::from_le_bytes(raw),
        })
    }

    /// Reads an aligned 64-bit unsigned integer.
    pub fn read_u64(&mut self) -> Result<u64, CdrError> {
        let raw = self.take_aligned()?;
        Ok(match self.endian {
            Endian::Big => u64::from_be_bytes(raw),
            Endian::Little => u64::from_le_bytes(raw),
        })
    }

    /// Reads an aligned 16-bit signed integer.
    pub fn read_i16(&mut self) -> Result<i16, CdrError> {
        Ok(self.read_u16()? as i16)
    }

    /// Reads an aligned 32-bit signed integer.
    pub fn read_i32(&mut self) -> Result<i32, CdrError> {
        Ok(self.read_u32()? as i32)
    }

    /// Reads an aligned 64-bit signed integer.
    pub fn read_i64(&mut self) -> Result<i64, CdrError> {
        Ok(self.read_u64()? as i64)
    }

    /// Reads an aligned IEEE-754 float.
    pub fn read_f32(&mut self) -> Result<f32, CdrError> {
        Ok(f32::from_bits(self.read_u32()?))
    }

    /// Reads an aligned IEEE-754 double.
    pub fn read_f64(&mut self) -> Result<f64, CdrError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads the `u32` length prefix shared by strings and octet
    /// sequences, bounded by what the stream still holds.
    fn read_len(&mut self) -> Result<usize, CdrError> {
        let len = self.read_u32()?;
        if len as usize > self.remaining {
            return Err(CdrError::LengthOverflow(len));
        }
        Ok(len as usize)
    }

    /// Reads a CDR string as a zero-copy view when possible.
    pub fn read_string_view(&mut self) -> Result<Cow<'a, str>, CdrError> {
        let len = self.read_len()?;
        if len == 0 {
            return Err(CdrError::LengthOverflow(0));
        }
        let bytes = self.take_view(len)?;
        if bytes[len - 1] != 0 {
            return Err(CdrError::BadString);
        }
        match bytes {
            Cow::Borrowed(b) => std::str::from_utf8(&b[..len - 1])
                .map(Cow::Borrowed)
                .map_err(|_| CdrError::BadString),
            Cow::Owned(mut v) => {
                v.pop();
                String::from_utf8(v)
                    .map(Cow::Owned)
                    .map_err(|_| CdrError::BadString)
            }
        }
    }

    /// Reads a CDR string into an owned `String`.
    pub fn read_string(&mut self) -> Result<String, CdrError> {
        Ok(self.read_string_view()?.into_owned())
    }

    /// Reads a `sequence<octet>` as a zero-copy view when possible.
    pub fn read_octets_view(&mut self) -> Result<Cow<'a, [u8]>, CdrError> {
        let len = self.read_len()?;
        self.take_view(len)
    }

    /// Reads a `sequence<octet>` into an owned `Vec`.
    pub fn read_octets(&mut self) -> Result<Vec<u8>, CdrError> {
        Ok(self.read_octets_view()?.into_owned())
    }

    /// Skips a length-prefixed octet sequence (the layout shared by
    /// `sequence<octet>` and CDR strings) without copying it; returns
    /// the payload length skipped. Used by scanners that only care
    /// about a later field, e.g. [`crate::giop::peek_trace_parts`].
    pub fn skip_octets(&mut self) -> Result<usize, CdrError> {
        let len = self.read_len()?;
        self.advance(len);
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_inserts_padding() {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u8(0xFF);
        enc.write_u32(1); // 3 pad bytes
        assert_eq!(enc.len(), 8);
        enc.write_u8(2);
        enc.write_u64(3); // 7 pad bytes to offset 16
        assert_eq!(enc.len(), 24);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert_eq!(dec.read_u8().unwrap(), 0xFF);
        assert_eq!(dec.read_u32().unwrap(), 1);
        assert_eq!(dec.read_u8().unwrap(), 2);
        assert_eq!(dec.read_u64().unwrap(), 3);
    }

    #[test]
    fn both_endians_roundtrip() {
        for endian in [Endian::Big, Endian::Little] {
            let mut enc = CdrEncoder::new(endian);
            enc.write_u16(0x1234);
            enc.write_i32(-77);
            enc.write_i64(-1_000_000_007);
            enc.write_f32(1.5);
            enc.write_f64(-2.25);
            enc.write_bool(true);
            enc.write_string("héllo");
            enc.write_octets(&[9, 8, 7]);
            let bytes = enc.into_bytes();
            let mut dec = CdrDecoder::new(&bytes, endian);
            assert_eq!(dec.read_u16().unwrap(), 0x1234);
            assert_eq!(dec.read_i32().unwrap(), -77);
            assert_eq!(dec.read_i64().unwrap(), -1_000_000_007);
            assert_eq!(dec.read_f32().unwrap(), 1.5);
            assert_eq!(dec.read_f64().unwrap(), -2.25);
            assert!(dec.read_bool().unwrap());
            assert_eq!(dec.read_string().unwrap(), "héllo");
            assert_eq!(dec.read_octets().unwrap(), vec![9, 8, 7]);
            assert_eq!(dec.remaining(), 0);
        }
    }

    #[test]
    fn endian_differs_on_wire() {
        let mut big = CdrEncoder::new(Endian::Big);
        big.write_u32(0x01020304);
        let mut little = CdrEncoder::new(Endian::Little);
        little.write_u32(0x01020304);
        assert_eq!(big.as_bytes(), &[1, 2, 3, 4]);
        assert_eq!(little.as_bytes(), &[4, 3, 2, 1]);
    }

    #[test]
    fn truncated_reads_reported() {
        let mut dec = CdrDecoder::new(&[0, 0], Endian::Big);
        assert!(matches!(dec.read_u32(), Err(CdrError::Truncated { .. })));
    }

    #[test]
    fn bad_boolean_rejected() {
        let mut dec = CdrDecoder::new(&[7], Endian::Big);
        assert!(matches!(dec.read_bool(), Err(CdrError::BadBoolean(7))));
    }

    #[test]
    fn string_validation() {
        // Length claims more than available.
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u32(100);
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert!(matches!(
            dec.read_string(),
            Err(CdrError::LengthOverflow(100))
        ));
        // Missing NUL terminator.
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_u32(2);
        enc.write_u8(b'a');
        enc.write_u8(b'b');
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert!(matches!(dec.read_string(), Err(CdrError::BadString)));
    }

    #[test]
    fn flag_bits() {
        assert_eq!(Endian::Big.flag_bit(), 0);
        assert_eq!(Endian::Little.flag_bit(), 1);
        assert_eq!(Endian::from_flag(0), Endian::Big);
        assert_eq!(Endian::from_flag(1), Endian::Little);
        assert_eq!(Endian::from_flag(3), Endian::Little);
    }

    fn chunked<'a>(bytes: &'a [u8], at: &[usize]) -> Vec<&'a [u8]> {
        let mut parts = Vec::new();
        let mut prev = 0;
        for &cut in at {
            parts.push(&bytes[prev..cut]);
            prev = cut;
        }
        parts.push(&bytes[prev..]);
        parts
    }

    fn write_sample<S: CdrSink>(enc: &mut CdrEncoder<S>) {
        enc.write_u8(7);
        enc.write_u16(0x1234);
        enc.write_u32(0xAABB_CCDD);
        enc.write_bool(true);
        enc.write_string("straddle-me-please");
        enc.write_octets(&[9; 21]);
        enc.write_u64(0x0102_0304_0506_0708);
        enc.write_i32(-5);
    }

    #[test]
    fn every_sink_yields_the_same_bytes() {
        use crate::bufchain::SegPool;
        // Deliberately tiny segments so every multi-byte primitive can
        // straddle a boundary; headroom must not shift the alignment.
        let pool = SegPool::new(32, 8);
        for endian in [Endian::Big, Endian::Little] {
            let mut vec = CdrEncoder::new(endian);
            write_sample(&mut vec);
            for headroom in [0, 5, 7] {
                let mut chain = CdrEncoder::over(BufChain::with_headroom(&pool, headroom), endian);
                write_sample(&mut chain);
                assert_eq!(chain.len(), vec.len());
                assert_eq!(
                    chain.into_sink().into_frame().to_vec(),
                    vec.as_bytes(),
                    "{endian:?}, headroom {headroom}"
                );
            }
        }
    }

    fn read_sample(dec: &mut CdrDecoder<'_>) {
        assert_eq!(dec.read_u8().unwrap(), 1);
        assert_eq!(dec.read_u32().unwrap(), 0xC0FF_EE00);
        assert_eq!(dec.read_string().unwrap(), "zero-copy");
        assert_eq!(dec.read_octets().unwrap(), vec![5; 17]);
        assert_eq!(dec.read_u16().unwrap(), 0xBEEF);
        assert_eq!(dec.read_u64().unwrap(), u64::MAX - 1);
        assert_eq!(dec.remaining(), 0);
    }

    #[test]
    fn split_parts_decode_like_one_part() {
        let mut enc = CdrEncoder::new(Endian::Little);
        enc.write_u8(1);
        enc.write_u32(0xC0FF_EE00);
        enc.write_string("zero-copy");
        enc.write_octets(&[5; 17]);
        enc.write_u16(0xBEEF);
        enc.write_u64(u64::MAX - 1);
        let bytes = enc.into_bytes();
        read_sample(&mut CdrDecoder::new(&bytes, Endian::Little));
        // Every possible single split point, plus a many-way split.
        for cut in 0..=bytes.len() {
            let parts = chunked(&bytes, &[cut]);
            read_sample(&mut CdrDecoder::over(&parts, Endian::Little));
        }
        let every: Vec<usize> = (1..bytes.len()).collect();
        let parts = chunked(&bytes, &every);
        read_sample(&mut CdrDecoder::over(&parts, Endian::Little));
    }

    #[test]
    fn views_borrow_when_contiguous() {
        let mut enc = CdrEncoder::new(Endian::Big);
        enc.write_octets(&[1, 2, 3, 4]);
        enc.write_string("view");
        let bytes = enc.into_bytes();
        let mut dec = CdrDecoder::new(&bytes, Endian::Big);
        assert!(matches!(dec.read_octets_view().unwrap(), Cow::Borrowed(_)));
        assert!(matches!(dec.read_string_view().unwrap(), Cow::Borrowed(_)));
        // A split through the octets forces an owned copy, same value.
        let parts = chunked(&bytes, &[6]);
        let mut dec = CdrDecoder::over(&parts, Endian::Big);
        match dec.read_octets_view().unwrap() {
            Cow::Owned(v) => assert_eq!(v, vec![1, 2, 3, 4]),
            Cow::Borrowed(_) => panic!("split payload cannot borrow"),
        }
    }

    #[test]
    fn split_parts_truncation_and_validation() {
        let parts: [&[u8]; 2] = [&[0, 0], &[0]];
        let mut dec = CdrDecoder::over(&parts, Endian::Big);
        assert!(matches!(dec.read_u32(), Err(CdrError::Truncated { .. })));
        let parts: [&[u8]; 2] = [&[], &[7]];
        let mut dec = CdrDecoder::over(&parts, Endian::Big);
        assert!(matches!(dec.read_bool(), Err(CdrError::BadBoolean(7))));
        let parts: [&[u8]; 2] = [&[0, 0], &[0, 100]];
        let mut dec = CdrDecoder::over(&parts, Endian::Big);
        assert!(matches!(
            dec.read_string(),
            Err(CdrError::LengthOverflow(100))
        ));
    }

    #[test]
    fn rebased_decoder_restarts_alignment_and_bounds_length() {
        // 3 bytes of prefix, then a body whose u32 sits at body offset 4.
        let mut body = CdrEncoder::new(Endian::Little);
        body.write_u8(9);
        body.write_u32(0xDEAD_BEEF);
        let mut bytes = vec![0xFF; 3];
        bytes.extend_from_slice(body.as_bytes());
        bytes.extend_from_slice(&[0xEE; 4]); // beyond the declared length
        let parts = chunked(&bytes, &[2, 5]);
        let mut dec = CdrDecoder::over(&parts, Endian::Big);
        let mut prefix = [0u8; 3];
        dec.read_exact(&mut prefix).unwrap();
        assert_eq!(prefix, [0xFF; 3]);
        let mut dec = dec.rebased(Endian::Little, body.len());
        assert_eq!(dec.read_u8().unwrap(), 9);
        assert_eq!(dec.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.remaining(), 0);
        assert!(matches!(dec.read_u8(), Err(CdrError::Truncated { .. })));
    }
}
