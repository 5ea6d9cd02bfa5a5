//! Arena-backed buffer chains for the zero-copy message path.
//!
//! The ORB used to copy every message at least five times: CDR encode
//! grew a `Vec`, GIOP framing patched a size into it, the socket write
//! copied it into the kernel, reassembly coalesced reads into a
//! per-connection `Vec`, and decode staged the frame into a scope
//! before parsing. This module provides the carrier that removes the
//! user-space copies:
//!
//! * [`SegPool`] — a lock-free pool of fixed-size segments
//!   (pre-allocated once, recycled forever — the RTSJ "never give
//!   pages back" discipline from [`crate::heap`] applied to message
//!   buffers). Exhaustion falls back to the heap instead of blocking,
//!   so the hot path is wait-free and only loses the recycling win.
//! * [`BufChain`] — the write side: a chain of leased segments with
//!   *headroom* reserved in the first segment so a protocol header can
//!   be prepended after the body is encoded (no encode-then-patch, no
//!   `Vec` shuffle). Appends cross segment boundaries transparently.
//! * [`FrameBuf`] — the read side: an immutable, reference-counted
//!   view of (parts of) segments. Cloning bumps refcounts, and a
//!   frame that fits one segment owns no list, so neither building
//!   nor cloning one allocates for it. This is what flows through the
//!   component relays, moved from hop to hop.
//! * [`RecvChain`] — socket-read reassembly without coalescing: reads
//!   land directly in leased segments and complete frames are carved
//!   out as `FrameBuf`s sharing those segments.
//!
//! Alignment rule: a chain knows its logical *body offset*
//! ([`BufChain::body_len`]) independent of segment geometry, so a CDR
//! encoder can maintain natural alignment relative to the body start
//! even when a primitive straddles a segment boundary (the pad bytes
//! simply split across the seam). DESIGN.md §5i records the ownership
//! and alignment model.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::chk;
use crate::ring::MpmcRing;
use crate::small::SmallList;

/// Default segment size: large enough that a typical GIOP frame
/// (header + small body) fits in one segment, small enough that a
/// pool of a few hundred stays cache- and footprint-friendly.
pub const DEFAULT_SEG_SIZE: usize = 4096;

struct PoolInner {
    free: MpmcRing<Box<[u8]>>,
    seg_size: usize,
    leased: AtomicU64,
    released: AtomicU64,
    heap_fallbacks: AtomicU64,
}

/// Cumulative pool counters (monotonic; for observability and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Segments handed out (pooled + heap fallback).
    pub leased: u64,
    /// Segments returned to the pool.
    pub released: u64,
    /// Leases served from the heap because the pool was empty.
    pub heap_fallbacks: u64,
}

/// A lock-free pool of fixed-size buffer segments.
///
/// Cloning the handle shares the pool. [`SegPool::lease`] never blocks
/// and never fails: when the pool is empty it allocates a one-shot
/// heap segment (counted in [`PoolStats::heap_fallbacks`]) that is
/// simply dropped instead of recycled.
#[derive(Clone)]
pub struct SegPool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for SegPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        write!(
            f,
            "SegPool(seg_size={}, free={}, leased={}, released={}, heap={})",
            self.inner.seg_size,
            self.inner.free.len(),
            s.leased,
            s.released,
            s.heap_fallbacks
        )
    }
}

impl SegPool {
    /// Creates a pool of `count` segments of `seg_size` bytes each,
    /// allocated up front.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `seg_size` is zero.
    pub fn new(count: usize, seg_size: usize) -> SegPool {
        assert!(count > 0, "pool needs at least one segment");
        assert!(seg_size > 0, "segments need a positive size");
        let free = MpmcRing::new(count);
        for _ in 0..count {
            // The ring rounds capacity up to a power of two, so all
            // `count` pushes (and every later release) always fit.
            let _ = free.push(vec![0u8; seg_size].into_boxed_slice());
        }
        SegPool {
            inner: Arc::new(PoolInner {
                free,
                seg_size,
                leased: AtomicU64::new(0),
                released: AtomicU64::new(0),
                heap_fallbacks: AtomicU64::new(0),
            }),
        }
    }

    /// The fixed segment size.
    pub fn seg_size(&self) -> usize {
        self.inner.seg_size
    }

    /// Segments currently sitting in the free list.
    pub fn available(&self) -> usize {
        self.inner.free.len()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            leased: self.inner.leased.load(Ordering::Relaxed),
            released: self.inner.released.load(Ordering::Relaxed),
            heap_fallbacks: self.inner.heap_fallbacks.load(Ordering::Relaxed),
        }
    }

    /// Leases a segment from the pool only; `None` when the pool is
    /// empty. This is the operation the linearizability harness
    /// checks (a bounded-resource acquire).
    pub fn try_lease(&self) -> Option<Seg> {
        chk::yield_point("bufchain.lease.pop");
        let buf = self.inner.free.pop()?;
        self.inner.leased.fetch_add(1, Ordering::Relaxed);
        Some(Seg {
            buf,
            pool: Some(Arc::clone(&self.inner)),
        })
    }

    /// Leases a segment, falling back to a fresh heap allocation when
    /// the pool is empty. Never blocks, never fails.
    pub fn lease(&self) -> Seg {
        match self.try_lease() {
            Some(seg) => seg,
            None => {
                self.inner.heap_fallbacks.fetch_add(1, Ordering::Relaxed);
                self.inner.leased.fetch_add(1, Ordering::Relaxed);
                Seg {
                    buf: vec![0u8; self.inner.seg_size].into_boxed_slice(),
                    pool: None,
                }
            }
        }
    }
}

/// An exclusively-owned segment leased from a [`SegPool`] (or the
/// heap, on pool exhaustion). Returns to its pool on drop.
pub struct Seg {
    buf: Box<[u8]>,
    pool: Option<Arc<PoolInner>>,
}

impl std::fmt::Debug for Seg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Seg({} bytes, {})",
            self.buf.len(),
            if self.pool.is_some() {
                "pooled"
            } else {
                "heap"
            }
        )
    }
}

impl Seg {
    /// Stable identity of the underlying buffer (its address) for the
    /// lifetime of the lease — the "slot name" the linearizability
    /// checker uses to pair acquires with releases.
    pub fn id(&self) -> usize {
        self.buf.as_ptr() as usize
    }

    /// Whether this segment recycles into a pool on drop.
    pub fn is_pooled(&self) -> bool {
        self.pool.is_some()
    }

    /// The segment's capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Read access to the whole segment.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Write access to the whole segment (exclusive while leased).
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Drop for Seg {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            chk::yield_point("bufchain.release.push");
            let buf = std::mem::take(&mut self.buf);
            pool.released.fetch_add(1, Ordering::Relaxed);
            // Cannot fail: the ring was sized for every pool-owned
            // segment and only pool-owned segments come back.
            let _ = pool.free.push(buf);
        }
    }
}

/// One filled region of a frozen (shared, immutable) segment.
#[derive(Clone)]
struct Part {
    seg: Arc<Seg>,
    start: usize,
    end: usize,
}

impl Part {
    fn bytes(&self) -> &[u8] {
        &self.seg.bytes()[self.start..self.end]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// The write side of the zero-copy path: a chain of leased segments
/// with headroom reserved for a protocol header.
///
/// Encode the body with [`put`](BufChain::put) / [`pad`](BufChain::pad)
/// (appends cross segment boundaries transparently), then
/// [`prepend`](BufChain::prepend) the header into the headroom once the
/// body size is known, and [`into_frame`](BufChain::into_frame) the
/// result for sending. No byte is ever moved after it is written.
pub struct BufChain {
    pool: SegPool,
    /// The first segment and how far it is filled; it holds the
    /// headroom, and a small frame never needs another.
    head: (Seg, usize),
    /// The segments after the first, each with its fill mark.
    more: Vec<(Seg, usize)>,
    headroom: usize,
    front: usize, // current start of frame data in `head`
    body_len: usize,
}

impl std::fmt::Debug for BufChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BufChain({} segs, headroom {}/{}, body {} bytes)",
            1 + self.more.len(),
            self.front,
            self.headroom,
            self.body_len
        )
    }
}

impl BufChain {
    /// Starts a chain with `headroom` bytes reserved at the front of
    /// the first segment for a later [`prepend`](BufChain::prepend).
    ///
    /// # Panics
    ///
    /// Panics if `headroom` exceeds the pool's segment size.
    pub fn with_headroom(pool: &SegPool, headroom: usize) -> BufChain {
        assert!(
            headroom <= pool.seg_size(),
            "headroom {} exceeds segment size {}",
            headroom,
            pool.seg_size()
        );
        BufChain {
            pool: pool.clone(),
            head: (pool.lease(), headroom),
            more: Vec::new(),
            headroom,
            front: headroom,
            body_len: 0,
        }
    }

    /// Bytes appended so far (excluding headroom and prepends) — the
    /// logical CDR body offset, and the value a GIOP size field wants.
    pub fn body_len(&self) -> usize {
        self.body_len
    }

    /// Total frame bytes (prepended header + body).
    pub fn frame_len(&self) -> usize {
        (self.headroom - self.front) + self.body_len
    }

    /// Appends `bytes`, crossing segment boundaries as needed.
    pub fn put(&mut self, mut bytes: &[u8]) {
        self.body_len += bytes.len();
        while !bytes.is_empty() {
            let seg_size = self.pool.seg_size();
            let (seg, filled) = self.more.last_mut().unwrap_or(&mut self.head);
            let room = seg_size - *filled;
            if room == 0 {
                // One growth for everything this `put` still needs.
                self.more.reserve(bytes.len().div_ceil(seg_size));
                let fresh = self.pool.lease();
                self.more.push((fresh, 0));
                continue;
            }
            let n = room.min(bytes.len());
            seg.bytes_mut()[*filled..*filled + n].copy_from_slice(&bytes[..n]);
            *filled += n;
            bytes = &bytes[n..];
        }
    }

    /// Appends `n` zero bytes (CDR alignment padding).
    pub fn pad(&mut self, n: usize) {
        const ZEROS: [u8; 8] = [0; 8];
        let mut left = n;
        while left > 0 {
            let step = left.min(ZEROS.len());
            self.put(&ZEROS[..step]);
            left -= step;
        }
    }

    /// Writes `header` immediately before the already-encoded body,
    /// consuming headroom. Multiple prepends stack front-to-back (the
    /// last prepend ends up first on the wire).
    ///
    /// # Panics
    ///
    /// Panics if the remaining headroom is too small.
    pub fn prepend(&mut self, header: &[u8]) {
        assert!(
            header.len() <= self.front,
            "prepend of {} bytes exceeds remaining headroom {}",
            header.len(),
            self.front
        );
        let start = self.front - header.len();
        self.head.0.bytes_mut()[start..self.front].copy_from_slice(header);
        self.front = start;
    }

    /// Copies the whole frame (header + body) into one `Vec` — the
    /// compatibility path for transports without scatter-gather.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len());
        out.extend_from_slice(&self.head.0.bytes()[self.front..self.head.1]);
        for (seg, filled) in &self.more {
            out.extend_from_slice(&seg.bytes()[..*filled]);
        }
        out
    }

    /// Freezes the chain into an immutable, shareable [`FrameBuf`].
    pub fn into_frame(self) -> FrameBuf {
        let mut frame = FrameBuf::default();
        frame.rest.reserve(self.more.len());
        let mut start = self.front;
        for (seg, end) in std::iter::once(self.head).chain(self.more) {
            if end > start {
                frame.push(Part {
                    seg: Arc::new(seg),
                    start,
                    end,
                });
            }
            start = 0;
        }
        frame
    }
}

/// An immutable, reference-counted frame: a sequence of borrowed
/// segment regions. `Clone` is refcount bumps. The unit that flows
/// through connection handlers and component relays.
#[derive(Clone, Default)]
pub struct FrameBuf {
    /// The first region, inline: a frame that fits one segment — every
    /// small request and reply — owns no list at all.
    first: Option<Part>,
    /// The regions after the first.
    rest: Vec<Part>,
    len: usize,
}

impl std::fmt::Debug for FrameBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FrameBuf({} bytes in {} parts)",
            self.len,
            self.parts().count()
        )
    }
}

impl FrameBuf {
    /// Wraps an owned `Vec` as a single-part frame (compatibility
    /// constructor for paths that still produce contiguous buffers).
    pub fn from_vec(bytes: Vec<u8>) -> FrameBuf {
        let mut frame = FrameBuf::default();
        if !bytes.is_empty() {
            let end = bytes.len();
            let buf = bytes.into_boxed_slice();
            frame.push(Part {
                seg: Arc::new(Seg { buf, pool: None }),
                start: 0,
                end,
            });
        }
        frame
    }

    /// The regions in wire order.
    fn parts(&self) -> impl Iterator<Item = &Part> {
        self.first.iter().chain(&self.rest)
    }

    /// Appends a (non-empty) region.
    fn push(&mut self, part: Part) {
        self.len += part.len();
        match self.first {
            None => self.first = Some(part),
            Some(_) => self.rest.push(part),
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The frame as one contiguous slice, when it happens to live in a
    /// single segment region (the common case for small frames).
    pub fn as_single(&self) -> Option<&[u8]> {
        match (&self.first, self.rest.is_empty()) {
            (None, _) => Some(&[]),
            (Some(p), true) => Some(p.bytes()),
            _ => None,
        }
    }

    /// Borrowed views of every region, in wire order — the input shape
    /// of the in-place CDR decoder. Reads as a `[&[u8]]`; up to four
    /// regions sit on the caller's stack.
    pub fn slices(&self) -> SmallList<&[u8], 4> {
        let mut out = SmallList::new(&[][..]);
        for p in self.parts() {
            out.push(p.bytes());
        }
        out
    }

    /// Points `out` at the frame's bytes from offset `skip` on, one
    /// `IoSlice` per region, for `write_vectored`; returns how many it
    /// set (fewer than the regions left when `out` is too short — a
    /// vectored write may be partial anyway, and its caller resumes
    /// from the byte count).
    pub fn io_slices_from<'a>(&'a self, mut skip: usize, out: &mut [IoSlice<'a>]) -> usize {
        let mut set = 0;
        for p in self.parts() {
            if set == out.len() {
                break;
            }
            let bytes = p.bytes();
            if skip >= bytes.len() {
                skip -= bytes.len();
                continue;
            }
            out[set] = IoSlice::new(&bytes[skip..]);
            set += 1;
            skip = 0;
        }
        set
    }

    /// Copies the frame into one `Vec` (compatibility/cold paths).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        for p in self.parts() {
            out.extend_from_slice(p.bytes());
        }
        out
    }

    /// Copies up to `out.len()` bytes starting at `off` into `out`;
    /// returns `false` (leaving `out` unspecified) if the frame ends
    /// before `off + out.len()`.
    pub fn copy_at(&self, off: usize, out: &mut [u8]) -> bool {
        if off + out.len() > self.len {
            return false;
        }
        let mut skip = off;
        let mut done = 0;
        for p in self.parts() {
            let b = p.bytes();
            if skip >= b.len() {
                skip -= b.len();
                continue;
            }
            let avail = &b[skip..];
            skip = 0;
            let n = avail.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&avail[..n]);
            done += n;
            if done == out.len() {
                return true;
            }
        }
        false
    }
}

impl From<Vec<u8>> for FrameBuf {
    fn from(bytes: Vec<u8>) -> FrameBuf {
        FrameBuf::from_vec(bytes)
    }
}

impl PartialEq for FrameBuf {
    fn eq(&self, other: &FrameBuf) -> bool {
        self.len == other.len && self.to_vec() == other.to_vec()
    }
}
impl Eq for FrameBuf {}

/// Socket-read reassembly without coalescing: bytes land in leased
/// segments and complete frames are carved out as [`FrameBuf`]s that
/// share those segments. The connection loop's pattern is:
///
/// ```text
/// loop {
///     chain.read_from(&mut socket)?;
///     while let Some(len) = frame_len(|buf| chain.peek(0, buf)) {
///         handle(chain.take_frame(len));
///     }
/// }
/// ```
pub struct RecvChain {
    pool: SegPool,
    frozen: VecDeque<Part>,
    tail: Option<(Seg, usize)>, // (segment, filled)
    tail_taken: usize,          // bytes of the tail already consumed
    len: usize,                 // unconsumed bytes total
}

impl std::fmt::Debug for RecvChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RecvChain({} bytes buffered, {} frozen parts)",
            self.len,
            self.frozen.len()
        )
    }
}

impl RecvChain {
    /// Creates an empty reassembly chain drawing from `pool`.
    pub fn new(pool: &SegPool) -> RecvChain {
        RecvChain {
            pool: pool.clone(),
            frozen: VecDeque::new(),
            tail: None,
            tail_taken: 0,
            len: 0,
        }
    }

    /// Unconsumed bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads once from `r` directly into segment memory. Returns the
    /// byte count from `r.read` (0 means EOF, as usual).
    pub fn read_from<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let seg_size = self.pool.seg_size();
        match &self.tail {
            Some((_, filled)) if *filled < seg_size => {}
            Some(_) | None => self.start_fresh_tail(),
        }
        let (seg, filled) = self.tail.as_mut().expect("tail just ensured");
        let n = r.read(&mut seg.bytes_mut()[*filled..])?;
        *filled += n;
        self.len += n;
        Ok(n)
    }

    fn start_fresh_tail(&mut self) {
        self.freeze_tail();
        self.tail = Some((self.pool.lease(), 0));
        self.tail_taken = 0;
    }

    /// Moves the current tail (its unconsumed region) onto the frozen
    /// list, making it shareable.
    fn freeze_tail(&mut self) {
        if let Some((seg, filled)) = self.tail.take() {
            if filled > self.tail_taken {
                self.frozen.push_back(Part {
                    seg: Arc::new(seg),
                    start: self.tail_taken,
                    end: filled,
                });
            }
            self.tail_taken = 0;
        }
    }

    /// Copies `out.len()` bytes starting at unconsumed offset `off`
    /// into `out` without consuming; `false` if not enough is buffered.
    /// Used to peek fixed-size headers that may straddle segments.
    pub fn peek(&self, off: usize, out: &mut [u8]) -> bool {
        if off + out.len() > self.len {
            return false;
        }
        let mut skip = off;
        let mut done = 0;
        // Two-phase copy: frozen parts first, then the live tail.
        for p in &self.frozen {
            let b = p.bytes();
            if skip >= b.len() {
                skip -= b.len();
                continue;
            }
            let avail = &b[skip..];
            skip = 0;
            let n = avail.len().min(out.len() - done);
            out[done..done + n].copy_from_slice(&avail[..n]);
            done += n;
            if done == out.len() {
                return true;
            }
        }
        if let Some((seg, filled)) = &self.tail {
            let b = &seg.bytes()[self.tail_taken..*filled];
            if skip < b.len() {
                let avail = &b[skip..];
                let n = avail.len().min(out.len() - done);
                out[done..done + n].copy_from_slice(&avail[..n]);
                done += n;
            }
        }
        done == out.len()
    }

    /// Consumes the first `n` buffered bytes as a [`FrameBuf`] sharing
    /// the underlying segments (the tail is frozen if the frame
    /// extends into it).
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes are buffered.
    pub fn take_frame(&mut self, n: usize) -> FrameBuf {
        assert!(
            n <= self.len,
            "take_frame({n}) but only {} buffered",
            self.len
        );
        let frozen_avail: usize = self.frozen.iter().map(Part::len).sum();
        if n > frozen_avail {
            // Freeze the tail so the frame can reference it; future
            // reads go to a fresh segment (the remainder of this one
            // is recycled when every referencing frame drops).
            self.freeze_tail();
        }
        let mut frame = FrameBuf::default();
        while frame.len < n {
            let p = self.frozen.front_mut().expect("enough frozen bytes");
            let take = p.len().min(n - frame.len);
            frame.push(Part {
                seg: Arc::clone(&p.seg),
                start: p.start,
                end: p.start + take,
            });
            p.start += take;
            if p.len() == 0 {
                self.frozen.pop_front();
            }
        }
        self.len -= n;
        frame
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_lease_release_cycle() {
        let pool = SegPool::new(2, 64);
        assert_eq!(pool.available(), 2);
        let a = pool.try_lease().unwrap();
        let b = pool.try_lease().unwrap();
        assert!(pool.try_lease().is_none(), "pool exhausted");
        assert_ne!(a.id(), b.id());
        drop(a);
        assert_eq!(pool.available(), 1);
        let c = pool.try_lease().unwrap();
        drop((b, c));
        assert_eq!(pool.available(), 2);
        let s = pool.stats();
        assert_eq!(s.leased, 3);
        assert_eq!(s.released, 3);
        assert_eq!(s.heap_fallbacks, 0);
    }

    #[test]
    fn lease_falls_back_to_heap() {
        let pool = SegPool::new(1, 32);
        let a = pool.lease();
        let b = pool.lease(); // pool empty → heap
        assert!(a.is_pooled());
        assert!(!b.is_pooled());
        assert_eq!(b.capacity(), 32);
        drop(b);
        assert_eq!(pool.available(), 0, "heap seg does not enter the pool");
        drop(a);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.stats().heap_fallbacks, 1);
    }

    #[test]
    fn chain_append_crosses_boundaries() {
        let pool = SegPool::new(8, 16);
        let mut chain = BufChain::with_headroom(&pool, 4);
        let data: Vec<u8> = (0..50).collect();
        chain.put(&data);
        assert_eq!(chain.body_len(), 50);
        chain.prepend(&[0xAA, 0xBB]);
        assert_eq!(chain.frame_len(), 52);
        let flat = chain.to_vec();
        assert_eq!(&flat[..2], &[0xAA, 0xBB]);
        assert_eq!(&flat[2..], &data[..]);
        let frame = chain.into_frame();
        assert_eq!(frame.to_vec(), flat);
        assert!(frame.as_single().is_none(), "50+ bytes span 16-byte segs");
    }

    #[test]
    fn chain_pad_and_full_headroom() {
        let pool = SegPool::new(4, 32);
        let mut chain = BufChain::with_headroom(&pool, 12);
        chain.pad(3);
        chain.put(&[7]);
        chain.prepend(&[1; 12]);
        let flat = chain.to_vec();
        assert_eq!(flat.len(), 16);
        assert_eq!(&flat[..12], &[1; 12]);
        assert_eq!(&flat[12..], &[0, 0, 0, 7]);
    }

    #[test]
    #[should_panic(expected = "exceeds remaining headroom")]
    fn prepend_overflow_panics() {
        let pool = SegPool::new(2, 32);
        let mut chain = BufChain::with_headroom(&pool, 2);
        chain.prepend(&[0; 3]);
    }

    #[test]
    fn framebuf_copy_at_and_io_slices_from() {
        let pool = SegPool::new(8, 8);
        let mut chain = BufChain::with_headroom(&pool, 0);
        let data: Vec<u8> = (0..30).collect();
        chain.put(&data);
        let frame = chain.into_frame();
        assert_eq!(frame.len(), 30);
        let mut buf = [0u8; 4];
        assert!(frame.copy_at(7, &mut buf));
        assert_eq!(buf, [7, 8, 9, 10]);
        assert!(!frame.copy_at(28, &mut buf), "past the end");
        let flat = |iov: &[IoSlice<'_>]| -> Vec<u8> {
            assert!(iov.iter().all(|s| !s.is_empty()));
            iov.iter().flat_map(|s| s.iter().copied()).collect()
        };
        // Every offset, into a list long enough and one too short.
        for skip in 0..=30 {
            let mut iov = [IoSlice::new(&[]); 8];
            let set = frame.io_slices_from(skip, &mut iov);
            assert_eq!(flat(&iov[..set]), &data[skip..], "skip {skip}");
            let mut two = [IoSlice::new(&[]); 2];
            let set = frame.io_slices_from(skip, &mut two);
            let got = flat(&two[..set]);
            assert_eq!(got, &data[skip..skip + got.len()], "a prefix of the rest");
            assert!(set == 2 || got.len() == 30 - skip);
        }
    }

    #[test]
    fn framebuf_from_vec_single() {
        let f = FrameBuf::from_vec(vec![1, 2, 3]);
        assert_eq!(f.as_single(), Some(&[1u8, 2, 3][..]));
        assert_eq!(&f.slices()[..], &[&[1u8, 2, 3][..]]);
        let empty = FrameBuf::default();
        assert_eq!(empty.as_single(), Some(&[][..]));
        assert!(empty.is_empty());
    }

    #[test]
    fn segments_recycle_when_frames_drop() {
        let pool = SegPool::new(2, 16);
        let mut chain = BufChain::with_headroom(&pool, 0);
        chain.put(&[0xFF; 20]); // spans both segments
        assert_eq!(pool.available(), 0);
        let frame = chain.into_frame();
        let clone = frame.clone();
        drop(frame);
        assert_eq!(pool.available(), 0, "clone still references both");
        drop(clone);
        assert_eq!(pool.available(), 2, "all segments back in the pool");
    }

    #[test]
    fn recv_chain_reassembles_across_reads() {
        let pool = SegPool::new(8, 8);
        let mut rc = RecvChain::new(&pool);
        let wire: Vec<u8> = (0..40).collect();
        let mut src = &wire[..];
        // Drip-feed in odd chunks via a limited reader.
        while rc.len() < wire.len() {
            let mut limited = Read::take(&mut src, 7);
            rc.read_from(&mut limited).unwrap();
        }
        let mut hdr = [0u8; 6];
        assert!(rc.peek(0, &mut hdr));
        assert_eq!(hdr, [0, 1, 2, 3, 4, 5]);
        assert!(rc.peek(9, &mut hdr));
        assert_eq!(hdr, [9, 10, 11, 12, 13, 14]);
        let a = rc.take_frame(13);
        let b = rc.take_frame(27);
        assert_eq!(a.to_vec(), &wire[..13]);
        assert_eq!(b.to_vec(), &wire[13..]);
        assert!(rc.is_empty());
        drop((a, b, rc));
        assert_eq!(pool.available(), 8, "every segment recycled");
    }

    #[test]
    fn recv_chain_take_inside_tail_then_continue() {
        let pool = SegPool::new(8, 32);
        let mut rc = RecvChain::new(&pool);
        let mut src: &[u8] = &[1u8; 10];
        rc.read_from(&mut src).unwrap();
        let f = rc.take_frame(4);
        assert_eq!(f.to_vec(), vec![1; 4]);
        assert_eq!(rc.len(), 6);
        // Reading again after a mid-tail carve lands in a fresh segment
        // but the leftover bytes stay readable, in order.
        let mut src2: &[u8] = &[2u8; 5];
        rc.read_from(&mut src2).unwrap();
        let g = rc.take_frame(11);
        let mut expect = vec![1u8; 6];
        expect.extend_from_slice(&[2; 5]);
        assert_eq!(g.to_vec(), expect);
    }

    #[test]
    fn concurrent_lease_release_stress() {
        let iters = if cfg!(miri) { 40 } else { 500 };
        let pool = SegPool::new(16, 64);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..iters {
                        let seg = pool.lease();
                        assert_eq!(seg.capacity(), 64);
                        if i % 3 == 0 {
                            let extra = pool.try_lease();
                            drop(extra);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.available(), 16, "every segment returned");
        let s = pool.stats();
        assert_eq!(s.leased - s.heap_fallbacks, s.released);
    }
}
