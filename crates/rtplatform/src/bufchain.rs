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
//!   A [`Seg`] is one segment leased for writing; [`Seg::freeze`]
//!   turns it into a [`SegRef`], the shared read-only handle whose
//!   count lives in the pool slot, so sharing a buffer allocates
//!   nothing.
//! * [`BufChain`] — the write side: a chain of leased segments with
//!   *headroom* reserved in the first segment so a protocol header can
//!   be prepended after the body is encoded (no encode-then-patch, no
//!   `Vec` shuffle). Appends cross segment boundaries transparently.
//! * [`FrameBuf`] — the read side: an immutable, reference-counted
//!   view of (parts of) segments. Cloning bumps refcounts. A frame
//!   that fits one segment owns no list; a longer one borrows its list
//!   from the pool of its first segment and gives it back, emptied,
//!   when it drops. So in steady state neither building nor cloning a
//!   frame allocates. This is what flows through the component relays,
//!   moved from hop to hop.
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
use std::io::{self, IoSlice, Read, Write};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crate::small::SmallList;

pub use slot::{Seg, SegRef};

/// Default segment size: large enough that a typical GIOP frame
/// (header + small body) fits in one segment, small enough that a
/// pool of a few hundred stays cache- and footprint-friendly.
pub const DEFAULT_SEG_SIZE: usize = 4096;

/// Most regions gathered into one vectored write.
pub const MAX_IOVECS: usize = 64;

/// Pool slots and the two handles on them: all of this module's
/// `unsafe`. A pool owns its slots (buffer + handle count) for life
/// and its free ring carries their indices. Why that is sound:
///
/// * An index is on the ring at most once: `Pool::new` pushes each,
///   `try_lease` pops one, and only the drop that takes a slot's
///   count to zero pushes it back.
/// * From that pop to that push the slot belongs to the handles made
///   from the pop: one [`Seg`] (count 1, never cloned), then — once
///   [`Seg::freeze`] has consumed it — any number of [`SegRef`]s.
///   `&mut [u8]` comes only from `&mut Seg`, `&[u8]` from `&Seg` or
///   `&SegRef`: a writer is alone by the borrow rules on the one
///   `Seg`, and readers share only while no `Seg` exists.
/// * Drops decrement with `Release` and the last fences `Acquire`
///   before it pushes (the `Arc` protocol); the ring's push/pop is
///   release/acquire in turn: every read through the old handles
///   happens-before the next lease's writes.
#[allow(unsafe_code)]
mod slot {
    use std::cell::UnsafeCell;
    use std::sync::atomic::{fence, AtomicU32, AtomicU64, Ordering};
    use std::sync::Arc;

    use super::Part;
    use crate::chk;
    use crate::ring::MpmcRing;

    struct Slot {
        /// Handles on this slot; zero while its index is on the ring.
        refs: AtomicU32,
        buf: UnsafeCell<Box<[u8]>>,
    }

    // SAFETY: `buf` is reached only through `Seg` and `SegRef`, whose
    // protocol (above) admits one writer or many readers, ordered
    // across threads by `refs` and the free ring.
    unsafe impl Sync for Slot {}

    pub(super) struct Pool {
        slots: Box<[Slot]>,
        /// Indices of the slots no handle holds.
        free: MpmcRing<u32>,
        /// Emptied part lists of multi-segment frames whose first part
        /// lived here, kept for the next such frame; one per slot at
        /// most, the rest are freed.
        pub(super) lists: MpmcRing<Vec<Part>>,
        pub(super) seg_size: usize,
        pub(super) leased: AtomicU64,
        pub(super) heap_fallbacks: AtomicU64,
        pub(super) fresh_lists: AtomicU64,
    }

    impl Pool {
        pub(super) fn new(count: usize, seg_size: usize) -> Pool {
            let indices = 0..u32::try_from(count).expect("slot indices are u32");
            let free = MpmcRing::new(count);
            // The ring rounds capacity up to a power of two, so all
            // `count` pushes (and every later release) always fit.
            for index in indices.clone() {
                let _ = free.push(index);
            }
            let slot = |_| Slot {
                refs: AtomicU32::new(0),
                buf: UnsafeCell::new(vec![0u8; seg_size].into()),
            };
            Pool {
                slots: indices.map(slot).collect(),
                free,
                lists: MpmcRing::new(count),
                seg_size,
                leased: AtomicU64::new(0),
                heap_fallbacks: AtomicU64::new(0),
                fresh_lists: AtomicU64::new(0),
            }
        }

        /// `(slots, slots on the free ring)`.
        pub(super) fn occupancy(&self) -> (usize, usize) {
            (self.slots.len(), self.free.len())
        }

        pub(super) fn try_lease(self: &Arc<Pool>) -> Option<Seg> {
            chk::yield_point("bufchain.lease.pop");
            let index = self.free.pop()?;
            self.leased.fetch_add(1, Ordering::Relaxed);
            // Relaxed: whatever hands the segment to another thread
            // orders this store before that thread's use of it.
            self.slots[index as usize].refs.store(1, Ordering::Relaxed);
            Some(Seg(SegRef(Home::Slot(Arc::clone(self), index))))
        }
    }

    /// Where a segment's bytes live.
    enum Home {
        Slot(Arc<Pool>, u32),
        /// Count and bytes in one block of their own: the pool was
        /// empty, or the bytes came from outside it.
        Heap(Arc<[u8]>),
    }

    /// A shared, read-only handle on a frozen segment. `Clone` bumps
    /// the count in the pool slot; the last drop puts the slot back on
    /// its pool's ring (or frees the heap block).
    pub struct SegRef(Home);

    impl SegRef {
        /// The pool this segment's slot belongs to (`None` for a heap
        /// segment).
        pub(super) fn pool(&self) -> Option<&Pool> {
            match &self.0 {
                Home::Slot(pool, _) => Some(pool),
                Home::Heap(_) => None,
            }
        }

        /// The whole segment.
        pub fn bytes(&self) -> &[u8] {
            match &self.0 {
                // SAFETY: this handle holds the slot's count above
                // zero, so the slot cannot be leased again, and the
                // one `Seg` it may be inside of is borrowed by `&self`:
                // no `&mut` to the buffer is live.
                Home::Slot(pool, index) => unsafe { &*pool.slots[*index as usize].buf.get() },
                Home::Heap(block) => block,
            }
        }
    }

    impl Clone for SegRef {
        fn clone(&self) -> SegRef {
            SegRef(match &self.0 {
                Home::Slot(pool, index) => {
                    // Relaxed, as in `Arc`: the handle cloned from
                    // already orders the bytes. And as there, abort
                    // before leaked clones can wrap the count round to
                    // a free slot under live handles.
                    let refs = &pool.slots[*index as usize].refs;
                    if refs.fetch_add(1, Ordering::Relaxed) > u32::MAX / 2 {
                        std::process::abort();
                    }
                    Home::Slot(Arc::clone(pool), *index)
                }
                Home::Heap(block) => Home::Heap(Arc::clone(block)),
            })
        }
    }

    impl Drop for SegRef {
        fn drop(&mut self) {
            let Home::Slot(pool, index) = &self.0 else {
                return;
            };
            if pool.slots[*index as usize]
                .refs
                .fetch_sub(1, Ordering::Release)
                == 1
            {
                fence(Ordering::Acquire);
                chk::yield_point("bufchain.release.push");
                // Cannot fail: the ring was sized for every slot.
                let _ = pool.free.push(*index);
            }
        }
    }

    /// An exclusively-owned segment leased from a [`SegPool`](super::SegPool)
    /// (or the heap, on pool exhaustion). Returns to its pool on drop.
    pub struct Seg(SegRef);

    impl Seg {
        /// A heap segment over `block`, which the caller just made.
        pub(super) fn heap(block: Arc<[u8]>) -> Seg {
            Seg(SegRef(Home::Heap(block)))
        }

        /// Read access to the whole segment.
        pub fn bytes(&self) -> &[u8] {
            self.0.bytes()
        }

        /// Write access to the whole segment (exclusive while leased).
        pub fn bytes_mut(&mut self) -> &mut [u8] {
            match &mut (self.0).0 {
                // SAFETY: a `Seg` is the only handle on its slot — made
                // by the pop that took the slot off the ring, its inner
                // `SegRef` never cloned — and `&mut self` excludes
                // every borrow made through it.
                Home::Slot(pool, index) => unsafe { &mut *pool.slots[*index as usize].buf.get() },
                Home::Heap(block) => Arc::get_mut(block).expect("a lease is the only handle"),
            }
        }

        /// Ends the lease: the segment becomes shareable and read-only,
        /// its count (one) already in place. Allocates nothing.
        pub fn freeze(self) -> SegRef {
            self.0
        }
    }
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
    /// Part lists of multi-segment frames made fresh because the pool
    /// had no emptied one to lend.
    pub fresh_lists: u64,
}

/// A lock-free pool of fixed-size buffer segments.
///
/// Cloning the handle shares the pool. [`SegPool::lease`] never blocks
/// and never fails: when the pool is empty it allocates a one-shot
/// heap segment (counted in [`PoolStats::heap_fallbacks`]) that is
/// simply dropped instead of recycled.
#[derive(Clone)]
pub struct SegPool {
    inner: Arc<slot::Pool>,
}

impl std::fmt::Debug for SegPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegPool")
            .field("seg_size", &self.seg_size())
            .field("free", &self.available())
            .field("stats", &self.stats())
            .finish()
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
        SegPool {
            inner: Arc::new(slot::Pool::new(count, seg_size)),
        }
    }

    /// The fixed segment size.
    pub fn seg_size(&self) -> usize {
        self.inner.seg_size
    }

    /// Segments currently sitting in the free list.
    pub fn available(&self) -> usize {
        self.inner.occupancy().1
    }

    /// Cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let leased = self.inner.leased.load(Ordering::Relaxed);
        let heap_fallbacks = self.inner.heap_fallbacks.load(Ordering::Relaxed);
        let (slots, free) = self.inner.occupancy();
        PoolStats {
            leased,
            // Every pooled lease that is not out any more.
            released: leased.saturating_sub(heap_fallbacks + slots.saturating_sub(free) as u64),
            heap_fallbacks,
            fresh_lists: self.inner.fresh_lists.load(Ordering::Relaxed),
        }
    }

    /// Leases a segment from the pool only; `None` when the pool is
    /// empty. This is the operation the linearizability harness
    /// checks (a bounded-resource acquire).
    pub fn try_lease(&self) -> Option<Seg> {
        self.inner.try_lease()
    }

    /// Leases a segment, falling back to a fresh heap allocation when
    /// the pool is empty. Never blocks, never fails.
    pub fn lease(&self) -> Seg {
        self.try_lease().unwrap_or_else(|| {
            self.inner.heap_fallbacks.fetch_add(1, Ordering::Relaxed);
            self.inner.leased.fetch_add(1, Ordering::Relaxed);
            Seg::heap(std::iter::repeat_n(0, self.inner.seg_size).collect())
        })
    }
}

/// One filled region of a frozen (shared, immutable) segment — what
/// every chain and frame below is a list of.
#[derive(Clone)]
struct Part {
    seg: SegRef,
    start: usize,
    end: usize,
}

impl Part {
    /// Freezes `seg`, keeping `start..end` of it: the one place a
    /// written segment becomes a shared one.
    fn freeze(seg: Seg, start: usize, end: usize) -> Part {
        Part {
            seg: seg.freeze(),
            start,
            end,
        }
    }

    fn bytes(&self) -> &[u8] {
        &self.seg.bytes()[self.start..self.end]
    }

    fn len(&self) -> usize {
        self.end - self.start
    }
}

/// An empty part list with room for `need` parts: one a dropped frame
/// gave back to `pool`, or a fresh one, counted, when it has none (or
/// there is no pool: the frame starts in a heap segment).
fn take_list(pool: Option<&slot::Pool>, need: usize) -> Vec<Part> {
    if let Some(mut list) = pool.and_then(|pool| pool.lists.pop()) {
        list.reserve(need);
        return list;
    }
    if let Some(pool) = pool {
        pool.fresh_lists.fetch_add(1, Ordering::Relaxed);
    }
    Vec::with_capacity(need)
}

/// Fills `out` from `parts` laid end to end, starting `skip` bytes in;
/// the caller has checked that they reach that far.
fn copy_across<'a>(parts: impl Iterator<Item = &'a [u8]>, mut skip: usize, out: &mut [u8]) {
    let mut done = 0;
    for part in parts {
        if done == out.len() {
            break;
        }
        if skip >= part.len() {
            skip -= part.len();
            continue;
        }
        let n = (part.len() - skip).min(out.len() - done);
        out[done..done + n].copy_from_slice(&part[skip..skip + n]);
        (done, skip) = (done + n, 0);
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
    /// The first segment and how far it is filled. It holds the
    /// headroom, so it stays writable until the chain is frozen; a
    /// small frame never needs another.
    head: (Seg, usize),
    /// The segments after the first that are full, frozen as they
    /// filled: the list [`into_frame`](BufChain::into_frame) hands on.
    full: Vec<Part>,
    /// The segment after those, being filled, with its fill mark.
    tail: Option<(Seg, usize)>,
    headroom: usize,
    front: usize, // current start of frame data in `head`
    body_len: usize,
}

impl std::fmt::Debug for BufChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "BufChain({} segs, headroom {}/{}, body {} bytes)",
            1 + self.full.len() + usize::from(self.tail.is_some()),
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
            full: Vec::new(),
            tail: None,
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
        let seg_size = self.pool.seg_size();
        while !bytes.is_empty() {
            let (seg, filled) = self.tail.as_mut().unwrap_or(&mut self.head);
            let room = seg_size - *filled;
            if room == 0 {
                // Room in the list for everything this `put` still
                // needs, in one step: a recycled list on the first.
                let need = bytes.len().div_ceil(seg_size);
                if self.full.capacity() == 0 {
                    self.full = take_list(Some(&*self.pool.inner), need);
                } else {
                    self.full.reserve(need);
                }
                if let Some((seg, end)) = self.tail.replace((self.pool.lease(), 0)) {
                    self.full.push(Part::freeze(seg, 0, end));
                }
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

    /// Freezes the chain into an immutable, shareable [`FrameBuf`]:
    /// the segments and their list move into the frame, nothing is
    /// allocated.
    pub fn into_frame(self) -> FrameBuf {
        let len = self.frame_len();
        let mut rest = self.full;
        if let Some((seg, end)) = self.tail {
            rest.push(Part::freeze(seg, 0, end));
        }
        let (head, end) = self.head;
        let first = if end > self.front {
            Some(Part::freeze(head, self.front, end))
        } else if rest.is_empty() {
            None
        } else {
            // All headroom, none of it used: the frame starts in the
            // second segment.
            Some(rest.remove(0))
        };
        FrameBuf { first, rest, len }
    }
}

/// An immutable, reference-counted frame: a sequence of borrowed
/// segment regions. `Clone` is refcount bumps. The unit that flows
/// through connection handlers and component relays.
#[derive(Default)]
pub struct FrameBuf {
    /// The first region, inline: a frame that fits one segment — every
    /// small request and reply — owns no list at all.
    first: Option<Part>,
    /// The regions after the first. The list is lent by the pool of
    /// the first region's segment and goes back to it, emptied, when
    /// the frame drops.
    rest: Vec<Part>,
    len: usize,
}

impl Clone for FrameBuf {
    /// Refcount bumps, into a list recycled through the first region's
    /// pool: a multi-segment frame clones without allocating too.
    fn clone(&self) -> FrameBuf {
        let mut rest = Vec::new();
        if !self.rest.is_empty() {
            let pool = self.first.as_ref().and_then(|first| first.seg.pool());
            rest = take_list(pool, self.rest.len());
            rest.extend(self.rest.iter().cloned());
        }
        FrameBuf {
            first: self.first.clone(),
            rest,
            len: self.len,
        }
    }
}

impl Drop for FrameBuf {
    fn drop(&mut self) {
        if self.rest.capacity() == 0 {
            return;
        }
        let mut rest = std::mem::take(&mut self.rest);
        rest.clear(); // the segments go back first
        if let Some(pool) = self.first.as_ref().and_then(|first| first.seg.pool()) {
            // A full ring frees the list.
            let _ = pool.lists.push(rest);
        }
    }
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
    /// Copies `bytes` into a single-part frame on a heap segment of
    /// its own (compatibility constructor for paths that still
    /// produce contiguous buffers).
    pub fn from_vec(bytes: Vec<u8>) -> FrameBuf {
        let mut frame = FrameBuf::default();
        if !bytes.is_empty() {
            let end = bytes.len();
            frame.push(Part::freeze(Seg::heap(bytes.into()), 0, end), 0);
        }
        frame
    }

    /// The regions in wire order.
    fn parts(&self) -> impl Iterator<Item = &Part> {
        self.first.iter().chain(&self.rest)
    }

    /// Appends a (non-empty) region. A frame's second region makes it
    /// a list, borrowed from the first region's pool with room for
    /// `most_after_first` regions.
    fn push(&mut self, part: Part, most_after_first: usize) {
        self.len += part.len();
        match &self.first {
            None => self.first = Some(part),
            Some(first) => {
                if self.rest.capacity() == 0 {
                    self.rest = take_list(first.seg.pool(), most_after_first);
                }
                self.rest.push(part);
            }
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

    /// Writes every byte of the frame to `w` with vectored writes,
    /// pointing a stack `IoSlice` list at what is left after each
    /// partial write — the one send loop every socket uses. Falls back
    /// to per-region `write_all` only when the writer reports a
    /// zero-length vectored write (a writer that ignores vectoring).
    pub fn write_all_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut skip = 0;
        while skip < self.len {
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            let set = self.io_slices_from(skip, &mut iov);
            match w.write_vectored(&iov[..set]) {
                Ok(0) => {
                    for s in &iov[..set] {
                        w.write_all(s)?;
                        skip += s.len();
                    }
                }
                Ok(n) => skip += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
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
        copy_across(self.parts().map(Part::bytes), off, out);
        true
    }
}

impl PartialEq for FrameBuf {
    /// Byte for byte, wherever either frame is cut into parts; no copy.
    fn eq(&self, other: &FrameBuf) -> bool {
        let (ours, theirs) = (self.parts(), other.parts());
        self.len == other.len && ours.flat_map(Part::bytes).eq(theirs.flat_map(Part::bytes))
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
                self.frozen
                    .push_back(Part::freeze(seg, self.tail_taken, filled));
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
        let tail = self.tail.iter();
        let tail = tail.map(|(seg, filled)| &seg.bytes()[self.tail_taken..*filled]);
        copy_across(self.frozen.iter().map(Part::bytes).chain(tail), off, out);
        true
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
        let in_tail = self
            .tail
            .as_ref()
            .map_or(0, |(_, filled)| filled - self.tail_taken);
        if n > self.len - in_tail {
            // Freeze the tail so the frame can reference it; future
            // reads go to a fresh segment (the remainder of this one
            // is recycled when every referencing frame drops).
            self.freeze_tail();
        }
        let spans = self.frozen.len();
        let mut frame = FrameBuf::default();
        while frame.len < n {
            let p = self.frozen.front_mut().expect("enough frozen bytes");
            let take = p.len().min(n - frame.len);
            // The frame spans at most every frozen part.
            frame.push(
                Part {
                    seg: p.seg.clone(),
                    start: p.start,
                    end: p.start + take,
                },
                spans - 1,
            );
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

    /// Counts the heap traffic of the calling thread, so that a test
    /// can say "allocates nothing" while its neighbours run.
    #[allow(unsafe_code)]
    mod heap {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            static TRAFFIC: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
        }

        /// `(allocations, frees)` this thread has made so far.
        pub fn traffic() -> (u64, u64) {
            TRAFFIC.with(Cell::get)
        }

        fn count(allocs: u64, frees: u64) {
            // `try_with`: a thread on its way out may allocate after
            // its thread-locals are gone.
            let _ = TRAFFIC.try_with(|t| t.set((t.get().0 + allocs, t.get().1 + frees)));
        }

        struct Counting;

        // SAFETY: every call is forwarded unchanged to the system
        // allocator; the only addition is a thread-local counter bump.
        unsafe impl GlobalAlloc for Counting {
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                count(1, 0);
                System.alloc(layout)
            }
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                count(0, 1);
                System.dealloc(ptr, layout)
            }
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
                count(1, 0);
                System.realloc(ptr, layout, new_size)
            }
        }

        #[global_allocator]
        static GLOBAL: Counting = Counting;
    }

    #[test]
    fn pool_lease_release_cycle() {
        let pool = SegPool::new(2, 64);
        assert_eq!(pool.available(), 2);
        let a = pool.try_lease().unwrap();
        let b = pool.try_lease().unwrap();
        assert!(pool.try_lease().is_none(), "pool exhausted");
        assert_ne!(a.bytes().as_ptr(), b.bytes().as_ptr());
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
        assert_eq!(pool.stats().heap_fallbacks, 1, "b is a heap segment");
        assert_eq!(b.bytes().len(), 32);
        drop(b);
        assert_eq!(pool.available(), 0, "heap seg does not enter the pool");
        drop(a);
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.stats().heap_fallbacks, 1);
    }

    #[test]
    fn a_frozen_heap_segment_is_one_block_freed_once() {
        let pool = SegPool::new(1, 32);
        let _pooled = pool.lease();
        let (allocs, frees) = heap::traffic();
        let mut seg = pool.lease(); // pool empty → heap
        assert_eq!(
            heap::traffic().0,
            allocs + 1,
            "count and bytes share a block"
        );
        seg.bytes_mut().fill(7);
        let shared = seg.freeze();
        let clones = [shared.clone(), shared.clone()];
        drop(shared);
        assert!(clones.iter().all(|c| c.bytes() == [7; 32]));
        assert_eq!(heap::traffic(), (allocs + 1, frees), "clones keep it");
        drop(clones);
        assert_eq!(heap::traffic(), (allocs + 1, frees + 1));
        assert_eq!(pool.available(), 0, "and it never enters the pool");
    }

    #[test]
    fn clones_dropped_on_other_threads_return_every_slot() {
        let rounds: u8 = if cfg!(miri) { 20 } else { 250 };
        let pool = SegPool::new(4, 32);
        // One thread fills, freezes and clones; the clones' drops on
        // two other threads race its own. A slot recycled under a live
        // handle would show the next round's fill.
        std::thread::scope(|s| {
            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let (tx, rx) = std::sync::mpsc::channel::<(u8, SegRef)>();
                    s.spawn(move || {
                        for (round, seg) in rx {
                            assert!(seg.bytes().iter().all(|&b| b == round));
                        }
                    });
                    tx
                })
                .collect();
            for round in 0..rounds {
                let mut seg = pool.lease();
                seg.bytes_mut().fill(round);
                let shared = seg.freeze();
                for tx in &readers {
                    tx.send((round, shared.clone())).unwrap();
                }
            }
        });
        assert_eq!(pool.available(), 4, "every slot came back, once");
        let s = pool.stats();
        assert_eq!(s.leased - s.heap_fallbacks, s.released);
    }

    #[test]
    fn freezing_a_17_segment_chain_allocates_nothing() {
        let pool = SegPool::new(32, DEFAULT_SEG_SIZE);
        let mut chain = BufChain::with_headroom(&pool, 12);
        chain.put(&vec![0x5A; 64 << 10]);
        chain.prepend(&[1; 12]);
        let before = heap::traffic();
        let frame = chain.into_frame();
        assert_eq!(heap::traffic(), before, "the segment list moved");
        assert_eq!(frame.parts().count(), 17);
        assert_eq!(frame.len(), 12 + (64 << 10));
        assert_eq!(pool.available(), 32 - 17);
        drop(frame);
        assert_eq!(pool.available(), 32);
    }

    #[test]
    fn a_17_segment_frame_built_cloned_and_dropped_again_allocates_nothing() {
        let pool = SegPool::new(32, DEFAULT_SEG_SIZE);
        let body = vec![0x5A; 64 << 10];
        let round = || {
            let mut chain = BufChain::with_headroom(&pool, 12);
            chain.put(&body);
            chain.prepend(&[1; 12]);
            let frame = chain.into_frame();
            let clone = frame.clone();
            assert_eq!(clone.parts().count(), 17);
            assert!(clone == frame);
        };
        round();
        assert_eq!(pool.stats().fresh_lists, 2, "the chain's and the clone's");
        let before = heap::traffic();
        round();
        assert_eq!(heap::traffic(), before, "both lists were recycled");
        assert_eq!(pool.stats().fresh_lists, 2);
        assert_eq!(pool.available(), 32);
    }

    #[test]
    fn a_frame_taken_across_receive_segments_recycles_its_list() {
        let pool = SegPool::new(4, 8);
        let mut rc = RecvChain::new(&pool);
        let wire: Vec<u8> = (0..12).collect();
        for _ in 0..2 {
            let mut src = &wire[..];
            while rc.len() < wire.len() {
                rc.read_from(&mut src).unwrap();
            }
            assert_eq!(rc.take_frame(12).to_vec(), wire);
        }
        assert_eq!(pool.stats().fresh_lists, 1, "the second frame reused it");
        let mut src = &[7u8; 4][..];
        rc.read_from(&mut src).unwrap();
        let a = rc.take_frame(4);
        assert_eq!(a.as_single(), Some(&[7u8; 4][..]), "one part owns no list");
        assert_eq!(pool.stats().fresh_lists, 1);
    }

    #[test]
    fn a_frame_past_unused_headroom_starts_in_the_second_segment() {
        let pool = SegPool::new(4, 8);
        let mut chain = BufChain::with_headroom(&pool, 8);
        chain.put(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let frame = chain.into_frame();
        assert_eq!(
            &frame.slices()[..],
            &[&[1u8, 2, 3, 4, 5, 6, 7, 8][..], &[9][..]]
        );
        assert_eq!(pool.available(), 2, "the empty head went straight back");
        assert!(BufChain::with_headroom(&pool, 8).into_frame().is_empty());
    }

    #[test]
    fn frames_compare_by_bytes_not_by_cut() {
        let data: Vec<u8> = (0..40).collect();
        let cut_at = |seg: usize| {
            let mut chain = BufChain::with_headroom(&SegPool::new(8, seg), 0);
            chain.put(&data);
            chain.into_frame()
        };
        assert_eq!(cut_at(7), cut_at(16));
        assert_eq!(cut_at(16), FrameBuf::from_vec(data.clone()));
        let mut other = data.clone();
        other[39] ^= 1;
        assert_ne!(cut_at(7), FrameBuf::from_vec(other));
        assert_ne!(cut_at(7), FrameBuf::from_vec(data[..39].to_vec()));
        assert_eq!(FrameBuf::default(), FrameBuf::from_vec(Vec::new()));
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
        let frame = chain.into_frame();
        let flat = frame.to_vec();
        assert_eq!(&flat[..2], &[0xAA, 0xBB]);
        assert_eq!(&flat[2..], &data[..]);
        assert!(frame.as_single().is_none(), "50+ bytes span 16-byte segs");
    }

    #[test]
    fn chain_pad_and_full_headroom() {
        let pool = SegPool::new(4, 32);
        let mut chain = BufChain::with_headroom(&pool, 12);
        chain.pad(3);
        chain.put(&[7]);
        chain.prepend(&[1; 12]);
        let flat = chain.into_frame().to_vec();
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
                        assert_eq!(seg.bytes().len(), 64);
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
