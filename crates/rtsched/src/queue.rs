//! Priority-ordered FIFO queue.
//!
//! Messages of higher priority are dequeued first; messages of equal
//! priority preserve arrival order (FIFO within a priority band) — the
//! dispatch order Compadres in-ports rely on.
//!
//! Since the lock-free conversion (DESIGN.md §5e) the queue is an array
//! of per-priority-band bounded lock-free rings scanned highest band
//! first, with a two-word occupancy bitmap so a pop touches only active
//! bands. Each band ring holds [`BAND_RING_CAP`] items; in the (rare)
//! case a band overflows its ring, excess items spill to a small locked
//! deque and the band stays in spill mode — preserving FIFO order —
//! until it drains. Blocking pops spin briefly, then park on a
//! [`rtplatform::park::Gate`]; producers only touch the gate when a
//! consumer is actually parked.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use rtobs::{CounterId, Observer};
use rtplatform::atomic::{Backoff, CachePadded};
use rtplatform::fault::AdmissionPolicy;
use rtplatform::park::Gate;
use rtplatform::ring::MpmcRing;
use rtplatform::sync::Mutex;

use crate::priority::Priority;

/// Per-band lock-free ring capacity; beyond this a band spills to its
/// locked overflow deque (slow path, preserved FIFO).
const BAND_RING_CAP: usize = 256;

/// Why [`PriorityFifo::push_bounded`] refused an item. The item rides
/// back to the caller in every variant — refusal never drops data
/// silently.
#[derive(Debug, PartialEq, Eq)]
pub enum PushRefusal<T> {
    /// Occupancy reached the priority band's admission watermark while
    /// the queue still had capacity: the message was shed to preserve
    /// headroom for higher bands ([`AdmissionPolicy`]).
    Shed(T),
    /// The queue was at hard capacity — even the high band is refused.
    Full(T),
    /// The queue has been closed.
    Closed(T),
}

impl<T> PushRefusal<T> {
    /// Consumes the refusal, returning the refused item.
    pub fn into_inner(self) -> T {
        match self {
            PushRefusal::Shed(item) | PushRefusal::Full(item) | PushRefusal::Closed(item) => item,
        }
    }
}

/// One priority band: a bounded lock-free ring, a locked spill deque
/// for overflow, and an occupancy count.
struct Band<T> {
    ring: MpmcRing<T>,
    spill: Mutex<VecDeque<T>>,
    /// Number of items currently in `spill`. Non-zero puts the band in
    /// spill mode: new pushes append to the spill (behind the ring's
    /// items and earlier spilled ones), keeping FIFO order.
    spilled: AtomicUsize,
    /// Items in this band, counted as claims: incremented *before* the
    /// item is visible, decremented after removal.
    count: AtomicUsize,
}

impl<T> Band<T> {
    fn new() -> Band<T> {
        Band {
            ring: MpmcRing::new(BAND_RING_CAP),
            spill: Mutex::new(VecDeque::new()),
            spilled: AtomicUsize::new(0),
            count: AtomicUsize::new(0),
        }
    }
}

/// Observer hook for the spin/park transition counters, installed once
/// by the owning `ThreadPool` (or any other dispatcher).
struct QueueObs {
    obs: Arc<Observer>,
    spins: CounterId,
    parks: CounterId,
}

/// An unbounded priority FIFO usable from multiple threads.
///
/// # Examples
///
/// ```
/// use rtsched::{PriorityFifo, Priority};
///
/// let q = PriorityFifo::new();
/// q.push(Priority::new(1), "low");
/// q.push(Priority::new(9), "high");
/// q.push(Priority::new(9), "high-2");
/// assert_eq!(q.try_pop(), Some((Priority::new(9), "high")));
/// assert_eq!(q.try_pop(), Some((Priority::new(9), "high-2")));
/// assert_eq!(q.try_pop(), Some((Priority::new(1), "low")));
/// ```
pub struct PriorityFifo<T> {
    /// Bands indexed by raw priority value (1..=99; slot 0 unused).
    /// Lazily initialized: most queues only ever see a few distinct
    /// priorities, and each band preallocates its ring.
    bands: Box<[OnceLock<Band<T>>]>,
    /// Occupancy hints, one bit per band (word 0: priorities 0–63,
    /// word 1: 64–99). A set bit means "the band may be non-empty".
    hint: [CachePadded<AtomicU64>; 2],
    /// Total queued items (claims included).
    len: CachePadded<AtomicUsize>,
    closed: AtomicBool,
    gate: Gate,
    /// Adaptive park policy: set when the last blocking pop had to
    /// park (the queue was genuinely idle), cleared when a pop finds
    /// work immediately (backlog present). An idle queue parks right
    /// after the spin phase — yielding would only delay the producer —
    /// while a busy queue keeps the full yield budget, which on a
    /// loaded single core donates timeslices to the producers.
    idle_hint: AtomicBool,
    obs: OnceLock<QueueObs>,
}

const BANDS: usize = 100; // Priority::MAX is 99; slot per raw value.

impl<T> Default for PriorityFifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for PriorityFifo<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriorityFifo")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

impl<T> PriorityFifo<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        PriorityFifo {
            bands: (0..BANDS).map(|_| OnceLock::new()).collect(),
            hint: [
                CachePadded::new(AtomicU64::new(0)),
                CachePadded::new(AtomicU64::new(0)),
            ],
            len: CachePadded::new(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            gate: Gate::new(),
            idle_hint: AtomicBool::new(false),
            obs: OnceLock::new(),
        }
    }

    /// Attaches spin/park transition counters; called by the owning
    /// dispatcher right after construction. Later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>, spins: CounterId, parks: CounterId) {
        let _ = self.obs.set(QueueObs {
            obs: Arc::clone(obs),
            spins,
            parks,
        });
    }

    fn band(&self, priority: Priority) -> &Band<T> {
        self.bands[priority.value() as usize].get_or_init(Band::new)
    }

    fn set_hint(&self, idx: usize) {
        self.hint[idx / 64].fetch_or(1 << (idx % 64), Ordering::SeqCst);
    }

    /// Clears the hint bit for an observed-empty band, re-setting it if
    /// a concurrent push raced the clear.
    fn clear_hint(&self, idx: usize, band: &Band<T>) {
        self.hint[idx / 64].fetch_and(!(1 << (idx % 64)), Ordering::SeqCst);
        if band.count.load(Ordering::SeqCst) > 0 {
            self.set_hint(idx);
        }
    }

    /// Enqueues `item` at `priority`. Returns `false` if the queue has been
    /// closed (the item is dropped).
    pub fn push(&self, priority: Priority, item: T) -> bool {
        self.push_with_len(priority, item).is_some()
    }

    /// Enqueues `item` at `priority`, returning the queue length right
    /// after the push (for depth gauges), or `None` if the queue has
    /// been closed.
    pub fn push_with_len(&self, priority: Priority, item: T) -> Option<usize> {
        if self.closed.load(Ordering::SeqCst) {
            return None;
        }
        let idx = priority.value() as usize;
        let band = self.band(priority);
        // Claim first: a consumer draining after close() waits for any
        // claimed-but-not-yet-visible item, so an accepted push is
        // never lost even if close() lands mid-insert.
        band.count.fetch_add(1, Ordering::SeqCst);
        let len = self.len.fetch_add(1, Ordering::SeqCst) + 1;
        if band.spilled.load(Ordering::SeqCst) > 0 {
            // Spill mode: append behind earlier overflow to keep FIFO.
            let mut g = band.spill.lock();
            g.push_back(item);
            band.spilled.store(g.len(), Ordering::SeqCst);
        } else if let Err(item) = band.ring.push(item) {
            let mut g = band.spill.lock();
            g.push_back(item);
            band.spilled.store(g.len(), Ordering::SeqCst);
        }
        self.set_hint(idx);
        self.gate.notify_one();
        Some(len)
    }

    /// Enqueues `item` at `priority` subject to a hard `capacity` and a
    /// per-priority-band [`AdmissionPolicy`]: the push is refused with
    /// [`PushRefusal::Shed`] once occupancy reaches the band's
    /// watermark, and with [`PushRefusal::Full`] at capacity. On
    /// success returns the queue length right after the push.
    ///
    /// The occupancy check-and-claim is [`AdmissionPolicy::claim`] on
    /// the queue length, so concurrent producers can never overshoot
    /// the watermark — the bound is strict, not advisory.
    ///
    /// # Errors
    ///
    /// [`PushRefusal`] carrying the item back: shed (band watermark),
    /// full (hard capacity) or closed.
    pub fn push_bounded(
        &self,
        priority: Priority,
        item: T,
        capacity: usize,
        admission: &AdmissionPolicy,
    ) -> Result<usize, PushRefusal<T>> {
        if self.closed.load(Ordering::SeqCst) {
            return Err(PushRefusal::Closed(item));
        }
        let len = match admission.claim(&self.len, priority.value(), capacity) {
            Ok(len) => len,
            Err(limit) if limit < capacity => return Err(PushRefusal::Shed(item)),
            Err(_) => return Err(PushRefusal::Full(item)),
        };
        let idx = priority.value() as usize;
        let band = self.band(priority);
        // The queue-length claim above plays the role `push_with_len`'s
        // `len.fetch_add` does: a consumer draining after close() waits
        // for it to materialize, so the accepted item is never lost.
        band.count.fetch_add(1, Ordering::SeqCst);
        if band.spilled.load(Ordering::SeqCst) > 0 {
            let mut g = band.spill.lock();
            g.push_back(item);
            band.spilled.store(g.len(), Ordering::SeqCst);
        } else if let Err(item) = band.ring.push(item) {
            let mut g = band.spill.lock();
            g.push_back(item);
            band.spilled.store(g.len(), Ordering::SeqCst);
        }
        self.set_hint(idx);
        self.gate.notify_one();
        Ok(len)
    }

    /// Dequeues one item from a specific band, ring first, then spill.
    fn try_pop_band(&self, idx: usize) -> Option<T> {
        let band = self.bands[idx].get()?;
        if band.count.load(Ordering::SeqCst) == 0 {
            self.clear_hint(idx, band);
            return None;
        }
        if let Some(item) = band.ring.pop() {
            band.count.fetch_sub(1, Ordering::SeqCst);
            self.len.fetch_sub(1, Ordering::SeqCst);
            return Some(item);
        }
        if band.spilled.load(Ordering::SeqCst) > 0 {
            let mut g = band.spill.lock();
            // Ring first even under the lock: a push that beat us into
            // the ring before spill mode engaged is older.
            if let Some(item) = band.ring.pop() {
                band.count.fetch_sub(1, Ordering::SeqCst);
                self.len.fetch_sub(1, Ordering::SeqCst);
                return Some(item);
            }
            if let Some(item) = g.pop_front() {
                band.spilled.store(g.len(), Ordering::SeqCst);
                band.count.fetch_sub(1, Ordering::SeqCst);
                self.len.fetch_sub(1, Ordering::SeqCst);
                return Some(item);
            }
        }
        // count > 0 but nothing visible: a push is mid-insert.
        None
    }

    /// Scans bands highest priority first following the occupancy
    /// hints.
    fn scan_hinted(&self) -> Option<(Priority, T)> {
        for word_idx in (0..2).rev() {
            let mut bits = self.hint[word_idx].load(Ordering::SeqCst);
            while bits != 0 {
                let top = 63 - bits.leading_zeros() as usize;
                let idx = word_idx * 64 + top;
                if let Some(item) = self.try_pop_band(idx) {
                    return Some((Priority::new(idx as u8), item));
                }
                bits &= !(1 << top);
            }
        }
        None
    }

    /// Exhaustive scan ignoring the hints (close/drain path).
    fn scan_all(&self) -> Option<(Priority, T)> {
        for idx in (1..BANDS).rev() {
            if let Some(item) = self.try_pop_band(idx) {
                return Some((Priority::new(idx as u8), item));
            }
        }
        None
    }

    /// Dequeues the most urgent item without blocking.
    pub fn try_pop(&self) -> Option<(Priority, T)> {
        self.scan_hinted()
    }

    /// Dequeues, blocking until an item arrives or the queue is closed.
    /// Returns `None` once closed *and* drained.
    pub fn pop(&self) -> Option<(Priority, T)> {
        if let Some(got) = self.scan_hinted() {
            // Backlog present: stay in throughput mode (full yield
            // budget before parking) for subsequent blocking pops.
            self.idle_hint.store(false, Ordering::Relaxed);
            return Some(got);
        }
        if let Some(o) = self.obs.get() {
            o.obs.inc(o.spins);
        }
        let mut backoff = Backoff::new();
        loop {
            if let Some(got) = self.scan_hinted() {
                return Some(got);
            }
            if self.closed.load(Ordering::SeqCst) {
                // Drain exhaustively: hints are only hints, and claims
                // admitted before the close must materialize.
                if let Some(got) = self.scan_all() {
                    return Some(got);
                }
                if self.len.load(Ordering::SeqCst) == 0 {
                    return None;
                }
                std::thread::yield_now();
                continue;
            }
            // Throughput mode burns the full spin+yield budget before
            // parking; idle mode (last blocking pop on this queue had
            // to park) skips the yield phase — on a genuinely idle
            // queue those yields only add latency to the next wakeup.
            let should_park = backoff.is_completed()
                || (backoff.spin_phase_complete() && self.idle_hint.load(Ordering::Relaxed));
            if should_park {
                self.idle_hint.store(true, Ordering::Relaxed);
                if let Some(o) = self.obs.get() {
                    o.obs.inc(o.parks);
                }
                self.gate.wait(None, || {
                    self.len.load(Ordering::SeqCst) > 0 || self.closed.load(Ordering::SeqCst)
                });
                backoff.reset();
            } else {
                backoff.snooze();
            }
        }
    }

    /// Dequeues up to `max` items in one call, blocking for the first
    /// one like [`PriorityFifo::pop`]; the rest are taken
    /// opportunistically without blocking, highest priority first.
    ///
    /// Returns an empty vector once the queue is closed *and* drained.
    /// Batching lets a pool worker drain several jobs per wakeup
    /// instead of paying one park/notify round-trip each.
    pub fn pop_batch(&self, max: usize) -> Vec<(Priority, T)> {
        let mut out = Vec::with_capacity(max.max(1));
        match self.pop() {
            None => return out,
            Some(first) => out.push(first),
        }
        while out.len() < max {
            match self.try_pop() {
                Some(next) => out.push(next),
                None => break,
            }
        }
        out
    }

    /// Closes the queue: further pushes fail, blocked poppers drain and
    /// then observe `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.gate.notify_all();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    /// Number of queued items (claims of in-flight pushes included).
    /// A single atomic load — never blocks.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Times a blocking pop exhausted its spin budget and parked.
    pub fn park_transitions(&self) -> u64 {
        self.gate.park_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn fifo_within_priority_band() {
        let q = PriorityFifo::new();
        for i in 0..10 {
            q.push(Priority::NORM, i);
        }
        for i in 0..10 {
            assert_eq!(q.try_pop().unwrap().1, i);
        }
    }

    #[test]
    fn higher_priority_wins() {
        let q = PriorityFifo::new();
        q.push(Priority::new(1), "a");
        q.push(Priority::new(50), "b");
        q.push(Priority::new(25), "c");
        let order: Vec<_> = std::iter::from_fn(|| q.try_pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!["b", "c", "a"]);
    }

    #[test]
    fn close_drains_then_none() {
        let q = PriorityFifo::new();
        q.push(Priority::NORM, 1);
        q.close();
        assert!(!q.push(Priority::NORM, 2));
        assert_eq!(q.pop(), Some((Priority::NORM, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = Arc::new(PriorityFifo::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.push(Priority::MAX, 7u32);
        assert_eq!(h.join().unwrap(), Some((Priority::MAX, 7)));
    }

    #[test]
    fn spill_preserves_fifo_beyond_ring_capacity() {
        // Push far more than BAND_RING_CAP into one band; order must
        // survive the ring → spill transition and back.
        let q = PriorityFifo::new();
        let n = BAND_RING_CAP * 3 + 17;
        for i in 0..n {
            assert!(q.push(Priority::NORM, i));
        }
        assert_eq!(q.len(), n);
        for i in 0..n {
            assert_eq!(q.try_pop().unwrap().1, i);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_is_priority_ordered_and_bounded() {
        let q = PriorityFifo::new();
        for (p, v) in [(5u8, "mid"), (99, "hi"), (1, "lo"), (99, "hi2")] {
            q.push(Priority::new(p), v);
        }
        let batch = q.pop_batch(3);
        let vals: Vec<_> = batch.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec!["hi", "hi2", "mid"]);
        assert_eq!(q.pop_batch(3).len(), 1);
    }

    #[test]
    fn pop_batch_empty_after_close() {
        let q: PriorityFifo<u8> = PriorityFifo::new();
        q.close();
        assert!(q.pop_batch(4).is_empty());
    }

    #[test]
    fn mpmc_no_loss_across_bands() {
        // 4 producers × 4 consumers, several priority bands, spill
        // engaged (band ring cap exceeded): every item delivered
        // exactly once and per-producer order holds within a band.
        const PRODUCERS: usize = 4;
        let per: usize = if cfg!(miri) { 40 } else { 20_000 };
        let q = Arc::new(PriorityFifo::new());
        let got = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                let got = Arc::clone(&got);
                std::thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let batch = q.pop_batch(8);
                        if batch.is_empty() {
                            break;
                        }
                        local.extend(batch);
                    }
                    got.lock().extend(local);
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    // Each producer uses its own priority band so FIFO
                    // per (producer, band) is checkable.
                    let prio = Priority::new(10 + p as u8);
                    for i in 0..per {
                        assert!(q.push(prio, (p, i)));
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        for c in consumers {
            c.join().unwrap();
        }
        let all = got.lock();
        assert_eq!(all.len(), PRODUCERS * per, "nothing lost");
        let mut seen: Vec<_> = all.iter().map(|&(_, v)| v).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), PRODUCERS * per, "nothing duplicated");
    }

    #[test]
    fn push_bounded_sheds_low_band_first() {
        let q = PriorityFifo::new();
        let admission = AdmissionPolicy::banded(20, 50);
        let cap = 10;
        // Fill to the low watermark (5) with low-priority items.
        for i in 0..5 {
            assert!(q.push_bounded(Priority::new(5), i, cap, &admission).is_ok());
        }
        // Low band now sheds; mid and high still admitted.
        assert!(matches!(
            q.push_bounded(Priority::new(5), 99, cap, &admission),
            Err(PushRefusal::Shed(99))
        ));
        assert!(q
            .push_bounded(Priority::new(30), 100, cap, &admission)
            .is_ok());
        assert!(q
            .push_bounded(Priority::new(30), 101, cap, &admission)
            .is_ok());
        // Occupancy 7 ≥ mid watermark (7): mid sheds, high admitted.
        assert!(matches!(
            q.push_bounded(Priority::new(30), 102, cap, &admission),
            Err(PushRefusal::Shed(102))
        ));
        for i in 0..3 {
            assert!(q
                .push_bounded(Priority::new(90), 200 + i, cap, &admission)
                .is_ok());
        }
        // Queue is at hard capacity: even the high band gets Full.
        assert!(matches!(
            q.push_bounded(Priority::new(90), 300, cap, &admission),
            Err(PushRefusal::Full(300))
        ));
        assert_eq!(q.len(), cap);
        // High-band FIFO order survived the shedding around it.
        let mut high = Vec::new();
        while let Some((p, v)) = q.try_pop() {
            if p == Priority::new(90) {
                high.push(v);
            }
        }
        assert_eq!(high, vec![200, 201, 202]);
    }

    #[test]
    fn push_bounded_closed_returns_item() {
        let q = PriorityFifo::new();
        q.close();
        assert!(matches!(
            q.push_bounded(Priority::NORM, 7, 4, &AdmissionPolicy::disabled()),
            Err(PushRefusal::Closed(7))
        ));
    }

    #[test]
    fn push_bounded_concurrent_never_overshoots() {
        // 4 producers hammer a tiny bounded queue while a consumer
        // drains: the strict CAS claim must keep len ≤ capacity at all
        // times and account every item as delivered or refused.
        let cap = 8;
        let per: usize = if cfg!(miri) { 40 } else { 20_000 };
        let q = Arc::new(PriorityFifo::new());
        let admission = AdmissionPolicy::banded(20, 50);
        let accepted = Arc::new(AtomicUsize::new(0));
        let refused = Arc::new(AtomicUsize::new(0));
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let q = Arc::clone(&q);
                let accepted = Arc::clone(&accepted);
                let refused = Arc::clone(&refused);
                std::thread::spawn(move || {
                    let prio = Priority::new(10 + 20 * p as u8);
                    for i in 0..per {
                        match q.push_bounded(prio, i, cap, &admission) {
                            Ok(len) => {
                                assert!(len <= cap, "overshoot: {len} > {cap}");
                                accepted.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(_) => {
                                refused.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                })
            })
            .collect();
        let q2 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            let mut n = 0usize;
            loop {
                match q2.pop() {
                    Some(_) => n += 1,
                    None => return n,
                }
            }
        });
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let drained = consumer.join().unwrap();
        assert_eq!(drained, accepted.load(Ordering::Relaxed));
        assert_eq!(
            accepted.load(Ordering::Relaxed) + refused.load(Ordering::Relaxed),
            4 * per
        );
    }

    #[test]
    fn close_wakes_all_parked_poppers() {
        let q: Arc<PriorityFifo<u8>> = Arc::new(PriorityFifo::new());
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        q.close();
        for w in waiters {
            assert_eq!(w.join().unwrap(), None);
        }
        assert!(q.park_transitions() >= 1, "poppers actually parked");
    }
}
