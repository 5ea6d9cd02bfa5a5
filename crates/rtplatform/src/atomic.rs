//! Small atomics helpers shared by the lock-free hot-path structures:
//! exponential spin backoff and cache-line padding.
//!
//! These are deliberately tiny, dependency-free re-derivations of the
//! idioms `crossbeam-utils` popularized; the offline build cannot pull
//! the real crate in.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Pads and aligns a value to a 64-byte cache line so two frequently
/// updated atomics (e.g. a ring's head and tail) never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> CachePadded<T> {
        CachePadded { value }
    }
}

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// Last step of pure spinning (step `n` issues `1 << n` spin hints);
/// later steps of [`Backoff::snooze`] yield instead.
const SPIN_LIMIT: u32 = 4;
/// Last step before [`Backoff::is_completed`] tells the waiter to park.
/// Parking costs a syscall pair plus a wakeup on the producer side, so
/// the budget covers short producer gaps without entering the kernel.
const YIELD_LIMIT: u32 = 8;

/// Exponential backoff for optimistic concurrency loops.
///
/// Retried CAS failures spin briefly (doubling each time); once the
/// backoff [`is_completed`](Backoff::is_completed) the caller should
/// stop burning cycles and park on a real blocking primitive instead —
/// on a single-core box (the CI runner has one) long spins only steal
/// the timeslice from the thread that would make progress.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

impl Default for Backoff {
    fn default() -> Backoff {
        Backoff::new()
    }
}

impl Backoff {
    /// Creates a fresh backoff in the cheap-spin phase.
    pub const fn new() -> Backoff {
        Backoff { step: 0 }
    }

    /// Backs off after a failed CAS in a lock-free loop: pure spinning,
    /// never yields. Use inside loops that are guaranteed to complete
    /// (another thread mid-operation will finish in a bounded number of
    /// instructions).
    pub fn spin(&mut self) {
        for _ in 0..1u32 << self.step.min(SPIN_LIMIT) {
            std::hint::spin_loop();
        }
        // Cap below the park threshold: a pure CAS-retry loop must
        // never look park-worthy to `is_completed`.
        if self.step < SPIN_LIMIT {
            self.step += 1;
        }
    }

    /// Backs off while waiting for an external event (a producer to
    /// arrive, a consumer to make room): spins first, then yields the
    /// thread.
    pub fn snooze(&mut self) {
        if self.step <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// Whether the spin/yield budget is exhausted and the caller should
    /// park on a blocking primitive.
    ///
    /// The yield phase is kept even on a single-core host: yielding
    /// there donates the timeslice to whichever thread will publish the
    /// awaited state (measured on the contended dispatch bench, parking
    /// right after the spin phase costs ~3x throughput on one core).
    pub fn is_completed(&self) -> bool {
        self.step > YIELD_LIMIT
    }

    /// Whether the pure-spin phase is over (the backoff is yielding).
    /// Callers with evidence that the wait will be long (e.g. a queue
    /// that was idle on its last wait) can park at this point instead
    /// of burning the yield budget.
    pub fn spin_phase_complete(&self) -> bool {
        self.step >= SPIN_LIMIT
    }

    /// Resets the backoff to the cheap-spin phase.
    pub fn reset(&mut self) {
        self.step = 0;
    }
}

thread_local! {
    static THREAD_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

static GLOBAL_THREAD_IDS: AtomicUsize = AtomicUsize::new(0);

/// The calling thread's shard in `0..shards`, used by per-producer
/// sharded pools to spread threads across shards.
///
/// Each thread gets one dense process-global index on first use (and
/// keeps it for its lifetime), reduced modulo `shards` per call site.
pub fn current_shard(shards: usize) -> usize {
    debug_assert!(shards > 0);
    THREAD_SHARD.with(|c| {
        let mut id = c.get();
        if id == usize::MAX {
            id = GLOBAL_THREAD_IDS.fetch_add(1, Ordering::Relaxed);
            c.set(id);
        }
        id % shards
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_progresses_to_completion() {
        let mut b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
        b.reset();
        assert!(!b.is_completed());
    }

    #[test]
    fn spin_never_completes() {
        let mut b = Backoff::new();
        for _ in 0..64 {
            b.spin();
        }
        assert!(!b.is_completed(), "pure CAS backoff never asks to park");
    }

    #[test]
    fn budget_is_the_constants() {
        let mut b = Backoff::new();
        for _ in 0..SPIN_LIMIT {
            assert!(!b.spin_phase_complete());
            b.snooze();
        }
        assert!(b.spin_phase_complete());
        for _ in SPIN_LIMIT..YIELD_LIMIT {
            b.snooze();
        }
        assert!(!b.is_completed(), "step 8 is still inside the budget");
        b.snooze();
        assert!(b.is_completed(), "parks once the step passes 8");
    }

    #[test]
    fn cache_padded_is_aligned() {
        let v = CachePadded::new(7u8);
        assert_eq!(std::mem::align_of_val(&v), 64);
        assert_eq!(*v, 7);
    }

    #[test]
    fn shard_index_is_stable_per_thread() {
        let a = current_shard(4);
        let b = current_shard(4);
        assert_eq!(a, b);
        assert!(a < 4);
    }

    #[test]
    fn shard_indices_spread_across_threads() {
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(std::thread::spawn(move || current_shard(1 << 30)));
        }
        let mut seen: Vec<usize> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 4, "each thread gets a distinct raw id");
    }
}
