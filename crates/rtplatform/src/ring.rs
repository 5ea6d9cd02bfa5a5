//! Bounded lock-free MPMC ring buffer (Vyukov's algorithm).
//!
//! Each slot carries a sequence stamp; producers and consumers claim
//! slots by CAS on the head/tail counters and publish with a release
//! store of the stamp, so no operation ever takes a lock and a stalled
//! thread can only delay the one slot it claimed. This is the classic
//! design of Dmitry Vyukov's bounded MPMC queue, with the empty/full
//! disambiguation check `crossbeam`'s `ArrayQueue` uses (a stamp one
//! lap behind is only *possibly* full — the head pointer decides).
//!
//! One of the few modules in the workspace that contain `unsafe`
//! code (`scripts/check.sh` holds the list); everything above it
//! (`rtsched` buffers and queues, `rtmem` pools, `compadres-core`
//! message pools) builds on this ring and stays
//! `#![forbid(unsafe_code)]`. The CI miri job exercises this module
//! plus its direct consumers.

#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use crate::atomic::{Backoff, CachePadded};

struct Slot<T> {
    /// Stamp protocol: a slot at ring index `i` holds stamp `t` where
    /// `t ≡ i (mod capacity)` when empty-and-writable for the push with
    /// ticket `t`, `t+1` right after that push, and `t + capacity` once
    /// the matching pop has emptied it again.
    stamp: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer multi-consumer FIFO.
///
/// Capacity is rounded up to a power of two; [`MpmcRing::capacity`]
/// reports the physical (rounded) size. Callers that need an exact
/// logical bound gate admission with their own credit counter.
pub struct MpmcRing<T> {
    head: CachePadded<AtomicUsize>,
    tail: CachePadded<AtomicUsize>,
    slots: Box<[Slot<T>]>,
    mask: usize,
}

// SAFETY: the ring moves owned `T` values between threads exactly once
// each (a value written by one push is read by exactly one pop, with
// release/acquire ordering through the slot stamp), so `T: Send`
// suffices for both handing the ring itself to another thread and
// sharing it.
unsafe impl<T: Send> Send for MpmcRing<T> {}
unsafe impl<T: Send> Sync for MpmcRing<T> {}

impl<T> std::fmt::Debug for MpmcRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MpmcRing")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> MpmcRing<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to a
    /// power of two, minimum 2).
    ///
    /// The minimum of 2 is load-bearing: with a single slot the stamp
    /// of a just-filled slot (`t + 1`) is indistinguishable from the
    /// empty stamp of the next ticket (`t + capacity`), so a second
    /// push would overwrite the occupied slot. For any capacity ≥ 2
    /// the two readings differ modulo the capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MpmcRing<T> {
        assert!(capacity > 0, "ring capacity must be positive");
        let cap = capacity.next_power_of_two().max(2);
        let slots = (0..cap)
            .map(|i| Slot {
                stamp: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        MpmcRing {
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            slots,
            mask: cap - 1,
        }
    }

    /// Physical slot count (the requested capacity rounded up to a
    /// power of two).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Attempts to enqueue without blocking; returns the value back
    /// when the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut backoff = Backoff::new();
        let mut tail = self.tail.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[tail & self.mask];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == tail {
                // The slot is free for this ticket: claim it.
                match self.tail.compare_exchange_weak(
                    tail,
                    tail.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS above transferred exclusive
                        // ownership of this slot for ticket `tail` to
                        // this thread; no other push can claim it until
                        // the stamp advances a full lap, and no pop
                        // will read it before the release store below.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.stamp.store(tail.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(current) => {
                        tail = current;
                        backoff.spin();
                    }
                }
            } else if stamp.wrapping_add(self.slots.len()) == tail.wrapping_add(1) {
                // One lap behind: the queue was full at some point —
                // but a concurrent pop may be mid-flight. The head
                // pointer disambiguates.
                fence(Ordering::SeqCst);
                let head = self.head.load(Ordering::Relaxed);
                if head.wrapping_add(self.slots.len()) == tail {
                    return Err(value);
                }
                backoff.spin();
                tail = self.tail.load(Ordering::Relaxed);
            } else {
                // Another producer raced us to this ticket; reload.
                backoff.spin();
                tail = self.tail.load(Ordering::Relaxed);
            }
        }
    }

    /// Attempts to dequeue without blocking; returns `None` when the
    /// ring is empty.
    pub fn pop(&self) -> Option<T> {
        let mut backoff = Backoff::new();
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[head & self.mask];
            let stamp = slot.stamp.load(Ordering::Acquire);
            if stamp == head.wrapping_add(1) {
                // The slot holds the value for this ticket: claim it.
                match self.head.compare_exchange_weak(
                    head,
                    head.wrapping_add(1),
                    Ordering::SeqCst,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS transferred exclusive
                        // ownership of the initialized value in this
                        // slot to this thread; the acquire load of the
                        // stamp synchronized with the producer's
                        // release store.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.stamp
                            .store(head.wrapping_add(self.slots.len()), Ordering::Release);
                        return Some(value);
                    }
                    Err(current) => {
                        head = current;
                        backoff.spin();
                    }
                }
            } else if stamp == head {
                // Stamp from the previous lap: possibly empty — a
                // concurrent push may be mid-flight; the tail decides.
                fence(Ordering::SeqCst);
                let tail = self.tail.load(Ordering::Relaxed);
                if tail == head {
                    return None;
                }
                backoff.spin();
                head = self.head.load(Ordering::Relaxed);
            } else {
                // Another consumer raced us to this ticket; reload.
                backoff.spin();
                head = self.head.load(Ordering::Relaxed);
            }
        }
    }

    /// Approximate number of queued elements. Exact when no push or
    /// pop is concurrently in flight.
    pub fn len(&self) -> usize {
        loop {
            let tail = self.tail.load(Ordering::SeqCst);
            let head = self.head.load(Ordering::SeqCst);
            // Consistent snapshot: tail unchanged across the head read.
            if self.tail.load(Ordering::SeqCst) == tail {
                return tail.wrapping_sub(head);
            }
        }
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for MpmcRing<T> {
    fn drop(&mut self) {
        // Drain via the normal pop path: it handles every stamp state
        // without extra unsafe bookkeeping (we hold `&mut self`, so no
        // concurrent operations are possible).
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_thread() {
        let r = MpmcRing::new(4);
        for i in 0..4 {
            r.push(i).unwrap();
        }
        assert!(r.push(99).is_err(), "full");
        for i in 0..4 {
            assert_eq!(r.pop(), Some(i));
        }
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_one_request_gets_two_slots() {
        // Regression: a 1-slot ring's stamps alias and a second push
        // corrupts the occupied slot, wedging every later pop.
        let r = MpmcRing::new(1);
        assert_eq!(r.capacity(), 2);
        r.push(1u8).unwrap();
        r.push(2u8).unwrap();
        assert!(r.push(3u8).is_err());
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn capacity_rounds_up() {
        let r = MpmcRing::<u8>::new(5);
        assert_eq!(r.capacity(), 8);
        for i in 0..8 {
            r.push(i).unwrap();
        }
        assert!(r.push(9).is_err());
        assert_eq!(r.len(), 8);
    }

    #[test]
    fn wraps_many_laps() {
        let r = MpmcRing::new(2);
        for i in 0..100u32 {
            r.push(i).unwrap();
            assert_eq!(r.pop(), Some(i));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn drop_releases_remaining_values() {
        let v = Arc::new(());
        let r = MpmcRing::new(4);
        for _ in 0..3 {
            r.push(Arc::clone(&v)).unwrap();
        }
        drop(r);
        assert_eq!(Arc::strong_count(&v), 1, "queued Arcs dropped with ring");
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        const PRODUCERS: usize = 4;
        const CONSUMERS: usize = 4;
        let per = if cfg!(miri) { 64 } else { 10_000 };
        let r = Arc::new(MpmcRing::new(32));
        let got = Arc::new(std::sync::Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let r = Arc::clone(&r);
                let got = Arc::clone(&got);
                std::thread::spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        match r.pop() {
                            Some(v) => {
                                if v == usize::MAX {
                                    break;
                                }
                                local.push(v);
                            }
                            None => std::thread::yield_now(),
                        }
                    }
                    got.lock().unwrap().extend(local);
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..per {
                        let mut v = p * per + i;
                        loop {
                            match r.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        for _ in 0..CONSUMERS {
            loop {
                match r.push(usize::MAX) {
                    Ok(()) => break,
                    Err(_) => std::thread::yield_now(),
                }
            }
        }
        for c in consumers {
            c.join().unwrap();
        }
        let mut all = got.lock().unwrap().clone();
        all.sort_unstable();
        let expect: Vec<usize> = (0..PRODUCERS * per).collect();
        assert_eq!(all, expect, "every element delivered exactly once");
    }

    #[test]
    fn per_producer_order_is_preserved() {
        let per = if cfg!(miri) { 64 } else { 5_000 };
        let r = Arc::new(MpmcRing::new(8));
        let r2 = Arc::clone(&r);
        let producer = std::thread::spawn(move || {
            for i in 0..per {
                let mut v = i;
                while let Err(back) = r2.push(v) {
                    v = back;
                    std::thread::yield_now();
                }
            }
        });
        let mut last = None;
        let mut seen = 0;
        while seen < per {
            if let Some(v) = r.pop() {
                if let Some(prev) = last {
                    assert!(v > prev, "single producer order preserved");
                }
                last = Some(v);
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }
}
