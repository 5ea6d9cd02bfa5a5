//! Recorded concurrent scenarios for the real runtime structures.
//!
//! Each function runs a seeded multi-threaded workload against the
//! actual implementation — `MpmcRing`, `PriorityFifo`, `ScopePool`,
//! `SegPool` — and returns the merged
//! timestamped history for [`crate::lin::check`]. Workloads are kept
//! short (the checker is exponential in overlap) and every thread
//! releases what it holds *within* its recorded sequence, so the
//! history is complete and self-contained.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use rtmem::{MemoryModel, ScopePool};
use rtplatform::bufchain::{SegPool, SegRef};
use rtplatform::ring::MpmcRing;
use rtplatform::rng::SplitMix64;
use rtsched::{Priority, PriorityFifo};

use crate::history::{merge, Clock, CompleteOp, ThreadLog};
use crate::spec::{PoolOp, PoolRet, PoolSpec, QueueOp, QueueRet};

/// A queue-shaped history.
pub type QueueHistory = Vec<CompleteOp<QueueOp, QueueRet>>;

/// Runs `threads` workers, each performing `ops` seeded push/pop calls
/// against a [`MpmcRing`] of `capacity`, and returns the history.
pub fn ring_history(seed: u64, threads: usize, ops: usize, capacity: usize) -> QueueHistory {
    let ring = Arc::new(MpmcRing::<u64>::new(capacity));
    queue_scenario(
        seed,
        threads,
        ops,
        &[0],
        move |push: Option<(u8, u64)>| match push {
            Some((_, v)) => QueueRet::Pushed(ring.push(v).is_ok()),
            None => QueueRet::Popped(ring.pop().map(|v| (0, v))),
        },
    )
}

/// Like [`ring_history`] for a [`PriorityFifo`], with random
/// priorities across three bands.
pub fn fifo_history(seed: u64, threads: usize, ops: usize) -> QueueHistory {
    let q = Arc::new(PriorityFifo::<u64>::new());
    queue_scenario(seed, threads, ops, &[1, 5, 9], move |push| match push {
        Some((p, v)) => QueueRet::Pushed(q.push(Priority::new(p), v)),
        None => QueueRet::Popped(q.try_pop().map(|(p, v)| (p.value(), v))),
    })
}

/// Shared queue workload: `op(Some((prio, value)))` pushes,
/// `op(None)` pops. `bands` is the priority vocabulary — structures
/// without priorities use a single band matching their pop mapping.
fn queue_scenario(
    seed: u64,
    threads: usize,
    ops: usize,
    bands: &'static [u8],
    op: impl Fn(Option<(u8, u64)>) -> QueueRet + Send + Sync + 'static,
) -> QueueHistory {
    let clock = Clock::new();
    let op = Arc::new(op);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let mut log = ThreadLog::new(&clock);
            let op = Arc::clone(&op);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x9E37));
                for i in 0..ops {
                    if rng.chance(0.55) {
                        let prio = bands[rng.below(bands.len())];
                        let value = (t * 1_000 + i) as u64;
                        log.record(QueueOp::Push(prio, value), || op(Some((prio, value))));
                    } else {
                        log.record(QueueOp::Pop, || op(None));
                    }
                }
                log.into_ops()
            })
        })
        .collect();
    merge(handles.into_iter().map(|h| h.join().unwrap()).collect())
}

/// Runs a seeded acquire/release workload against a real
/// [`ScopePool`] and returns the matching spec (slot universe) plus
/// the history. Slots are named by their region's position in an
/// initial full drain of the pool.
pub fn pool_history(
    seed: u64,
    threads: usize,
    ops: usize,
    pool_size: usize,
) -> (PoolSpec, Vec<CompleteOp<PoolOp, PoolRet>>) {
    let model = MemoryModel::new();
    let pool = ScopePool::new(&model, 1, 4096, pool_size).expect("pool");

    // Learn the slot universe: drain the pool once, single-threaded.
    let mut region_ids = std::collections::HashMap::new();
    {
        let mut leases = Vec::new();
        while let Ok(lease) = pool.acquire() {
            region_ids.insert(lease.region(), region_ids.len() as u64);
            leases.push(lease);
        }
    }
    assert_eq!(region_ids.len(), pool_size, "drain saw every slot");
    let region_ids = Arc::new(region_ids);

    let clock = Clock::new();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let pool = pool.clone();
            let region_ids = Arc::clone(&region_ids);
            let mut log = ThreadLog::new(&clock);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0xA5A5));
                let mut held = Vec::new();
                for _ in 0..ops {
                    if held.is_empty() || rng.chance(0.6) {
                        let got = log.record(PoolOp::Acquire, || {
                            PoolRet::Acquired(pool.acquire().ok().map(|l| {
                                let id = region_ids[&l.region()];
                                held.push((id, l));
                                id
                            }))
                        });
                        let _ = got;
                    } else {
                        let (id, lease) = held.swap_remove(rng.below(held.len()));
                        record_release(&mut log, id, lease);
                    }
                }
                // Release everything inside the recorded sequence so
                // no unrecorded release races another thread's ops.
                for (id, lease) in held {
                    record_release(&mut log, id, lease);
                }
                log.into_ops()
            })
        })
        .collect();
    let history = merge(handles.into_iter().map(|h| h.join().unwrap()).collect());
    let spec = PoolSpec {
        slots: (0..pool_size as u64).collect::<BTreeSet<u64>>(),
    };
    (spec, history)
}

/// Records dropping `handle` as the release of slot `id`.
fn record_release<T>(log: &mut ThreadLog<PoolOp, PoolRet>, id: u64, handle: T) {
    log.record(PoolOp::Release(id), || {
        drop(handle);
        PoolRet::Released
    });
}

/// Like [`pool_history`] for the zero-copy path's
/// [`SegPool`]: seeded `try_lease`/drop(release) traffic against the
/// real segment ring, slots named by each segment's stable buffer
/// address learned from an initial full drain. Only `try_lease` is
/// exercised — the heap fallback of `lease` is deliberately outside
/// the bounded-resource spec. A lease may also be frozen and passed on
/// as a clone, so that the release a thread records is the last drop
/// of a shared handle on a slot another thread leased.
pub fn segpool_history(
    seed: u64,
    threads: usize,
    ops: usize,
    pool_size: usize,
) -> (PoolSpec, Vec<CompleteOp<PoolOp, PoolRet>>) {
    let pool = SegPool::new(pool_size, 64);

    // Learn the slot universe: drain the pool once, single-threaded.
    let mut slot_ids = std::collections::HashMap::new();
    {
        let mut leases = Vec::new();
        while let Some(seg) = pool.try_lease() {
            slot_ids.insert(seg.bytes().as_ptr() as usize, slot_ids.len() as u64);
            leases.push(seg);
        }
    }
    assert_eq!(slot_ids.len(), pool_size, "drain saw every segment");
    let slot_ids = Arc::new(slot_ids);
    // Frozen clones on their way to whichever thread drops them last.
    let passed = Arc::new(Mutex::new(Vec::<(u64, SegRef)>::new()));

    let clock = Clock::new();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let pool = pool.clone();
            let slot_ids = Arc::clone(&slot_ids);
            let passed = Arc::clone(&passed);
            let mut log = ThreadLog::new(&clock);
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(seed ^ (t as u64).wrapping_mul(0x5E61));
                let mut held = Vec::new();
                let take_passed = || passed.lock().unwrap().pop();
                for _ in 0..ops {
                    if held.is_empty() || rng.chance(0.6) {
                        log.record(PoolOp::Acquire, || {
                            PoolRet::Acquired(pool.try_lease().map(|seg| {
                                let id = slot_ids[&(seg.bytes().as_ptr() as usize)];
                                held.push((id, seg));
                                id
                            }))
                        });
                        continue;
                    }
                    // Take before passing on, or a thread would mostly
                    // get its own clone back.
                    if let Some((id, clone)) = take_passed() {
                        record_release(&mut log, id, clone);
                    }
                    let (id, seg) = held.swap_remove(rng.below(held.len()));
                    if rng.chance(0.3) {
                        // Not a release yet: the clone holds the slot,
                        // its count back at one.
                        let shared = seg.freeze();
                        let clone = shared.clone();
                        drop(shared);
                        passed.lock().unwrap().push((id, clone));
                    } else {
                        record_release(&mut log, id, seg);
                    }
                }
                // Release everything inside the recorded sequence so
                // no unrecorded release races another thread's ops; a
                // clone passed on is found here by its sender at the
                // latest.
                for (id, seg) in held {
                    record_release(&mut log, id, seg);
                }
                while let Some((id, clone)) = take_passed() {
                    record_release(&mut log, id, clone);
                }
                log.into_ops()
            })
        })
        .collect();
    let history = merge(handles.into_iter().map(|h| h.join().unwrap()).collect());
    let spec = PoolSpec {
        slots: (0..pool_size as u64).collect::<BTreeSet<u64>>(),
    };
    (spec, history)
}
