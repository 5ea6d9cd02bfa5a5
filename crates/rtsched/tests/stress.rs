//! Stress and property tests for the scheduling substrate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtplatform::rng::SplitMix64;
use rtsched::{PoolConfig, Priority, PriorityFifo, ThreadPool};

#[test]
fn pool_survives_thousands_of_jobs_across_priorities() {
    let pool = ThreadPool::new(
        PoolConfig {
            min_threads: 2,
            max_threads: 6,
            idle_priority: Priority::MIN,
        },
        || 0u64,
    );
    let done = Arc::new(AtomicU64::new(0));
    for i in 0..5_000u64 {
        let done = Arc::clone(&done);
        pool.execute(Priority::new((i % 90) as u8 + 1), move |state, _| {
            *state += 1;
            done.fetch_add(1, Ordering::Relaxed);
        });
    }
    assert!(pool.wait_idle(Duration::from_secs(30)));
    assert_eq!(done.load(Ordering::Relaxed), 5_000);
    assert_eq!(pool.executed(), 5_000);
    assert!(pool.live_threads() <= 6);
}

/// FIFO per priority band survives contended batched dequeue: consumers
/// drain with `pop_batch` while producers each flood their own band.
#[test]
fn fifo_per_priority_under_contention() {
    const PER: u64 = 10_000;
    let q = Arc::new(PriorityFifo::new());
    let outputs = Arc::new(std::sync::Mutex::new(Vec::<(u8, u64)>::new()));
    let consumers: Vec<_> = (0..3)
        .map(|_| {
            let q = Arc::clone(&q);
            let outputs = Arc::clone(&outputs);
            std::thread::spawn(move || loop {
                let batch = q.pop_batch(8);
                if batch.is_empty() {
                    break;
                }
                let mut guard = outputs.lock().unwrap();
                for (p, v) in batch {
                    guard.push((p.value(), v));
                }
            })
        })
        .collect();
    let producers: Vec<_> = (0..4u8)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let prio = Priority::new(20 + p);
                for i in 0..PER {
                    assert!(q.push(prio, i));
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
    let all = outputs.lock().unwrap();
    assert_eq!(all.len() as u64, 4 * PER, "no message lost");
    // Within each band, the interleaving as appended under the output
    // lock preserves... nothing across consumers — but each *consumer
    // batch* is contiguous under the lock, and within one batch a band's
    // items must be in order; globally, check sequence monotonicity per
    // band per contiguous run is too weak, so instead check the strong
    // per-band property end-to-end via counting: each band delivered
    // exactly PER distinct items.
    for band in 0..4u8 {
        let mut vals: Vec<u64> = all
            .iter()
            .filter(|&&(p, _)| p == 20 + band)
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(vals.len() as u64, PER);
        vals.sort_unstable();
        vals.dedup();
        assert_eq!(vals.len() as u64, PER, "band {band} duplicated an item");
    }
}

/// A single consumer preserves exact FIFO order per band (the paper's
/// in-port dispatch-order guarantee) even when producers contend.
#[test]
fn single_consumer_sees_exact_band_fifo() {
    const PER: u64 = 20_000;
    let q = Arc::new(PriorityFifo::new());
    let producers: Vec<_> = (0..4u8)
        .map(|p| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let prio = Priority::new(30 + p);
                for i in 0..PER {
                    assert!(q.push(prio, (p, i)));
                }
            })
        })
        .collect();
    let mut next = [0u64; 4];
    let mut seen = 0u64;
    while seen < 4 * PER {
        for (_, (p, i)) in q.pop_batch(16) {
            assert_eq!(
                i, next[p as usize],
                "band {p} out of order: got {i}, expected {}",
                next[p as usize]
            );
            next[p as usize] += 1;
            seen += 1;
        }
    }
    for p in producers {
        p.join().unwrap();
    }
    assert!(q.is_empty());
}

/// `close()` must wake every consumer parked on an empty queue.
#[test]
fn close_wakes_every_parked_waiter() {
    let q: Arc<PriorityFifo<u8>> = Arc::new(PriorityFifo::new());
    let q_waiters: Vec<_> = (0..4)
        .map(|_| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(60));
    q.close();
    for w in q_waiters {
        assert_eq!(w.join().unwrap(), None);
    }
    assert!(q.park_transitions() >= 1, "waiters actually parked");
}

/// Latency summaries are order-independent and internally consistent.
#[test]
fn latency_summary_consistency() {
    use rtsched::LatencyRecorder;
    let mut rng = SplitMix64::new(0x1A7);
    for _case in 0..64 {
        let mut samples: Vec<u64> = (0..rng.range_usize(1, 200))
            .map(|_| rng.range_usize(1, 1_000_000) as u64)
            .collect();
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(Duration::from_nanos(s));
        }
        let a = rec.summary();
        samples.reverse();
        let mut rec2 = LatencyRecorder::new();
        for &s in &samples {
            rec2.record(Duration::from_nanos(s));
        }
        let b = rec2.summary();
        assert_eq!(a, b);
        assert!(a.min <= a.median && a.median <= a.max);
        assert!(a.min <= a.mean && a.mean <= a.max);
        assert!(a.p90 <= a.p99 && a.p99 <= a.p999 && a.p999 <= a.max);
        assert_eq!(a.jitter(), a.max - a.min);
    }
}
