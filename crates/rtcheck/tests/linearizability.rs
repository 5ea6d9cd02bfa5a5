//! Linearizability of the lock-free runtime structures, with negative
//! controls: the checker must accept histories recorded from the real
//! ring/queue/pool and must reject histories from deliberately
//! broken variants (LIFO order, duplicate delivery, double lease).

use std::sync::Mutex;

use rtcheck::history::{Clock, ThreadLog};
use rtcheck::lin::check;
use rtcheck::record;
use rtcheck::spec::{
    BoundedFifoSpec, PoolOp, PoolRet, PoolSpec, PriorityFifoSpec, QueueOp, QueueRet,
};

fn rounds() -> u64 {
    std::env::var("RTCHECK_LIN_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

#[test]
fn mpmc_ring_histories_are_linearizable() {
    for seed in 0..rounds() {
        let h = record::ring_history(seed, 3, 6, 4);
        assert!(
            check(&BoundedFifoSpec { capacity: 4 }, &h),
            "seed {seed}: {h:#?}"
        );
    }
}

#[test]
fn priority_fifo_histories_are_linearizable() {
    for seed in 0..rounds() {
        let h = record::fifo_history(seed, 3, 6);
        assert!(check(&PriorityFifoSpec, &h), "seed {seed}: {h:#?}");
    }
}

#[test]
fn scope_pool_histories_are_linearizable() {
    for seed in 0..rounds() {
        let (spec, h) = record::pool_history(seed, 3, 8, 3);
        assert!(check(&spec, &h), "seed {seed}: {h:#?}");
    }
}

/// Deliberately broken "queue": pops from the back (LIFO). Any
/// sequential run with two buffered elements betrays it.
struct LifoQueue(Mutex<Vec<u64>>);

impl LifoQueue {
    fn push(&self, v: u64) -> bool {
        self.0.lock().unwrap().push(v);
        true
    }
    fn pop(&self) -> Option<u64> {
        self.0.lock().unwrap().pop()
    }
}

#[test]
fn negative_control_lifo_queue_is_flagged() {
    let q = LifoQueue(Mutex::new(Vec::new()));
    let clock = Clock::new();
    let mut log = ThreadLog::new(&clock);
    log.record(QueueOp::Push(0, 1), || QueueRet::Pushed(q.push(1)));
    log.record(QueueOp::Push(0, 2), || QueueRet::Pushed(q.push(2)));
    log.record(QueueOp::Pop, || QueueRet::Popped(q.pop().map(|v| (0, v))));
    log.record(QueueOp::Pop, || QueueRet::Popped(q.pop().map(|v| (0, v))));
    let h = log.into_ops();
    assert!(
        !check(&BoundedFifoSpec { capacity: 16 }, &h),
        "LIFO order must not pass a FIFO spec: {h:#?}"
    );
}

/// Deliberately broken pop that delivers the front twice (a stutter —
/// the classic symptom of a racy head CAS).
#[test]
fn negative_control_duplicate_delivery_is_flagged() {
    use rtcheck::history::CompleteOp;
    let op = |op, ret, invoked, returned| CompleteOp {
        op,
        ret,
        invoked,
        returned,
    };
    let h = vec![
        op(QueueOp::Push(0, 7), QueueRet::Pushed(true), 0, 1),
        op(QueueOp::Pop, QueueRet::Popped(Some((0, 7))), 2, 3),
        op(QueueOp::Pop, QueueRet::Popped(Some((0, 7))), 4, 5),
    ];
    assert!(!check(&BoundedFifoSpec { capacity: 16 }, &h));
}

/// A lost element: pushed, then an empty pop after the push returned.
#[test]
fn negative_control_lost_element_is_flagged() {
    use rtcheck::history::CompleteOp;
    let h = vec![
        CompleteOp {
            op: QueueOp::Push(0, 7),
            ret: QueueRet::Pushed(true),
            invoked: 0,
            returned: 1,
        },
        CompleteOp {
            op: QueueOp::Pop,
            ret: QueueRet::Popped(None),
            invoked: 2,
            returned: 3,
        },
    ];
    assert!(!check(&BoundedFifoSpec { capacity: 16 }, &h));
}

/// Double lease: the pool hands the same slot to two holders.
#[test]
fn negative_control_double_lease_is_flagged() {
    use rtcheck::history::CompleteOp;
    let spec = PoolSpec {
        slots: (0..2).collect(),
    };
    let h = vec![
        CompleteOp {
            op: PoolOp::Acquire,
            ret: PoolRet::Acquired(Some(0)),
            invoked: 0,
            returned: 1,
        },
        CompleteOp {
            op: PoolOp::Acquire,
            ret: PoolRet::Acquired(Some(0)),
            invoked: 2,
            returned: 3,
        },
    ];
    assert!(!check(&spec, &h));
}

/// Priority inversion: a lower band pops while a higher one is
/// non-empty (with no overlap to excuse it).
#[test]
fn negative_control_priority_inversion_is_flagged() {
    use rtcheck::history::CompleteOp;
    let op = |op, ret, invoked, returned| CompleteOp {
        op,
        ret,
        invoked,
        returned,
    };
    let h = vec![
        op(QueueOp::Push(9, 1), QueueRet::Pushed(true), 0, 1),
        op(QueueOp::Push(1, 2), QueueRet::Pushed(true), 2, 3),
        op(QueueOp::Pop, QueueRet::Popped(Some((1, 2))), 4, 5),
    ];
    assert!(!check(&PriorityFifoSpec, &h));
}

/// Overlapping operations legitimately reorder: the checker must not
/// over-flag. Two pushes overlap, so either pop order is fine.
#[test]
fn overlapping_pushes_allow_either_pop_order() {
    use rtcheck::history::CompleteOp;
    let op = |op, ret, invoked, returned| CompleteOp {
        op,
        ret,
        invoked,
        returned,
    };
    let h = vec![
        op(QueueOp::Push(0, 1), QueueRet::Pushed(true), 0, 10),
        op(QueueOp::Push(0, 2), QueueRet::Pushed(true), 1, 9),
        op(QueueOp::Pop, QueueRet::Popped(Some((0, 2))), 11, 12),
        op(QueueOp::Pop, QueueRet::Popped(Some((0, 1))), 13, 14),
    ];
    assert!(check(&BoundedFifoSpec { capacity: 4 }, &h));
}
