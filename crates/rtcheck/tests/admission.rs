//! Banded-admission conformance: histories recorded from the real
//! `PriorityFifo::push_bounded`, and from the `AdmissionPolicy::claim`
//! under it and under core's `deliver()`, must satisfy
//! [`BandedAdmissionSpec`], and the spec must reject histories from
//! queues that get admission wrong — most importantly the starved band: a zero-permille band has
//! a watermark of zero, so *any* admitted push in it is a violation,
//! even into an empty queue.

use std::sync::atomic::AtomicUsize;
use std::sync::Barrier;

use rtcheck::history::{merge, Clock, ThreadLog};
use rtcheck::lin::check;
use rtcheck::spec::{BandedAdmissionSpec, QueueOp, QueueRet};
use rtplatform::fault::AdmissionPolicy;
use rtsched::{Priority, PriorityFifo};

const CAPACITY: usize = 8;

fn banded() -> AdmissionPolicy {
    // Watermarks on CAPACITY=8: low 4, mid 6, high 8.
    AdmissionPolicy::banded(10, 40)
}

fn starved_low() -> AdmissionPolicy {
    AdmissionPolicy {
        high_floor: 40,
        mid_floor: 10,
        mid_permille: 750,
        low_permille: 0,
    }
}

/// Drives the real queue through a mixed-priority overload (bottom-up
/// fill past every watermark, then a full drain) and checks the
/// recorded history against the sequential model.
#[test]
fn real_queue_banded_history_conforms() {
    let admission = banded();
    let q: PriorityFifo<u64> = PriorityFifo::new();
    let clock = Clock::new();
    let mut log = ThreadLog::new(&clock);

    // Fill bottom-up: 4 lows admitted + 2 shed, 2 mids + 1 shed,
    // 2 highs + 1 hard-full. Every verdict goes into the history.
    let plan: &[(u8, u64)] = &[
        (1, 1),
        (1, 2),
        (1, 3),
        (1, 4),
        (1, 90),
        (9, 91),
        (25, 5),
        (10, 6),
        (39, 92),
        (45, 7),
        (40, 8),
        (50, 93),
    ];
    for &(prio, val) in plan {
        log.record(QueueOp::Push(prio, val), || {
            QueueRet::Pushed(
                q.push_bounded(Priority::new(prio), val, CAPACITY, &admission)
                    .is_ok(),
            )
        });
    }
    // Drain everything, plus one pop of the empty queue.
    for _ in 0..9 {
        log.record(QueueOp::Pop, || {
            QueueRet::Popped(q.try_pop().map(|(p, v)| (p.value(), v)))
        });
    }

    let h = log.into_ops();
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission,
    };
    assert!(
        check(&spec, &h),
        "real push_bounded history rejected: {h:#?}"
    );
}

/// The real queue under a zero-permille (starved) low band: every
/// low push is refused even while the queue is empty, the other bands
/// flow, and the recorded history conforms to the model.
#[test]
fn real_queue_starved_band_history_conforms() {
    let admission = starved_low();
    let q: PriorityFifo<u64> = PriorityFifo::new();
    let clock = Clock::new();
    let mut log = ThreadLog::new(&clock);

    for val in 0..3 {
        log.record(QueueOp::Push(1, val), || {
            let refused = q
                .push_bounded(Priority::new(1), val, CAPACITY, &admission)
                .is_err();
            assert!(refused, "starved band admitted a push");
            QueueRet::Pushed(false)
        });
    }
    log.record(QueueOp::Push(40, 100), || {
        QueueRet::Pushed(
            q.push_bounded(Priority::new(40), 100, CAPACITY, &admission)
                .is_ok(),
        )
    });
    log.record(QueueOp::Pop, || {
        QueueRet::Popped(q.try_pop().map(|(p, v)| (p.value(), v)))
    });

    let h = log.into_ops();
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission,
    };
    assert!(check(&spec, &h), "starved-band history rejected: {h:#?}");
}

/// Concurrent claims, one slot under capacity: low-band threads, all
/// refused at their watermark, race one high-band thread. A refusal
/// changes nothing, so every linearization has the high band's push
/// meet occupancy `CAPACITY - 1` and it must be admitted — a refused
/// sender that is visible in the occupancy even for an instant (claim
/// by add, then roll back) takes that slot from it.
#[test]
fn concurrent_refusals_never_cost_the_high_band_its_slot() {
    const LOW_THREADS: u64 = 3;
    const LOW_PUSHES: u64 = 12;
    let admission = banded();
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission,
    };
    for round in 0..1_000 {
        let occupancy = AtomicUsize::new(0);
        let clock = Clock::new();
        let push = |log: &mut ThreadLog<QueueOp, QueueRet>, prio: u8, val: u64| {
            log.record(QueueOp::Push(prio, val), || {
                QueueRet::Pushed(admission.claim(&occupancy, prio, CAPACITY).is_ok())
            });
        };
        let mut fill = ThreadLog::new(&clock);
        for val in 0..CAPACITY as u64 - 1 {
            push(&mut fill, 45, val);
        }
        let start = Barrier::new(LOW_THREADS as usize + 1);
        let racers = std::thread::scope(|s| {
            let racers: Vec<_> = (0..=LOW_THREADS)
                .map(|t| {
                    let (clock, start, push) = (&clock, &start, &push);
                    s.spawn(move || {
                        let mut log = ThreadLog::new(clock);
                        start.wait();
                        if t == LOW_THREADS {
                            push(&mut log, 45, 100);
                        } else {
                            for i in 0..LOW_PUSHES {
                                push(&mut log, 1, 1_000 * (t + 1) + i);
                            }
                        }
                        log.into_ops()
                    })
                })
                .collect();
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let h = merge([vec![fill.into_ops()], racers].concat());
        assert!(
            check(&spec, &h),
            "round {round}: concurrent claim history rejected: {h:#?}"
        );
    }
}

/// Negative control: a queue that admits into a starved band. One
/// sequential push is enough — Pushed(true) at priority 0 under a
/// zero-permille policy has no legal linearization.
#[test]
fn negative_control_starved_band_admission_is_flagged() {
    use rtcheck::history::CompleteOp;
    let h = vec![CompleteOp {
        op: QueueOp::Push(0, 7),
        ret: QueueRet::Pushed(true),
        invoked: 0,
        returned: 1,
    }];
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission: starved_low(),
    };
    assert!(
        !check(&spec, &h),
        "an admitted push into a starved band must be flagged"
    );
}

/// Negative control: a queue that lets the low band run past its
/// watermark (5 admitted lows with watermark 4 — the pre-admission
/// FIFO behaviour) must not pass the banded spec.
#[test]
fn negative_control_watermark_overshoot_is_flagged() {
    use rtcheck::history::CompleteOp;
    let h: Vec<_> = (0..5)
        .map(|i| CompleteOp {
            op: QueueOp::Push(0, i),
            ret: QueueRet::Pushed(true),
            invoked: 2 * i,
            returned: 2 * i + 1,
        })
        .collect();
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission: banded(),
    };
    assert!(
        !check(&spec, &h),
        "a low band overshooting its watermark must be flagged"
    );
}

/// Negative control in the other direction: a phantom shed — the high
/// band refused with the queue completely empty — is just as illegal
/// as an overshoot. Admission must be exact, not merely conservative.
#[test]
fn negative_control_phantom_shed_is_flagged() {
    use rtcheck::history::CompleteOp;
    let h = vec![CompleteOp {
        op: QueueOp::Push(50, 7),
        ret: QueueRet::Pushed(false),
        invoked: 0,
        returned: 1,
    }];
    let spec = BandedAdmissionSpec {
        capacity: CAPACITY,
        admission: banded(),
    };
    assert!(
        !check(&spec, &h),
        "a refused high-band push on an empty queue must be flagged"
    );
}
