//! Model-based checking of the `rtobs` journal ring — the flight
//! recorder every span event lands in. The journal's contract (see
//! `rtobs::journal`) is seqlock-published slots over `fetch_add`
//! sequence claims, which must yield, under arbitrary concurrency:
//!
//! 1. **No duplicated sequence numbers** in any snapshot (two writers
//!    can never publish the same claim);
//! 2. **No torn events**: every snapshotted event is exactly one
//!    writer's record, never a blend of two;
//! 3. **Per-writer program order**: one thread's events appear in the
//!    sequence order it recorded them;
//! 4. **Conservation**: every `record` call is either recorded or
//!    counted in `dropped` — claims are never silently lost.
//!
//! These are the properties the trace reconstructor (`SpanForest`)
//! leans on when it stitches journals into causal trees: a duplicated
//! or reordered seq would fabricate hops that never happened.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use rtobs::{EventKind, Journal};
use rtplatform::rng::SplitMix64;

fn rounds() -> u64 {
    std::env::var("RTCHECK_LIN_ROUNDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(40)
}

/// Payloads carry `(writer << 32) | op_index` and the timestamp word
/// carries a keyed mix of the payload, so a torn read (words from two
/// different records) is detectable from the event alone.
fn stamp(payload: u64) -> u64 {
    payload.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03
}

/// Checks one snapshot against the model. `writers` is the thread
/// count; returns the set of invariant violations found.
fn audit(events: &[rtobs::Event], writers: usize) -> Vec<String> {
    let mut bad = Vec::new();
    let mut last_seq: Option<u64> = None;
    let mut last_op = vec![None::<u64>; writers];
    for e in events {
        // (1) snapshot order is strictly increasing seqs: a duplicate
        // or regression means two slots published the same claim.
        if let Some(prev) = last_seq {
            if e.seq <= prev {
                bad.push(format!("seq {} follows {} (dup/reorder)", e.seq, prev));
            }
        }
        last_seq = Some(e.seq);
        // (2) torn-event check: all words must belong to one record.
        let w = (e.payload >> 32) as usize;
        if e.t_ns != stamp(e.payload) || e.subject as u64 != e.payload >> 32 || w >= writers {
            bad.push(format!("torn event at seq {}: {e:?}", e.seq));
            continue;
        }
        // (3) a writer's op indices appear in the order it ran them.
        let op = e.payload & 0xFFFF_FFFF;
        if let Some(prev) = last_op[w] {
            if op <= prev {
                bad.push(format!("writer {w} op {op} after {prev} (reordered)"));
            }
        }
        last_op[w] = Some(op);
    }
    bad
}

/// Sequential conformance: below capacity the journal *is* the model —
/// every record is snapshotted, in order, with nothing dropped.
#[test]
fn sequential_journal_matches_the_model_exactly() {
    let j = Journal::with_capacity(64);
    for i in 0..40u64 {
        j.record(EventKind::PortEnqueue, (i >> 32) as u32, i, stamp(i));
    }
    let events = j.snapshot();
    assert_eq!(events.len(), 40);
    for (i, e) in events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
        assert_eq!(e.payload, i as u64);
        assert_eq!(e.t_ns, stamp(i as u64));
    }
    assert_eq!(j.recorded(), 40);
    assert_eq!(j.dropped(), 0);
}

/// Concurrent writers race on a deliberately small ring while a
/// checker thread snapshots mid-flight: every snapshot must satisfy
/// the no-dup / no-tear / program-order invariants, and the final
/// accounting must conserve every claim.
#[test]
fn concurrent_writers_never_duplicate_or_reorder_seqs() {
    const WRITERS: usize = 4;
    const OPS: u64 = 400;
    for seed in 0..rounds() {
        // Small capacity forces many laps; drops under contention are
        // legal, lost or duplicated claims are not.
        let j = Arc::new(Journal::with_capacity(32));
        let done = Arc::new(AtomicBool::new(false));

        let auditor = {
            let j = Arc::clone(&j);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                // At least one audit per round: on a loaded box the
                // writers can finish before this thread first runs.
                loop {
                    let bad = audit(&j.snapshot(), WRITERS);
                    assert!(bad.is_empty(), "seed {seed}: {bad:?}");
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                }
            })
        };

        let workers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let j = Arc::clone(&j);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(seed ^ (w as u64) << 17);
                    for i in 0..OPS {
                        let payload = (w as u64) << 32 | i;
                        j.record(EventKind::PortEnqueue, w as u32, payload, stamp(payload));
                        if rng.chance(0.05) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for t in workers {
            t.join().unwrap();
        }
        done.store(true, Ordering::Release);
        auditor.join().unwrap();

        // (4) conservation: recorded + dropped accounts for every call.
        assert_eq!(
            j.recorded() + j.dropped(),
            WRITERS as u64 * OPS,
            "seed {seed}: claims leaked"
        );
        let bad = audit(&j.snapshot(), WRITERS);
        assert!(bad.is_empty(), "seed {seed} (final): {bad:?}");
        // A quiescent snapshot of a full ring holds exactly the newest
        // published events — one per live slot, minus dropped laps.
        let events = j.snapshot();
        assert!(!events.is_empty());
        assert!(events.len() <= j.capacity());
    }
}
