//! Sequential specifications for the lock-free runtime structures:
//! bounded FIFO (ring / rejecting buffer), priority-banded FIFO
//! (`PriorityFifo`) and free-slot pool (`ScopePool`). Each is a small
//! state machine over plain values; [`crate::lin::check`] decides
//! whether a recorded concurrent history has a legal sequential order.

use std::collections::BTreeSet;

use rtplatform::fault::AdmissionPolicy;

use crate::lin::Spec;

/// Operations on any of the queue-shaped structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp {
    /// Enqueue a value (with a priority where the structure has one).
    Push(u8, u64),
    /// Dequeue.
    Pop,
}

/// Observed queue results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueRet {
    /// Whether the push was admitted.
    Pushed(bool),
    /// The popped (priority, value), or `None` on empty.
    Popped(Option<(u8, u64)>),
}

/// Bounded single-band FIFO that rejects pushes when full — the model
/// of [`rtplatform::ring::MpmcRing`]. Priorities are carried but
/// ignored (use one constant band).
#[derive(Debug)]
pub struct BoundedFifoSpec {
    /// Logical capacity: a push into a full queue must report `false`.
    pub capacity: usize,
}

impl Spec for BoundedFifoSpec {
    type Op = QueueOp;
    type Ret = QueueRet;
    type State = Vec<(u8, u64)>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, s: &Self::State, op: &Self::Op, ret: &Self::Ret) -> Option<Self::State> {
        match (op, ret) {
            (QueueOp::Push(p, v), QueueRet::Pushed(true)) if s.len() < self.capacity => {
                let mut n = s.clone();
                n.push((*p, *v));
                Some(n)
            }
            (QueueOp::Push(..), QueueRet::Pushed(false)) if s.len() == self.capacity => {
                Some(s.clone())
            }
            (QueueOp::Pop, QueueRet::Popped(Some(pv))) if s.first() == Some(pv) => {
                Some(s[1..].to_vec())
            }
            (QueueOp::Pop, QueueRet::Popped(None)) if s.is_empty() => Some(s.clone()),
            _ => None,
        }
    }
}

/// Unbounded priority-banded FIFO: pop returns the front of the
/// highest non-empty band — the model of `rtsched::PriorityFifo`
/// (whose per-band rings spill to an unbounded overflow list, so a
/// push never reports full while the queue is open).
#[derive(Debug)]
pub struct PriorityFifoSpec;

impl Spec for PriorityFifoSpec {
    type Op = QueueOp;
    type Ret = QueueRet;
    /// Bands sorted by descending priority, empty bands absent.
    type State = Vec<(u8, Vec<u64>)>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, s: &Self::State, op: &Self::Op, ret: &Self::Ret) -> Option<Self::State> {
        match (op, ret) {
            (QueueOp::Push(p, v), QueueRet::Pushed(true)) => {
                let mut n = s.clone();
                match n.iter_mut().find(|(bp, _)| bp == p) {
                    Some((_, band)) => band.push(*v),
                    None => {
                        n.push((*p, vec![*v]));
                        n.sort_by_key(|band| std::cmp::Reverse(band.0));
                    }
                }
                Some(n)
            }
            (QueueOp::Pop, QueueRet::Popped(Some((p, v)))) => {
                let (top, band) = s.first()?;
                (top == p && band.first() == Some(v)).then(|| {
                    let mut n = s.clone();
                    n[0].1.remove(0);
                    if n[0].1.is_empty() {
                        n.remove(0);
                    }
                    n
                })
            }
            (QueueOp::Pop, QueueRet::Popped(None)) if s.is_empty() => Some(s.clone()),
            _ => None,
        }
    }
}

/// Bounded priority-banded FIFO narrowed per band by an
/// [`AdmissionPolicy`] — the model of [`AdmissionPolicy::claim`], the
/// one routine under `PriorityFifo::push_bounded` and the core
/// runtime's per-port admission (DESIGN.md §5j). A push must report admitted exactly when total
/// occupancy is under the band's watermark (so a zero-permille band is
/// starved outright: every push in it must be refused, even on an
/// empty queue); pops follow the plain priority-FIFO discipline.
#[derive(Debug)]
pub struct BandedAdmissionSpec {
    /// Hard queue capacity — the high band's watermark.
    pub capacity: usize,
    /// The per-band admission policy under test.
    pub admission: AdmissionPolicy,
}

impl Spec for BandedAdmissionSpec {
    type Op = QueueOp;
    type Ret = QueueRet;
    /// Bands sorted by descending priority, as in [`PriorityFifoSpec`].
    type State = Vec<(u8, Vec<u64>)>;

    fn initial(&self) -> Self::State {
        Vec::new()
    }

    fn apply(&self, s: &Self::State, op: &Self::Op, ret: &Self::Ret) -> Option<Self::State> {
        match (op, ret) {
            (QueueOp::Push(p, _), QueueRet::Pushed(admitted)) => {
                let occupied: usize = s.iter().map(|(_, band)| band.len()).sum();
                let legal = self.admission.admits(*p, occupied, self.capacity);
                if legal != *admitted {
                    return None;
                }
                if !admitted {
                    return Some(s.clone());
                }
                PriorityFifoSpec.apply(s, op, ret)
            }
            (QueueOp::Pop, _) => PriorityFifoSpec.apply(s, op, ret),
            _ => None,
        }
    }
}

/// Operations on a slot pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolOp {
    /// Take any free slot.
    Acquire,
    /// Return a previously acquired slot.
    Release(u64),
}

/// Observed pool results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolRet {
    /// The slot obtained, or `None` when the pool was exhausted.
    Acquired(Option<u64>),
    /// Release has no result.
    Released,
}

/// Free-set pool: acquire may return *any* free slot (which slot is an
/// implementation detail — `ScopePool` happens to reuse LIFO), never a
/// leased one, and only reports exhaustion when nothing is free.
#[derive(Debug)]
pub struct PoolSpec {
    /// The full slot universe.
    pub slots: BTreeSet<u64>,
}

impl Spec for PoolSpec {
    type Op = PoolOp;
    type Ret = PoolRet;
    /// The set of currently free slots.
    type State = BTreeSet<u64>;

    fn initial(&self) -> Self::State {
        self.slots.clone()
    }

    fn apply(&self, free: &Self::State, op: &Self::Op, ret: &Self::Ret) -> Option<Self::State> {
        match (op, ret) {
            (PoolOp::Acquire, PoolRet::Acquired(Some(s))) if free.contains(s) => {
                let mut n = free.clone();
                n.remove(s);
                Some(n)
            }
            (PoolOp::Acquire, PoolRet::Acquired(None)) if free.is_empty() => Some(free.clone()),
            (PoolOp::Release(s), PoolRet::Released)
                if self.slots.contains(s) && !free.contains(s) =>
            {
                let mut n = free.clone();
                n.insert(*s);
                Some(n)
            }
            _ => None,
        }
    }
}
