//! Messages, typed message pools and envelopes.
//!
//! Compadres ports communicate through strongly-typed message objects that
//! are **pooled**: a sender calls `getMessage()` on the pool hosted in the
//! common ancestor's memory area, fills the object and `send()`s it; after
//! the receiving handler returns, the framework recycles the object into
//! the pool (paper §2.2). Pooling is what keeps parent memory areas from
//! being exhausted, because scoped areas only reclaim wholesale.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rtobs::SpanCtx;
use rtplatform::atomic::current_shard;
use rtplatform::ring::MpmcRing;

use crate::error::{CompadresError, Result};
use rtsched::Priority;

/// Free-list shards per pool. Each producer thread recycles into (and
/// takes from) its own shard first, so concurrent senders stop
/// contending on one lock-protected `Vec`; misses steal from the other
/// shards before falling back to the factory.
const POOL_SHARDS: usize = 4;

/// A message that can travel through ports.
///
/// Messages must be self-contained (`Send + 'static`) — the analog of the
/// paper's "RTSJ-safe" requirement that all data in a message object live
/// in the same memory area — and resettable so pool reuse never leaks
/// state between sends.
pub trait Message: Send + 'static {
    /// Clears the message as it goes back to its pool, so a free
    /// message holds on to nothing it carried and is handed out clear.
    fn reset(&mut self);
}

impl<T: Default + Send + 'static> Message for T {
    fn reset(&mut self) {
        *self = T::default();
    }
}

/// Makes a type-erased pool of a bound message type: `(type name,
/// capacity)`.
pub(crate) type PoolFactory = Arc<dyn Fn(&str, usize) -> Arc<dyn AnyPool> + Send + Sync>;

/// Type-erased pool interface shared by SMMs and envelopes.
pub(crate) trait AnyPool: Send + Sync {
    fn get_any(&self) -> Option<Box<dyn Any + Send>>;
    fn recycle_any(&self, msg: Box<dyn Any + Send>);
}

/// A pool of reusable messages of type `M`, logically hosted in the memory
/// area of the communicating components' common ancestor.
pub struct MessagePool<M: Message> {
    inner: Arc<PoolInner<M>>,
}

struct PoolInner<M: Message> {
    /// Per-producer-shard lock-free free lists; combined physical
    /// capacity covers the whole pool, so a recycle only drops its
    /// message when every shard is full (which cannot happen while
    /// outstanding + free ≤ capacity holds).
    free: Vec<MpmcRing<Box<M>>>,
    capacity: usize,
    outstanding: AtomicUsize,
    message_type: String,
    factory: Box<dyn Fn() -> M + Send + Sync>,
    /// Byte accounting charged against the hosting region; kept alive with
    /// the pool so the budget stays reserved.
    _accounting: Option<rtmem::RBytes>,
}

impl<M: Message> Clone for MessagePool<M> {
    fn clone(&self) -> Self {
        MessagePool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Message> std::fmt::Debug for MessagePool<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MessagePool")
            .field("message_type", &self.inner.message_type)
            .field("capacity", &self.inner.capacity)
            .field(
                "outstanding",
                &self.inner.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl<M: Message> MessagePool<M> {
    /// Creates a pool of `capacity` messages built by `factory`, charging
    /// `capacity * size_of::<M>()` bytes against `region` (when given).
    ///
    /// # Errors
    ///
    /// Propagates the region's out-of-memory error if the accounting
    /// charge does not fit.
    pub fn new(
        message_type: impl Into<String>,
        capacity: usize,
        factory: impl Fn() -> M + Send + Sync + 'static,
        accounting: Option<(&rtmem::Ctx, rtmem::RegionId)>,
    ) -> Result<Self> {
        let accounting = match accounting {
            Some((ctx, region)) => {
                let bytes = capacity * std::mem::size_of::<M>().max(1);
                Some(ctx.alloc_bytes_in(region, bytes)?)
            }
            None => None,
        };
        let per_shard = capacity.div_ceil(POOL_SHARDS).max(1);
        Ok(MessagePool {
            inner: Arc::new(PoolInner {
                free: (0..POOL_SHARDS).map(|_| MpmcRing::new(per_shard)).collect(),
                capacity,
                outstanding: AtomicUsize::new(0),
                message_type: message_type.into(),
                factory: Box::new(factory),
                _accounting: accounting,
            }),
        })
    }

    /// Takes a message from the pool (the paper's `getMessage()`).
    ///
    /// # Errors
    ///
    /// [`CompadresError::MessagePoolExhausted`] once `capacity` messages
    /// are simultaneously outstanding.
    pub fn get_message(&self) -> Result<PooledMsg<M>> {
        match self.inner.take() {
            Some(value) => Ok(PooledMsg {
                slot: Some(value),
                pool: Arc::clone(&self.inner) as Arc<dyn AnyPool>,
            }),
            None => Err(CompadresError::MessagePoolExhausted {
                message_type: self.inner.message_type.clone(),
            }),
        }
    }

    /// Messages currently checked out.
    pub fn outstanding(&self) -> usize {
        self.inner.outstanding.load(Ordering::Relaxed)
    }

    /// Maximum simultaneously outstanding messages.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    pub(crate) fn as_any_pool(&self) -> Arc<dyn AnyPool> {
        Arc::clone(&self.inner) as Arc<dyn AnyPool>
    }
}

impl<M: Message> PoolInner<M> {
    fn take(&self) -> Option<Box<M>> {
        // Home shard first, then steal round-robin from the rest.
        let home = current_shard(POOL_SHARDS);
        for i in 0..POOL_SHARDS {
            if let Some(m) = self.free[(home + i) % POOL_SHARDS].pop() {
                self.outstanding.fetch_add(1, Ordering::SeqCst);
                return Some(m);
            }
        }
        // Nothing pooled: admit a fresh message iff a capacity slot is
        // free, claimed exactly via CAS (no over-admission race).
        loop {
            let cur = self.outstanding.load(Ordering::SeqCst);
            if cur >= self.capacity {
                return None;
            }
            if self
                .outstanding
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return Some(Box::new((self.factory)()));
            }
        }
    }

    fn put_back(&self, mut msg: Box<M>) {
        // Cleared on the way in: what the message carried (a frame's
        // segments, a connection) is released now, not when the box is
        // next lent.
        msg.reset();
        let home = current_shard(POOL_SHARDS);
        for i in 0..POOL_SHARDS {
            match self.free[(home + i) % POOL_SHARDS].push(msg) {
                Ok(()) => return,
                Err(back) => msg = back,
            }
        }
        // Every shard full: the pool already retains `capacity` free
        // messages, so this one can be dropped for real.
    }
}

impl<M: Message> AnyPool for PoolInner<M> {
    fn get_any(&self) -> Option<Box<dyn Any + Send>> {
        self.take().map(|b| b as Box<dyn Any + Send>)
    }

    fn recycle_any(&self, msg: Box<dyn Any + Send>) {
        if let Ok(typed) = msg.downcast::<M>() {
            self.outstanding.fetch_sub(1, Ordering::SeqCst);
            self.put_back(typed);
        }
    }
}

/// A message checked out of a pool; recycled automatically when dropped
/// without being sent.
pub struct PooledMsg<M: Message> {
    slot: Option<Box<M>>,
    pool: Arc<dyn AnyPool>,
}

impl<M: Message> std::fmt::Debug for PooledMsg<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledMsg<{}>", std::any::type_name::<M>())
    }
}

impl<M: Message> std::ops::Deref for PooledMsg<M> {
    type Target = M;
    fn deref(&self) -> &M {
        self.slot.as_ref().expect("message already sent")
    }
}

impl<M: Message> std::ops::DerefMut for PooledMsg<M> {
    fn deref_mut(&mut self) -> &mut M {
        self.slot.as_mut().expect("message already sent")
    }
}

impl<M: Message> PooledMsg<M> {
    /// Reconstructs a typed pooled message from an erased pool checkout.
    pub(crate) fn from_erased(value: Box<M>, pool: Arc<dyn AnyPool>) -> Self {
        PooledMsg {
            slot: Some(value),
            pool,
        }
    }

    /// Converts into an envelope at the given priority; used by `send()`.
    pub(crate) fn into_envelope(mut self, priority: Priority) -> Envelope {
        let value = self.slot.take().expect("message already sent");
        Envelope {
            payload: Some(value as Box<dyn Any + Send>),
            pool: Some(Arc::clone(&self.pool)),
            priority,
            enqueued_ns: 0,
            span: SpanCtx::NONE,
        }
    }
}

impl<M: Message> Drop for PooledMsg<M> {
    fn drop(&mut self) {
        if let Some(v) = self.slot.take() {
            self.pool.recycle_any(v as Box<dyn Any + Send>);
        }
    }
}

/// A message in flight: the type-erased payload plus its priority and the
/// pool to return it to after processing.
pub(crate) struct Envelope {
    payload: Option<Box<dyn Any + Send>>,
    pool: Option<Arc<dyn AnyPool>>,
    pub priority: Priority,
    /// Observer timestamp set at admission, for the queue-wait histogram
    /// (0 = never stamped).
    pub enqueued_ns: u64,
    /// Trace context stamped at admission ([`SpanCtx::NONE`] when the
    /// message is outside any trace). A few `Copy` words riding along —
    /// no allocation, no locking.
    pub span: SpanCtx,
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Envelope(priority={})", self.priority)
    }
}

impl Envelope {
    /// Wraps a message injected from outside the component graph,
    /// moving it into a box `pool` lends; the envelope gives the box
    /// back after processing or on refusal. `Err` hands `value` back
    /// when every box is out.
    pub(crate) fn injected<M: Message>(
        value: M,
        priority: Priority,
        pool: &Arc<dyn AnyPool>,
    ) -> std::result::Result<Envelope, M> {
        let Some(slot) = pool.get_any() else {
            return Err(value);
        };
        let mut slot = slot
            .downcast::<M>()
            .expect("an in-port's pool makes the port's message type");
        *slot = value;
        Ok(Envelope {
            payload: Some(slot),
            pool: Some(Arc::clone(pool)),
            priority,
            enqueued_ns: 0,
            span: SpanCtx::NONE,
        })
    }

    /// Wraps a plain (non-pooled) message: an injection whose in-port
    /// pool had no box to lend.
    pub(crate) fn from_value<M: Message>(value: M, priority: Priority) -> Envelope {
        Envelope {
            payload: Some(Box::new(value)),
            pool: None,
            priority,
            enqueued_ns: 0,
            span: SpanCtx::NONE,
        }
    }

    /// Runs `f` on the payload, then recycles it to its pool.
    pub(crate) fn process(mut self, f: impl FnOnce(&mut (dyn Any + Send))) {
        if let Some(mut payload) = self.payload.take() {
            f(payload.as_mut());
            if let Some(pool) = self.pool.take() {
                pool.recycle_any(payload);
            }
        }
    }

    /// Whether the payload is of type `M`.
    #[cfg(test)]
    pub(crate) fn is<M: Message>(&self) -> bool {
        self.payload
            .as_ref()
            .map(|p| (**p).is::<M>())
            .unwrap_or(false)
    }
}

impl Drop for Envelope {
    fn drop(&mut self) {
        // An envelope dropped without processing (e.g. buffer overflow or
        // shutdown) still returns its message to the pool.
        if let (Some(payload), Some(pool)) = (self.payload.take(), self.pool.take()) {
            pool.recycle_any(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct MyInteger {
        value: i32,
    }

    #[test]
    fn pool_reuses_objects() {
        let pool = MessagePool::<MyInteger>::new("MyInteger", 2, MyInteger::default, None).unwrap();
        let mut a = pool.get_message().unwrap();
        a.value = 7;
        assert_eq!(pool.outstanding(), 1);
        drop(a); // recycled
        assert_eq!(pool.outstanding(), 0);
        let b = pool.get_message().unwrap();
        assert_eq!(b.value, 0, "message was reset on reuse");
    }

    #[test]
    fn pool_exhaustion_reported() {
        let pool = MessagePool::<MyInteger>::new("MyInteger", 2, MyInteger::default, None).unwrap();
        let _a = pool.get_message().unwrap();
        let _b = pool.get_message().unwrap();
        let err = pool.get_message().unwrap_err();
        assert!(matches!(err, CompadresError::MessagePoolExhausted { .. }));
    }

    #[test]
    fn envelope_recycles_after_processing() {
        let pool = MessagePool::<MyInteger>::new("MyInteger", 1, MyInteger::default, None).unwrap();
        let mut m = pool.get_message().unwrap();
        m.value = 9;
        let env = m.into_envelope(Priority::new(3));
        assert_eq!(env.priority, Priority::new(3));
        assert!(env.is::<MyInteger>());
        env.process(|p| {
            let v = p.downcast_mut::<MyInteger>().unwrap();
            assert_eq!(v.value, 9);
        });
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.get_message().is_ok());
    }

    #[test]
    fn dropped_envelope_recycles_too() {
        let pool = MessagePool::<MyInteger>::new("MyInteger", 1, MyInteger::default, None).unwrap();
        let m = pool.get_message().unwrap();
        let env = m.into_envelope(Priority::NORM);
        drop(env);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn an_injected_message_is_cleared_as_its_box_goes_back() {
        let pool = MessagePool::<Option<Arc<()>>>::new("Held", 2, || None, None).unwrap();
        let pool = pool.as_any_pool();
        let held = Arc::new(());
        // Dropped unprocessed (a refusal), then processed without the
        // handler taking the value: neither box keeps it.
        let env = Envelope::injected(Some(Arc::clone(&held)), Priority::NORM, &pool).unwrap();
        drop(env);
        assert_eq!(Arc::strong_count(&held), 1, "released on refusal");
        let env = Envelope::injected(Some(Arc::clone(&held)), Priority::NORM, &pool).unwrap();
        env.process(|_| {});
        assert_eq!(Arc::strong_count(&held), 1, "released after processing");
    }

    #[test]
    fn sharded_pool_bounds_creation_under_contention() {
        // 4 threads hammer get/recycle; the CAS admission means the
        // factory never over-creates and capacity is never exceeded.
        let created = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&created);
        let pool = MessagePool::<MyInteger>::new(
            "MyInteger",
            8,
            move || {
                c2.fetch_add(1, Ordering::SeqCst);
                MyInteger::default()
            },
            None,
        )
        .unwrap();
        let iters = if cfg!(miri) { 50 } else { 20_000 };
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        if let Ok(mut m) = pool.get_message() {
                            m.value += 1;
                        } // recycled on drop
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0);
        assert!(
            created.load(Ordering::SeqCst) <= 8,
            "factory ran {} times for capacity 8",
            created.load(Ordering::SeqCst)
        );
        // Pool still functional and bounded afterwards.
        let keep: Vec<_> = (0..8).map(|_| pool.get_message().unwrap()).collect();
        assert!(pool.get_message().is_err(), "capacity exactly enforced");
        drop(keep);
    }

    // Only the size matters (accounting tests); the field is never read.
    struct Blob(#[allow(dead_code)] [u8; 64]);
    impl Default for Blob {
        fn default() -> Self {
            Blob([0; 64])
        }
    }

    #[test]
    fn accounting_charges_region() {
        let model = rtmem::MemoryModel::new();
        let region = model.create_scoped(4096).unwrap();
        let mut ctx = rtmem::Ctx::immortal(&model);
        ctx.enter(region, |ctx| {
            let pool =
                MessagePool::<Blob>::new("Blob", 8, Blob::default, Some((ctx, region))).unwrap();
            let snap = model.snapshot(region).unwrap();
            assert!(snap.used >= 8 * 64, "region charged for the pool");
            drop(pool);
        })
        .unwrap();
    }

    #[test]
    fn accounting_over_budget_fails() {
        let model = rtmem::MemoryModel::new();
        let region = model.create_scoped(64).unwrap();
        let mut ctx = rtmem::Ctx::immortal(&model);
        ctx.enter(region, |ctx| {
            let res = MessagePool::<Blob>::new("Blob", 8, Blob::default, Some((ctx, region)));
            assert!(matches!(res, Err(CompadresError::Memory(_))));
        })
        .unwrap();
    }
}
