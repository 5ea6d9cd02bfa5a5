//! Scope pools: pre-created scoped regions reused across component
//! instantiations.
//!
//! The CCL `RTSJAttributes/ScopedPool` element configures, per scope level,
//! a pool of `LTMemory` areas created once (paying the linear-time zeroing
//! up front) and recycled at runtime (paper Section 2.2). Ablation A3
//! measures the win over fresh creation.
//!
//! Since the lock-free conversion (DESIGN.md §5e) the free list is a
//! Treiber stack over the pool's preallocated slot indices: `acquire`
//! and lease drop are CAS loops that never block, and
//! [`ScopePool::available`] is a single atomic load. The stack head
//! packs a 32-bit ABA tag next to the 32-bit slot index — slot indices
//! are preallocated and recycled forever, so an untagged head could see
//! A→B→A between a reader's load and its CAS.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::error::{Result, RtmemError};
use crate::model::MemoryModel;
use crate::region::RegionId;

/// Sentinel slot index: empty stack / end of list.
const NIL: u32 = u32::MAX;

/// Lock-free LIFO of slot indices (Treiber stack with ABA tag).
struct FreeStack {
    /// `tag << 32 | index`; the tag increments on every successful CAS.
    head: AtomicU64,
    /// Per-slot next pointer (slot index or [`NIL`]). A slot's next is
    /// only written by the thread that currently owns the slot (it is
    /// either freshly popped or being pushed), so plain stores suffice.
    next: Box<[AtomicU32]>,
    /// Number of slots currently in the stack. Maintained with
    /// wait-free `fetch_add`/`fetch_sub` beside the CAS loops; it may
    /// momentarily lag the structure by one during a push/pop, which is
    /// fine for a statistics read.
    len: AtomicUsize,
}

fn pack(tag: u32, index: u32) -> u64 {
    (u64::from(tag) << 32) | u64::from(index)
}

fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl FreeStack {
    /// Builds a stack holding every slot in `0..slots`.
    fn full(slots: usize) -> FreeStack {
        let next: Box<[AtomicU32]> = (0..slots)
            .map(|i| {
                // Slot i links to i+1; the last links to NIL.
                AtomicU32::new(if i + 1 < slots { (i + 1) as u32 } else { NIL })
            })
            .collect();
        FreeStack {
            head: AtomicU64::new(pack(0, if slots == 0 { NIL } else { 0 })),
            next,
            len: AtomicUsize::new(slots),
        }
    }

    fn pop(&self) -> Option<u32> {
        loop {
            let cur = self.head.load(Ordering::SeqCst);
            let (tag, idx) = unpack(cur);
            if idx == NIL {
                return None;
            }
            let nxt = self.next[idx as usize].load(Ordering::SeqCst);
            rtplatform::chk::yield_point("freestack.pop.loaded");
            if self
                .head
                .compare_exchange(
                    cur,
                    pack(tag.wrapping_add(1), nxt),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                self.len.fetch_sub(1, Ordering::SeqCst);
                return Some(idx);
            }
            std::hint::spin_loop();
        }
    }

    fn push(&self, idx: u32) {
        // Counted before it is published: a pop that takes the slot the
        // instant the CAS lands must not decrement a count that does not
        // include it yet (`len` would wrap below zero).
        self.len.fetch_add(1, Ordering::SeqCst);
        loop {
            let cur = self.head.load(Ordering::SeqCst);
            let (tag, top) = unpack(cur);
            self.next[idx as usize].store(top, Ordering::SeqCst);
            rtplatform::chk::yield_point("freestack.push.staged");
            if self
                .head
                .compare_exchange(
                    cur,
                    pack(tag.wrapping_add(1), idx),
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                )
                .is_ok()
            {
                return;
            }
            std::hint::spin_loop();
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }
}

/// A pool of same-sized scoped regions for one scope level.
///
/// # Examples
///
/// ```
/// use rtmem::{MemoryModel, ScopePool, Ctx};
///
/// let model = MemoryModel::new();
/// let pool = ScopePool::new(&model, 1, 4096, 2)?;
/// let lease = pool.acquire()?;
/// let mut ctx = Ctx::immortal(&model);
/// ctx.enter(lease.region(), |ctx| { let _ = ctx.alloc(3u8); })?;
/// drop(lease); // region returns to the pool, reclaimed and reusable
/// # Ok::<(), rtmem::RtmemError>(())
/// ```
pub struct ScopePool {
    inner: Arc<PoolInner>,
}

struct PoolInner {
    model: MemoryModel,
    level: u32,
    scope_size: usize,
    /// The pooled regions, fixed at construction; the free stack and
    /// leases refer to them by slot index.
    slots: Box<[RegionId]>,
    free: FreeStack,
    capacity: usize,
    /// Observer hook, resolved at pool construction when the model
    /// already carries an observer: (entity id, leased-scopes gauge).
    obs: Option<(u32, rtobs::GaugeId)>,
}

impl PoolInner {
    fn record_lease_change(&self, kind: rtobs::EventKind, leased: u64) {
        if let (Some((entity, gauge)), Some(o)) = (self.obs, self.model.inner.obs()) {
            match kind {
                rtobs::EventKind::PoolAcquire => o.obs.gauge_add(gauge, 1),
                _ => o.obs.gauge_sub(gauge, 1),
            }
            o.obs.record(kind, entity, leased);
        }
    }
}

impl std::fmt::Debug for ScopePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopePool")
            .field("level", &self.inner.level)
            .field("scope_size", &self.inner.scope_size)
            .field("capacity", &self.inner.capacity)
            .field("free", &self.inner.free.len())
            .finish()
    }
}

impl ScopePool {
    /// Creates a pool of `pool_size` scoped regions of `scope_size` bytes
    /// each, for scope level `level`. All backing stores are allocated and
    /// zeroed here, up front.
    pub fn new(
        model: &MemoryModel,
        level: u32,
        scope_size: usize,
        pool_size: usize,
    ) -> Result<ScopePool> {
        let slots: Box<[RegionId]> = (0..pool_size)
            .map(|_| model.create_pooled(scope_size))
            .collect();
        let obs = model.inner.obs().map(|o| {
            (
                o.obs.register_entity(&format!("scope-pool:L{level}")),
                o.obs.gauge(&format!("rtmem_scope_pool_l{level}_leased")),
            )
        });
        Ok(ScopePool {
            inner: Arc::new(PoolInner {
                model: model.clone(),
                level,
                scope_size,
                free: FreeStack::full(slots.len()),
                slots,
                capacity: pool_size,
                obs,
            }),
        })
    }

    /// The scope level this pool serves (CCL `ScopeLevel`).
    pub fn level(&self) -> u32 {
        self.inner.level
    }

    /// Byte budget of each pooled scope (CCL `ScopeSize`).
    pub fn scope_size(&self) -> usize {
        self.inner.scope_size
    }

    /// Total number of pooled scopes (CCL `PoolSize`).
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Number of scopes currently available. A single atomic load —
    /// never blocks, even while other threads acquire or release.
    pub fn available(&self) -> usize {
        self.inner.free.len()
    }

    /// Takes a scope from the pool. Lock-free: a CAS loop against the
    /// free stack, no mutex anywhere on the path.
    ///
    /// # Errors
    ///
    /// [`RtmemError::PoolExhausted`] when every pooled scope is leased out.
    pub fn acquire(&self) -> Result<ScopeLease> {
        // Skip any scope that is somehow still pinned (e.g. a lease was
        // dropped while a wedge remained) by setting it aside and
        // pushing it back when done. Bounded by capacity pops.
        let mut deferred: [u32; 8] = [NIL; 8];
        let mut deferred_n = 0usize;
        let mut got = None;
        for _ in 0..self.inner.capacity {
            let Some(slot) = self.inner.free.pop() else {
                break;
            };
            let id = self.inner.slots[slot as usize];
            match self.inner.model.snapshot(id) {
                Ok(s) if s.entered == 0 && s.pins == 0 && s.parent.is_none() => {
                    got = Some(slot);
                    break;
                }
                Ok(_) => {
                    if deferred_n < deferred.len() {
                        deferred[deferred_n] = slot;
                        deferred_n += 1;
                    } else {
                        // Pathological pin pile-up: return it now and
                        // stop scanning rather than grow a buffer.
                        self.inner.free.push(slot);
                        break;
                    }
                }
                Err(_) => { /* destroyed externally; drop it from the pool */ }
            }
        }
        for &slot in &deferred[..deferred_n] {
            self.inner.free.push(slot);
        }
        match got {
            Some(slot) => {
                let leased = (self.inner.capacity - self.inner.free.len()) as u64;
                self.inner
                    .record_lease_change(rtobs::EventKind::PoolAcquire, leased);
                Ok(ScopeLease {
                    pool: Arc::clone(&self.inner),
                    slot,
                })
            }
            None => Err(RtmemError::PoolExhausted {
                level: self.inner.level,
            }),
        }
    }
}

impl Clone for ScopePool {
    fn clone(&self) -> Self {
        ScopePool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for PoolInner {
    fn drop(&mut self) {
        // No leases can be outstanding (each holds an Arc to us), so
        // everything still pooled is in the free stack.
        while let Some(slot) = self.free.pop() {
            let _ = self.model.destroy_pooled(self.slots[slot as usize]);
        }
    }
}

/// A leased pooled scope; returns to the pool on drop.
///
/// The lease shares ownership of the pool, so it may be stored in
/// long-lived structures (the Compadres SMM keeps one per live child
/// component). Dropping the lease does not force reclamation — if contexts
/// or wedges still pin the region it is reclaimed when the last one
/// leaves, and the pool skips it until then.
pub struct ScopeLease {
    pool: Arc<PoolInner>,
    slot: u32,
}

impl std::fmt::Debug for ScopeLease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ScopeLease({:?})", self.region())
    }
}

impl ScopeLease {
    /// The leased region.
    pub fn region(&self) -> RegionId {
        self.pool.slots[self.slot as usize]
    }
}

impl Drop for ScopeLease {
    fn drop(&mut self) {
        self.pool.free.push(self.slot);
        let leased = (self.pool.capacity - self.pool.free.len()) as u64;
        self.pool
            .record_lease_change(rtobs::EventKind::PoolRelease, leased);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    #[test]
    fn acquire_release_cycle() {
        let m = MemoryModel::new();
        let pool = ScopePool::new(&m, 1, 1024, 2).unwrap();
        assert_eq!(pool.available(), 2);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_ne!(a.region(), b.region());
        assert!(matches!(
            pool.acquire(),
            Err(RtmemError::PoolExhausted { level: 1 })
        ));
        drop(a);
        assert_eq!(pool.available(), 1);
        let c = pool.acquire().unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.available(), 2);
    }

    #[test]
    fn pooled_scope_reclaims_between_uses() {
        let m = MemoryModel::new();
        let pool = ScopePool::new(&m, 1, 1024, 1).unwrap();
        let mut ctx = Ctx::immortal(&m);
        let first_region;
        {
            let lease = pool.acquire().unwrap();
            first_region = lease.region();
            ctx.enter(lease.region(), |ctx| {
                ctx.alloc(0xAAu8).unwrap();
            })
            .unwrap();
        }
        let lease = pool.acquire().unwrap();
        assert_eq!(lease.region(), first_region, "same region object reused");
        let snap = m.snapshot(lease.region()).unwrap();
        assert_eq!(snap.used, 0, "contents reclaimed between leases");
        assert_eq!(snap.epoch, 1);
    }

    #[test]
    fn still_pinned_scope_skipped_until_free() {
        let m = MemoryModel::new();
        let pool = ScopePool::new(&m, 2, 1024, 2).unwrap();
        let lease = pool.acquire().unwrap();
        let wedge = crate::wedge::Wedge::pin_from_base(&m, lease.region()).unwrap();
        let pinned = lease.region();
        drop(lease); // back in pool but still pinned
        let other = pool.acquire().unwrap();
        assert_ne!(other.region(), pinned, "pinned scope must be skipped");
        drop(other);
        drop(wedge);
        // Now both are acquirable again.
        let x = pool.acquire().unwrap();
        let y = pool.acquire().unwrap();
        assert_ne!(x.region(), y.region());
    }

    #[test]
    fn pooled_scopes_not_client_destroyable() {
        let m = MemoryModel::new();
        let pool = ScopePool::new(&m, 1, 256, 1).unwrap();
        let lease = pool.acquire().unwrap();
        assert!(m.destroy_scoped(lease.region()).is_err());
    }

    #[test]
    fn free_stack_is_lifo_and_tagged() {
        let s = FreeStack::full(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.pop(), Some(0));
        assert_eq!(s.pop(), Some(1));
        s.push(0);
        assert_eq!(s.pop(), Some(0), "LIFO reuse");
        assert_eq!(s.pop(), Some(2));
        assert_eq!(s.pop(), None);
        assert_eq!(s.len(), 0);
        let (tag, _) = unpack(s.head.load(Ordering::SeqCst));
        // 4 pops + 1 push succeeded; the empty pop never CASes.
        assert_eq!(tag, 5, "every successful CAS bumps the ABA tag");
    }

    #[test]
    fn concurrent_acquire_release_never_double_leases() {
        use std::sync::atomic::AtomicBool;
        let m = MemoryModel::new();
        let pool = ScopePool::new(&m, 1, 512, 4).unwrap();
        let in_use: Arc<[AtomicBool]> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let iters = if cfg!(miri) { 50 } else { 20_000 };
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                let in_use = Arc::clone(&in_use);
                std::thread::spawn(move || {
                    for _ in 0..iters {
                        if let Ok(lease) = pool.acquire() {
                            let slot = lease.slot as usize;
                            assert!(
                                !in_use[slot].swap(true, Ordering::SeqCst),
                                "slot {slot} leased twice"
                            );
                            in_use[slot].store(false, Ordering::SeqCst);
                            drop(lease);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(pool.available(), 4, "all scopes returned");
    }
}
