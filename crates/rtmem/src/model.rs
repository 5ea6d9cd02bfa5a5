//! The memory model: a tree of regions with RTSJ scope semantics.
//!
//! A [`MemoryModel`] owns one heap region, one immortal region and any
//! number of scoped regions. Scoped regions acquire their parent on first
//! entry (the *single parent rule*), are pinned by entered contexts, wedge
//! handles and child scopes, and are reclaimed — objects dropped in reverse
//! allocation order, bump pointer reset, epoch bumped — when the last pin
//! disappears. This reproduces the lifecycle that the Compadres framework
//! layers components on top of (paper Section 2.2).

use std::sync::{Arc, OnceLock};

use rtobs::{CounterId, EventKind, GaugeId, HistId, Observer};
use rtplatform::sync::{Mutex, RwLock};

use crate::error::{Result, RtmemError};
use crate::region::{RegionId, RegionInner, RegionKind, RegionSnapshot, SlotState};

pub(crate) struct Slot {
    pub generation: u32,
    pub inner: Arc<Mutex<RegionInner>>,
}

/// The model's hook into an [`Observer`]: the observer plus the metric
/// ids it registered, resolved once so the hot paths never look names up.
pub(crate) struct MemObs {
    pub obs: Arc<Observer>,
    pub enters: CounterId,
    pub exits: CounterId,
    pub reclaims: CounterId,
    pub regions_live: GaugeId,
    pub wedge_life: HistId,
}

pub(crate) struct ModelInner {
    slots: RwLock<Vec<Slot>>,
    free_indices: Mutex<Vec<u32>>,
    heap: RegionId,
    immortal: RegionId,
    obs: OnceLock<MemObs>,
}

impl ModelInner {
    #[inline]
    pub(crate) fn obs(&self) -> Option<&MemObs> {
        self.obs.get()
    }
}

/// A complete RTSJ-style memory model: heap + immortal + scoped regions.
///
/// Cloning is cheap and shares the underlying model, like the single JVM-wide
/// memory system the paper's applications run in.
///
/// # Examples
///
/// ```
/// use rtmem::{MemoryModel, Ctx};
///
/// let model = MemoryModel::with_sizes(1 << 16, 1 << 16);
/// let scope = model.create_scoped(4096)?;
/// let mut ctx = Ctx::immortal(&model);
/// let n = ctx.enter(scope, |ctx| {
///     let r = ctx.alloc(41i32)?;
///     r.with(ctx, |v| v + 1)
/// })??;
/// assert_eq!(n, 42);
/// # Ok::<(), rtmem::RtmemError>(())
/// ```
#[derive(Clone)]
pub struct MemoryModel {
    pub(crate) inner: Arc<ModelInner>,
}

impl std::fmt::Debug for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryModel")
            .field("regions", &self.inner.slots.read().len())
            .finish()
    }
}

impl Default for MemoryModel {
    fn default() -> Self {
        Self::new()
    }
}

/// Default byte budget for heap and immortal when using [`MemoryModel::new`].
pub const DEFAULT_AREA_SIZE: usize = 4 << 20;

impl MemoryModel {
    /// Creates a model with heap and immortal regions of
    /// [`DEFAULT_AREA_SIZE`] each.
    pub fn new() -> Self {
        Self::with_sizes(DEFAULT_AREA_SIZE, DEFAULT_AREA_SIZE)
    }

    /// Creates a model with explicit heap and immortal byte budgets
    /// (the CCL `RTSJAttributes/ImmortalSize` knob).
    pub fn with_sizes(heap_size: usize, immortal_size: usize) -> Self {
        let heap_inner = RegionInner::new(RegionKind::Heap, heap_size);
        let immortal_inner = RegionInner::new(RegionKind::Immortal, immortal_size);
        let slots = vec![
            Slot {
                generation: 0,
                inner: Arc::new(Mutex::new(heap_inner)),
            },
            Slot {
                generation: 0,
                inner: Arc::new(Mutex::new(immortal_inner)),
            },
        ];
        MemoryModel {
            inner: Arc::new(ModelInner {
                slots: RwLock::new(slots),
                free_indices: Mutex::new(Vec::new()),
                heap: RegionId {
                    index: 0,
                    generation: 0,
                },
                immortal: RegionId {
                    index: 1,
                    generation: 0,
                },
                obs: OnceLock::new(),
            }),
        }
    }

    /// Attaches an observer (idempotent; the first caller wins). Scope
    /// enter/exit/reclaim events, the live-region gauge, and wedge
    /// lifetime histograms flow into it from then on. Metric ids are
    /// resolved here, once — the instrumented paths only touch atomics.
    pub fn set_observer(&self, obs: &Arc<Observer>) {
        let live = self.live_regions() as u64;
        let _ = self.inner.obs.set(MemObs {
            obs: Arc::clone(obs),
            enters: obs.counter("rtmem_scope_enters_total"),
            exits: obs.counter("rtmem_scope_exits_total"),
            reclaims: obs.counter("rtmem_scope_reclaims_total"),
            regions_live: obs.gauge("rtmem_regions_live"),
            wedge_life: obs.histogram("rtmem_wedge_lifetime_ns"),
        });
        if let Some(o) = self.inner.obs() {
            o.obs.gauge_set(o.regions_live, live);
        }
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<Arc<Observer>> {
        self.inner.obs().map(|o| Arc::clone(&o.obs))
    }

    /// The heap region.
    pub fn heap(&self) -> RegionId {
        self.inner.heap
    }

    /// The immortal region.
    pub fn immortal(&self) -> RegionId {
        self.inner.immortal
    }

    /// Creates a new scoped region with the given byte budget.
    ///
    /// Mirrors `LTMemory`: the backing store is allocated and zeroed here,
    /// so creation cost is linear in `size` — the cost that scope pools
    /// (paper Section 2.2, ablation A3) exist to avoid.
    pub fn create_scoped(&self, size: usize) -> Result<RegionId> {
        Ok(self.inner.create(RegionKind::Scoped, size, false))
    }

    /// Creates a new **variable-time** scoped region (`VTMemory`):
    /// constant-time creation, lazily grown backing store, allocation
    /// times that vary — the alternative the paper rejects for
    /// predictability (§2.2). Provided for the LT-vs-VT ablation.
    pub fn create_scoped_vt(&self, size: usize) -> Result<RegionId> {
        Ok(self.inner.create(RegionKind::ScopedVt, size, false))
    }

    pub(crate) fn create_pooled(&self, size: usize) -> RegionId {
        self.inner.create(RegionKind::Scoped, size, true)
    }

    /// Destroys a scoped region, freeing its slot for reuse.
    ///
    /// # Errors
    ///
    /// Fails with [`RtmemError::StillPinned`] if any context is inside the
    /// region or it is pinned by wedges or children, and with
    /// [`RtmemError::InvalidRegion`] for heap/immortal or unknown ids.
    pub fn destroy_scoped(&self, id: RegionId) -> Result<()> {
        self.inner.destroy(id, false)
    }

    pub(crate) fn destroy_pooled(&self, id: RegionId) -> Result<()> {
        self.inner.destroy(id, true)
    }

    /// Takes a point-in-time snapshot of a region's public state.
    pub fn snapshot(&self, id: RegionId) -> Result<RegionSnapshot> {
        let slot = self.inner.slot(id)?;
        let g = slot.lock();
        Ok(RegionSnapshot {
            id,
            kind: g.kind,
            size: g.size,
            used: g.used,
            epoch: g.epoch,
            parent: g.parent,
            entered: g.entered,
            pins: g.pins,
            live_objects: g.objects.iter().filter(|o| o.is_some()).count(),
            stats: g.stats,
        })
    }

    /// The current parent of a scoped region, if it has been entered.
    pub fn parent_of(&self, id: RegionId) -> Result<Option<RegionId>> {
        Ok(self.snapshot(id)?.parent)
    }

    /// Ancestor chain of `id`, nearest first, ending at the region whose
    /// parent is unassigned (or at immortal/heap which have none).
    pub fn ancestors(&self, id: RegionId) -> Result<Vec<RegionId>> {
        let mut out = Vec::new();
        let mut cur = self.parent_of(id)?;
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent_of(p)?;
        }
        Ok(out)
    }

    /// Implements the scope access rules of paper Table 1: may an object
    /// living in `holder` hold a reference to an object living in `target`?
    ///
    /// Allowed when `target` is heap or immortal, when the regions are the
    /// same, or when `target` is an ancestor of `holder` — i.e. the target
    /// provably lives at least as long as the holder.
    pub fn may_reference(&self, holder: RegionId, target: RegionId) -> Result<bool> {
        let target_kind = {
            let slot = self.inner.slot(target)?;
            let g = slot.lock();
            g.kind
        };
        // Validate holder exists too.
        let _ = self.inner.slot(holder)?;
        if matches!(target_kind, RegionKind::Heap | RegionKind::Immortal) {
            return Ok(true);
        }
        if holder == target {
            return Ok(true);
        }
        Ok(self.ancestors(holder)?.contains(&target))
    }

    /// Like [`MemoryModel::may_reference`] but returns
    /// [`RtmemError::IllegalAssignment`] when the store is forbidden —
    /// the analog of the RTSJ `IllegalAssignmentError`.
    pub fn check_assignment(&self, holder: RegionId, target: RegionId) -> Result<()> {
        if self.may_reference(holder, target)? {
            Ok(())
        } else {
            Err(RtmemError::IllegalAssignment { holder, target })
        }
    }

    /// Number of live (non-destroyed) regions, including heap and immortal.
    pub fn live_regions(&self) -> usize {
        let slots = self.inner.slots.read();
        slots
            .iter()
            .filter(|s| s.inner.lock().state == SlotState::Active)
            .count()
    }

    /// Snapshots of every live region, in slot order — the raw material
    /// for memory dashboards and leak hunting.
    pub fn all_snapshots(&self) -> Vec<RegionSnapshot> {
        let slots: Vec<(u32, u32, Arc<Mutex<RegionInner>>)> = {
            let guard = self.inner.slots.read();
            guard
                .iter()
                .enumerate()
                .map(|(i, s)| (i as u32, s.generation, Arc::clone(&s.inner)))
                .collect()
        };
        let mut out = Vec::new();
        for (index, generation, inner) in slots {
            let g = inner.lock();
            if g.state != SlotState::Active {
                continue;
            }
            out.push(RegionSnapshot {
                id: RegionId { index, generation },
                kind: g.kind,
                size: g.size,
                used: g.used,
                epoch: g.epoch,
                parent: g.parent,
                entered: g.entered,
                pins: g.pins,
                live_objects: g.objects.iter().filter(|o| o.is_some()).count(),
                stats: g.stats,
            });
        }
        out
    }
}

impl ModelInner {
    pub(crate) fn slot(&self, id: RegionId) -> Result<Arc<Mutex<RegionInner>>> {
        let slots = self.slots.read();
        let slot = slots
            .get(id.index as usize)
            .ok_or(RtmemError::InvalidRegion(id))?;
        if slot.generation != id.generation {
            return Err(RtmemError::InvalidRegion(id));
        }
        let arc = Arc::clone(&slot.inner);
        drop(slots);
        if arc.lock().state != SlotState::Active {
            return Err(RtmemError::InvalidRegion(id));
        }
        Ok(arc)
    }

    fn create(&self, kind: RegionKind, size: usize, pooled: bool) -> RegionId {
        if let Some(o) = self.obs() {
            o.obs.gauge_add(o.regions_live, 1);
        }
        let mut inner = RegionInner::new(kind, size);
        inner.pooled = pooled;
        let reuse = self.free_indices.lock().pop();
        match reuse {
            Some(index) => {
                // Slot reuse bumps the generation so stale ids are detected.
                let mut slots = self.slots.write();
                let slot = &mut slots[index as usize];
                slot.generation = slot.generation.wrapping_add(1);
                slot.inner = Arc::new(Mutex::new(inner));
                RegionId {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let mut slots = self.slots.write();
                let index = slots.len() as u32;
                slots.push(Slot {
                    generation: 0,
                    inner: Arc::new(Mutex::new(inner)),
                });
                RegionId {
                    index,
                    generation: 0,
                }
            }
        }
    }

    fn destroy(&self, id: RegionId, allow_pooled: bool) -> Result<()> {
        let slot = self.slot(id)?;
        let (detach, freed) = {
            let mut g = slot.lock();
            if !g.kind.is_scoped() {
                return Err(RtmemError::InvalidRegion(id));
            }
            if g.pooled && !allow_pooled {
                return Err(RtmemError::InvalidRegion(id));
            }
            if g.entered > 0 || g.pins > 0 {
                return Err(RtmemError::StillPinned {
                    region: id,
                    pins: g.pins,
                    entered: g.entered,
                });
            }
            let freed = g.used;
            Self::reclaim_locked(&mut g);
            g.state = SlotState::Free;
            g.objects = Vec::new();
            g.backing = Box::new([]);
            (g.parent.take(), freed)
        };
        if let Some(o) = self.obs() {
            o.obs.inc(o.reclaims);
            o.obs.gauge_sub(o.regions_live, 1);
            o.obs
                .record(EventKind::ScopeReclaim, id.index, freed as u64);
        }
        if let Some(parent) = detach {
            self.detach_child(parent, id);
        }
        self.free_indices.lock().push(id.index);
        Ok(())
    }

    /// Binds `region`'s parent (single parent rule) and registers a pin or
    /// an entry, depending on `as_entry`. `from` is the entering context's
    /// current allocation context.
    pub(crate) fn bind_and_pin(
        &self,
        region: RegionId,
        from: RegionId,
        as_entry: bool,
    ) -> Result<()> {
        let slot = self.slot(region)?;
        let need_attach = {
            let mut g = slot.lock();
            match g.kind {
                RegionKind::Heap | RegionKind::Immortal => {
                    if as_entry {
                        g.entered += 1;
                        g.stats.enters += 1;
                    } else {
                        g.pins += 1;
                    }
                    drop(g);
                    if as_entry {
                        if let Some(o) = self.obs() {
                            o.obs.inc(o.enters);
                            o.obs.record_verbose(EventKind::ScopeEnter, region.index, 0);
                        }
                    }
                    return Ok(());
                }
                RegionKind::Scoped | RegionKind::ScopedVt => {}
            }
            match g.parent {
                None => {
                    g.parent = Some(from);
                    if as_entry {
                        g.entered += 1;
                        g.stats.enters += 1;
                    } else {
                        g.pins += 1;
                    }
                    true
                }
                Some(p) if p == from => {
                    if as_entry {
                        g.entered += 1;
                        g.stats.enters += 1;
                    } else {
                        g.pins += 1;
                    }
                    false
                }
                Some(p) => {
                    return Err(RtmemError::ScopedCycle {
                        region,
                        parent: p,
                        attempted: from,
                    });
                }
            }
        };
        if need_attach {
            // Child pins its parent for as long as it stays parented.
            if let Ok(pslot) = self.slot(from) {
                let mut pg = pslot.lock();
                pg.children.push(region);
                pg.pins += 1;
            }
        }
        if as_entry {
            if let Some(o) = self.obs() {
                o.obs.inc(o.enters);
                o.obs.record_verbose(EventKind::ScopeEnter, region.index, 0);
            }
        }
        Ok(())
    }

    /// Adds a pin to a region the caller is already inside (no parent
    /// binding required).
    pub(crate) fn pin_in_place(&self, region: RegionId) -> Result<()> {
        let slot = self.slot(region)?;
        slot.lock().pins += 1;
        Ok(())
    }

    /// Releases an entry or a pin; reclaims the region if it became free.
    pub(crate) fn unpin(&self, region: RegionId, was_entry: bool) {
        let Ok(slot) = self.slot(region) else { return };
        let (detach, reclaimed) = {
            let mut g = slot.lock();
            if was_entry {
                debug_assert!(g.entered > 0, "unbalanced exit from {region:?}");
                g.entered = g.entered.saturating_sub(1);
            } else {
                debug_assert!(g.pins > 0, "unbalanced unpin of {region:?}");
                g.pins = g.pins.saturating_sub(1);
            }
            if g.kind.is_scoped() && g.entered == 0 && g.pins == 0 {
                let freed = g.used;
                Self::reclaim_locked(&mut g);
                (g.parent.take(), Some(freed))
            } else {
                (None, None)
            }
        };
        if let Some(o) = self.obs() {
            if was_entry {
                o.obs.inc(o.exits);
                o.obs.record_verbose(EventKind::ScopeExit, region.index, 0);
            }
            if let Some(freed) = reclaimed {
                o.obs.inc(o.reclaims);
                // Steady-state reclaims happen once per message pass, so
                // the timestamped journal entry is detail-level; the
                // counter above stays truthful either way. (Destroy-path
                // reclaims are cold and always journaled.)
                o.obs
                    .record_verbose(EventKind::ScopeReclaim, region.index, freed as u64);
            }
        }
        if let Some(parent) = detach {
            self.detach_child(parent, region);
        }
    }

    /// Removes `child` from `parent`'s child list and releases the pin the
    /// child held on it; may cascade reclamation up the tree.
    fn detach_child(&self, parent: RegionId, child: RegionId) {
        let is_scoped = {
            let Ok(pslot) = self.slot(parent) else { return };
            let mut pg = pslot.lock();
            pg.children.retain(|&c| c != child);
            pg.kind == RegionKind::Scoped
        };
        if is_scoped {
            self.unpin(parent, false);
        } else {
            // Heap/immortal track the pin count but never reclaim.
            let Ok(pslot) = self.slot(parent) else { return };
            let mut pg = pslot.lock();
            pg.pins = pg.pins.saturating_sub(1);
        }
    }

    /// Reclaims region contents: drops objects in reverse allocation order
    /// (the finalizer analog), resets the bump pointer and accounting, and
    /// bumps the epoch so outstanding references turn stale.
    fn reclaim_locked(g: &mut RegionInner) {
        while let Some(obj) = g.objects.pop() {
            drop(obj);
        }
        g.bump = 0;
        g.used = 0;
        g.epoch += 1;
        g.stats.reclaims += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::Ctx;

    #[test]
    fn heap_and_immortal_exist() {
        let m = MemoryModel::new();
        assert_eq!(m.snapshot(m.heap()).unwrap().kind, RegionKind::Heap);
        assert_eq!(m.snapshot(m.immortal()).unwrap().kind, RegionKind::Immortal);
        assert_eq!(m.live_regions(), 2);
    }

    #[test]
    fn create_and_destroy_scoped() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        assert_eq!(m.live_regions(), 3);
        m.destroy_scoped(s).unwrap();
        assert_eq!(m.live_regions(), 2);
        assert!(matches!(m.snapshot(s), Err(RtmemError::InvalidRegion(_))));
    }

    #[test]
    fn slot_reuse_bumps_generation() {
        let m = MemoryModel::new();
        let a = m.create_scoped(64).unwrap();
        m.destroy_scoped(a).unwrap();
        let b = m.create_scoped(64).unwrap();
        assert_eq!(a.index, b.index);
        assert_ne!(a.generation, b.generation);
        assert!(m.snapshot(a).is_err());
        assert!(m.snapshot(b).is_ok());
    }

    #[test]
    fn cannot_destroy_entered_region() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter(s, |_| {
            assert!(matches!(
                m.destroy_scoped(s),
                Err(RtmemError::StillPinned { .. })
            ));
        })
        .unwrap();
        m.destroy_scoped(s).unwrap();
    }

    #[test]
    fn heap_immortal_cannot_be_destroyed() {
        let m = MemoryModel::new();
        assert!(m.destroy_scoped(m.heap()).is_err());
        assert!(m.destroy_scoped(m.immortal()).is_err());
    }

    #[test]
    fn assignment_rules_match_table_1() {
        // Reconstructs the scope structure of paper Fig. 3: A at level 1,
        // B and C siblings inside A.
        let m = MemoryModel::new();
        let a = m.create_scoped(4096).unwrap();
        let b = m.create_scoped(4096).unwrap();
        let c = m.create_scoped(4096).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter(a, |ctx| {
            // Pin B under A so it stays parented while we probe from C.
            let _wedge_b = crate::wedge::Wedge::pin(ctx, b).unwrap();
            ctx.enter(c, |ctx| {
                // Keep everything parented while we probe the matrix.
                let heap = m.heap();
                let imm = m.immortal();
                let yes = |f, t| {
                    assert!(
                        m.may_reference(f, t).unwrap(),
                        "{f:?}->{t:?} should be allowed"
                    )
                };
                let no = |f, t| {
                    assert!(
                        !m.may_reference(f, t).unwrap(),
                        "{f:?}->{t:?} should be denied"
                    )
                };
                yes(heap, heap);
                yes(heap, imm);
                no(heap, a);
                no(heap, b);
                no(heap, c);
                yes(imm, heap);
                yes(imm, imm);
                no(imm, a);
                no(imm, b);
                no(imm, c);
                yes(a, heap);
                yes(a, imm);
                yes(a, a);
                no(a, b);
                no(a, c);
                yes(b, heap);
                yes(b, imm);
                yes(b, a);
                yes(b, b);
                no(b, c);
                yes(c, heap);
                yes(c, imm);
                yes(c, a);
                no(c, b);
                yes(c, c);
                assert!(matches!(
                    m.check_assignment(a, c),
                    Err(RtmemError::IllegalAssignment { .. })
                ));
                let _ = ctx;
            })
            .unwrap();
        })
        .unwrap();
    }
}
