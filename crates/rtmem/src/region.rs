//! Region identity and per-region storage.
//!
//! A *region* is the Rust analog of an RTSJ `MemoryArea`: a container with a
//! fixed byte budget in which objects are allocated and which is reclaimed
//! as a unit. Three kinds exist, mirroring the RTSJ (paper Section 2.2):
//! heap, immortal and (linear-time) scoped memory.

use std::any::Any;
use std::fmt;
use std::sync::Arc;

use rtplatform::sync::Mutex;

/// Identifies a region within a [`MemoryModel`](crate::MemoryModel).
///
/// Ids are generational: destroying a region and reusing its slot bumps the
/// generation, so stale ids are detected rather than silently aliased.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl fmt::Debug for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}.{}", self.index, self.generation)
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The kind of a memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Garbage-collected heap. Never reclaimed as a unit; inaccessible from
    /// no-heap contexts. GC interference itself is modeled by `rtplatform`.
    Heap,
    /// Fixed-size area living as long as the model (RTSJ `ImmortalMemory`).
    Immortal,
    /// `LTMemory`-style scoped region: creation cost linear in its size
    /// (the backing store is allocated and zeroed eagerly), reclaimed when
    /// the last pin (thread, wedge or child) leaves. This is the only kind
    /// Compadres uses, because its creation time is predictable (§2.2).
    Scoped,
    /// `VTMemory`-style scoped region: the backing store grows lazily, so
    /// creation is constant-time but allocation cost varies — the
    /// trade-off that makes the paper choose linear-time memory.
    ScopedVt,
}

impl RegionKind {
    /// Whether this kind participates in scope-stack reclamation.
    pub fn is_scoped(self) -> bool {
        matches!(self, RegionKind::Scoped | RegionKind::ScopedVt)
    }
}

/// One allocated object slot. The object lock is separate from the region
/// lock so user closures run without holding the region-wide mutex.
pub(crate) type ObjectSlot = Arc<Mutex<Box<dyn Any + Send>>>;

/// Lifecycle state of a region slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
    /// Slot holds a live region.
    Active,
    /// Slot was destroyed and may be reused by a later `create_scoped`.
    Free,
}

/// Per-region bookkeeping. Held behind a `Mutex` in the model; the object
/// payloads themselves live behind their own per-object locks.
pub(crate) struct RegionInner {
    pub kind: RegionKind,
    pub state: SlotState,
    /// Byte budget for this region.
    pub size: usize,
    /// Bytes consumed by objects and raw allocations in the current epoch.
    pub used: usize,
    /// Incremented on every reclamation; validates `RRef` staleness.
    pub epoch: u64,
    /// Parent region, fixed by the first `enter` (single parent rule);
    /// cleared again when the region is reclaimed.
    pub parent: Option<RegionId>,
    /// Live child scoped regions (each pins this region).
    pub children: Vec<RegionId>,
    /// Number of execution contexts currently inside the region.
    pub entered: usize,
    /// Non-thread pins: wedge handles plus live children.
    pub pins: usize,
    /// Allocated objects, in allocation order; dropped in reverse order at
    /// reclamation (finalizer analog).
    pub objects: Vec<Option<ObjectSlot>>,
    /// Backing store for raw byte allocations; bump-allocated. `LTMemory`
    /// semantics: the buffer is allocated and zeroed eagerly at creation so
    /// the creation cost is linear in `size`.
    pub backing: Box<[u8]>,
    pub bump: usize,
    /// Lifetime counters (survive reclamation; reset on destroy).
    pub stats: RegionStats,
    /// True when the region belongs to a [`ScopePool`](crate::pool::ScopePool)
    /// and must not be destroyed by clients.
    pub pooled: bool,
}

impl RegionInner {
    pub(crate) fn new(kind: RegionKind, size: usize) -> Self {
        let backing = match kind {
            // Heap and immortal store raw bytes lazily-sized as well, but
            // they are allocated once and never reset, so eager zeroing is
            // only semantically required for scoped (LT) regions.
            RegionKind::Scoped | RegionKind::Heap | RegionKind::Immortal => {
                vec![0u8; size].into_boxed_slice()
            }
            // Variable-time memory starts empty and grows on demand.
            RegionKind::ScopedVt => Box::new([]),
        };
        RegionInner {
            kind,
            state: SlotState::Active,
            size,
            used: 0,
            epoch: 0,
            parent: None,
            children: Vec::new(),
            entered: 0,
            pins: 0,
            objects: Vec::new(),
            backing,
            bump: 0,
            stats: RegionStats::default(),
            pooled: false,
        }
    }

    /// Remaining byte budget.
    pub(crate) fn available(&self) -> usize {
        self.size.saturating_sub(self.used)
    }
}

/// Usage statistics for a region, the `stats` of a
/// [`RegionSnapshot`](crate::RegionSnapshot).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegionStats {
    /// Objects allocated over the region's lifetime (across epochs).
    pub objects_allocated: u64,
    /// Raw byte allocations over the region's lifetime.
    pub byte_allocs: u64,
    /// Total bytes ever requested.
    pub bytes_requested: u64,
    /// Times the region was entered.
    pub enters: u64,
    /// Times the region contents were reclaimed.
    pub reclaims: u64,
}

/// A point-in-time snapshot of a region's public state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionSnapshot {
    /// The region this snapshot describes.
    pub id: RegionId,
    /// Kind of the region.
    pub kind: RegionKind,
    /// Configured byte budget.
    pub size: usize,
    /// Bytes currently in use.
    pub used: usize,
    /// Current epoch (bumped at each reclamation).
    pub epoch: u64,
    /// Current parent, if the region has been entered.
    pub parent: Option<RegionId>,
    /// Number of contexts currently inside.
    pub entered: usize,
    /// Wedge + child pins.
    pub pins: usize,
    /// Live objects in the current epoch.
    pub live_objects: usize,
    /// Lifetime counters.
    pub stats: RegionStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_id_debug_is_compact() {
        let id = RegionId {
            index: 3,
            generation: 7,
        };
        assert_eq!(format!("{id:?}"), "R3.7");
        assert_eq!(id.to_string(), "R3.7");
    }

    #[test]
    fn new_scoped_region_is_zeroed_and_empty() {
        let r = RegionInner::new(RegionKind::Scoped, 128);
        assert_eq!(r.backing.len(), 128);
        assert!(r.backing.iter().all(|&b| b == 0));
        assert_eq!(r.used, 0);
        assert_eq!(r.available(), 128);
        assert_eq!(r.epoch, 0);
        assert!(r.parent.is_none());
    }

    #[test]
    fn kind_predicates() {
        assert!(RegionKind::Scoped.is_scoped());
        assert!(!RegionKind::Heap.is_scoped());
        assert!(!RegionKind::Immortal.is_scoped());
    }
}
