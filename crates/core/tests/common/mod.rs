//! A counting global allocator for the allocation-guard tests. Each
//! guard is its own test binary with one `#[test]`: the counter is
//! process-wide, and a second test thread would pollute it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the only addition is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) this process has made so far.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Holds `allocated`, counted over `ops` operations, to exactly
/// `budget` per operation: above it is a regression, and half an
/// allocation or more below it leaves the guard's list of the sites it
/// counts stale.
pub fn assert_budget(allocated: i64, ops: u64, budget: u64, per: &str) {
    let each = allocated as f64 / ops as f64;
    assert!(
        each <= budget as f64,
        "{each:.2} allocations per {per} ({allocated} in {ops}), budget {budget}"
    );
    assert!(
        each > budget as f64 - 0.5,
        "{each:.2} allocations per {per} ({allocated} in {ops}), under the budget of \
         {budget}: lower the budget and update the list of sites it names"
    );
}
