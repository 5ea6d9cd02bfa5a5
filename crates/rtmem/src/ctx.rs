//! Execution contexts: the per-thread scope stack.
//!
//! An RTSJ thread carries a *scope stack* recording the memory areas it has
//! entered; the top of the stack is its current allocation context. [`Ctx`]
//! is the explicit Rust analog. Framework worker threads each own one.

use std::sync::Arc;

use crate::error::{Result, RtmemError};
use crate::model::{MemoryModel, ModelInner};
use crate::region::{RegionId, RegionKind};
use crate::rref::{RBytes, RRef};

/// Scope-stack capacity a fresh [`Ctx`] starts with, sized for the
/// nesting assemblies have (the ORB server's four levels are the
/// deepest in the tree) so that a context made per call pays for one
/// stack, not one stack and its growth. Deeper nesting grows it.
const STACK_DEPTH: usize = 8;

/// A per-thread execution context holding a scope stack.
///
/// The stack base is heap (ordinary thread), or immortal for real-time
/// threads; no-heap real-time threads additionally may never access the
/// heap (paper Table 1 note).
///
/// # Examples
///
/// ```
/// use rtmem::{MemoryModel, Ctx};
///
/// let model = MemoryModel::new();
/// let scope = model.create_scoped(1024)?;
/// let mut ctx = Ctx::no_heap(&model);
/// ctx.enter(scope, |ctx| {
///     assert_eq!(ctx.current(), scope);
/// })?;
/// # Ok::<(), rtmem::RtmemError>(())
/// ```
pub struct Ctx {
    pub(crate) model: Arc<ModelInner>,
    stack: Vec<RegionId>,
    no_heap: bool,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("stack", &self.stack)
            .field("no_heap", &self.no_heap)
            .finish()
    }
}

impl Ctx {
    /// A real-time thread context based in immortal memory, still allowed
    /// to read the heap.
    pub fn immortal(model: &MemoryModel) -> Ctx {
        Ctx::based_in_immortal(model, false)
    }

    /// A no-heap real-time thread context: based in immortal memory and
    /// forbidden from touching the heap.
    pub fn no_heap(model: &MemoryModel) -> Ctx {
        Ctx::based_in_immortal(model, true)
    }

    fn based_in_immortal(model: &MemoryModel, no_heap: bool) -> Ctx {
        let mut stack = Vec::with_capacity(STACK_DEPTH);
        stack.push(model.immortal());
        Ctx {
            model: Arc::clone(&model.inner),
            stack,
            no_heap,
        }
    }

    /// The current allocation context (top of the scope stack).
    pub fn current(&self) -> RegionId {
        *self.stack.last().expect("scope stack never empty")
    }

    /// The scope stack, base first.
    pub fn stack(&self) -> &[RegionId] {
        &self.stack
    }

    /// Whether `region` is readable from this context: on the scope stack,
    /// or immortal, or heap (unless no-heap).
    pub fn may_access(&self, region: RegionId) -> bool {
        let Ok(slot) = self.model.slot(region) else {
            return false;
        };
        let kind = slot.lock().kind;
        match kind {
            RegionKind::Heap => !self.no_heap,
            RegionKind::Immortal => true,
            RegionKind::Scoped | RegionKind::ScopedVt => self.stack.contains(&region),
        }
    }

    /// Enters `region`, runs `f` with the region as the current allocation
    /// context, then exits. Exiting the last pin of a scoped region
    /// reclaims it.
    ///
    /// # Errors
    ///
    /// * [`RtmemError::ScopedCycle`] — the region is already parented
    ///   elsewhere (single parent rule).
    /// * [`RtmemError::HeapFromNoHeap`] — a no-heap context entering heap.
    /// * [`RtmemError::InvalidRegion`] — the region was destroyed.
    pub fn enter<R>(&mut self, region: RegionId, f: impl FnOnce(&mut Ctx) -> R) -> Result<R> {
        {
            let slot = self.model.slot(region)?;
            let kind = slot.lock().kind;
            if kind == RegionKind::Heap && self.no_heap {
                return Err(RtmemError::HeapFromNoHeap);
            }
        }
        let from = self.current();
        self.model.bind_and_pin(region, from, true)?;
        self.stack.push(region);
        // Ensure we exit even if `f` unwinds.
        struct ExitGuard<'a>(&'a mut Ctx, RegionId);
        impl Drop for ExitGuard<'_> {
            fn drop(&mut self) {
                let popped = self.0.stack.pop();
                debug_assert_eq!(popped, Some(self.1));
                self.0.model.unpin(self.1, true);
            }
        }
        let guard = ExitGuard(self, region);
        let out = f(guard.0);
        drop(guard);
        Ok(out)
    }

    /// Allocates `value` in the current allocation context.
    ///
    /// # Errors
    ///
    /// [`RtmemError::OutOfMemory`] when the region budget is exhausted.
    pub fn alloc<T: Send + 'static>(&self, value: T) -> Result<RRef<T>> {
        self.alloc_in(self.current(), value)
    }

    /// Allocates `value` in `region`, which must be accessible from this
    /// context (`executeInArea` analog).
    pub fn alloc_in<T: Send + 'static>(&self, region: RegionId, value: T) -> Result<RRef<T>> {
        if !self.may_access(region) {
            return Err(RtmemError::Inaccessible { region });
        }
        RRef::allocate(&self.model, region, value)
    }

    /// Allocates `len` raw bytes in the current allocation context from the
    /// region's bump store.
    pub fn alloc_bytes(&self, len: usize) -> Result<RBytes> {
        self.alloc_bytes_in(self.current(), len)
    }

    /// Allocates `len` raw bytes in `region`.
    pub fn alloc_bytes_in(&self, region: RegionId, len: usize) -> Result<RBytes> {
        if !self.may_access(region) {
            return Err(RtmemError::Inaccessible { region });
        }
        RBytes::allocate(&self.model, region, len)
    }

    /// Runs `f` with the allocation context temporarily switched to
    /// `region`, which must already be on this context's scope stack (or be
    /// heap/immortal) — the RTSJ `MemoryArea.executeInArea` analog.
    ///
    /// While `f` runs the scope stack is truncated to end at `region`, so
    /// scopes entered *after* it are not accessible from within `f` (they
    /// remain entered and are not reclaimed). This is the mechanism behind
    /// the *handoff pattern* (paper Section 2.2): a thread deep in one
    /// branch jumps to a common ancestor to reach a sibling scope.
    ///
    /// # Errors
    ///
    /// [`RtmemError::NotEntered`] if `region` is not on the stack,
    /// [`RtmemError::HeapFromNoHeap`] for heap from a no-heap context.
    pub fn execute_in<R>(&mut self, region: RegionId, f: impl FnOnce(&mut Ctx) -> R) -> Result<R> {
        {
            let slot = self.model.slot(region)?;
            let kind = slot.lock().kind;
            match kind {
                RegionKind::Heap if self.no_heap => return Err(RtmemError::HeapFromNoHeap),
                RegionKind::Heap | RegionKind::Immortal => {
                    // Heap/immortal are always enterable; treat as a
                    // truncation to the base plus that area.
                }
                RegionKind::Scoped | RegionKind::ScopedVt => {
                    if !self.stack.contains(&region) {
                        return Err(RtmemError::NotEntered(region));
                    }
                }
            }
        }
        let (keep, pushed) = match self.stack.iter().rposition(|&r| r == region) {
            Some(idx) => (idx + 1, false),
            None => {
                // Heap or immortal, not on the stack: push it as the new
                // temporary context on top of the base.
                self.stack.push(region);
                (self.stack.len(), true)
            }
        };
        let tail: Vec<RegionId> = self.stack.split_off(keep);
        struct Restore<'a> {
            ctx: &'a mut Ctx,
            tail: Vec<RegionId>,
            keep: usize,
            pushed: bool,
        }
        impl Drop for Restore<'_> {
            fn drop(&mut self) {
                self.ctx.stack.truncate(self.keep);
                if self.pushed {
                    self.ctx.stack.pop();
                }
                self.ctx.stack.append(&mut self.tail);
            }
        }
        let restore = Restore {
            ctx: self,
            tail,
            keep,
            pushed,
        };
        let out = f(restore.ctx);
        drop(restore);
        Ok(out)
    }

    /// Enters every region in `chain` in order (outermost first) and runs
    /// `f` innermost. An empty chain runs `f` directly.
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`Ctx::enter`].
    pub fn enter_chain<R>(
        &mut self,
        chain: &[RegionId],
        f: impl FnOnce(&mut Ctx) -> R,
    ) -> Result<R> {
        match chain.split_first() {
            None => Ok(f(self)),
            Some((&head, rest)) => {
                // Skip regions we are already inside (e.g. the immortal base).
                if self.current() == head {
                    self.enter_chain(rest, f)
                } else {
                    self.enter(head, |ctx| ctx.enter_chain(rest, f))?
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MemoryModel;

    #[test]
    fn enter_exit_reclaims() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        let r = ctx.enter(s, |ctx| ctx.alloc(5u64).unwrap()).unwrap();
        // Region reclaimed after exit: reference is stale.
        assert!(matches!(
            r.with(&Ctx::immortal(&m), |v| *v),
            Err(RtmemError::StaleReference { .. })
        ));
        let snap = m.snapshot(s).unwrap();
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.used, 0);
        assert_eq!(snap.parent, None);
    }

    #[test]
    fn nested_enter_builds_scope_stack() {
        let m = MemoryModel::new();
        let a = m.create_scoped(1024).unwrap();
        let b = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter(a, |ctx| {
            ctx.enter(b, |ctx| {
                assert_eq!(ctx.stack().len(), 3);
                assert_eq!(ctx.current(), b);
                assert!(ctx.may_access(a));
                assert_eq!(m.parent_of(b).unwrap(), Some(a));
            })
            .unwrap();
        })
        .unwrap();
    }

    #[test]
    fn single_parent_rule_enforced() {
        let m = MemoryModel::new();
        let a = m.create_scoped(1024).unwrap();
        let b = m.create_scoped(1024).unwrap();
        let shared = m.create_scoped(1024).unwrap();
        // Pin a and shared-under-a so parentage persists.
        let mut ctx = Ctx::immortal(&m);
        let w_a = crate::wedge::Wedge::pin_from_base(&m, a).unwrap();
        let w_shared = ctx
            .enter(a, |ctx| crate::wedge::Wedge::pin(ctx, shared).unwrap())
            .unwrap();
        let mut ctx2 = Ctx::immortal(&m);
        let err = ctx2
            .enter(b, |ctx| ctx.enter(shared, |_| {}))
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, RtmemError::ScopedCycle { .. }));
        drop(w_shared);
        drop(w_a);
    }

    #[test]
    fn no_heap_cannot_enter_heap() {
        let m = MemoryModel::new();
        let mut ctx = Ctx::no_heap(&m);
        assert!(matches!(
            ctx.enter(m.heap(), |_| {}),
            Err(RtmemError::HeapFromNoHeap)
        ));
        assert!(!ctx.may_access(m.heap()));
        let mut rt = Ctx::immortal(&m);
        rt.enter(m.heap(), |ctx| assert_eq!(ctx.current(), m.heap()))
            .unwrap();
    }

    #[test]
    fn panic_in_enter_still_exits() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut ctx = Ctx::immortal(&m);
            let _ = ctx.enter(s, |_| panic!("boom"));
        }));
        assert!(result.is_err());
        let snap = m.snapshot(s).unwrap();
        assert_eq!(snap.entered, 0);
        assert_eq!(snap.epoch, 1, "region reclaimed despite the panic");
    }

    #[test]
    fn alloc_in_inaccessible_region_fails() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let ctx = Ctx::immortal(&m);
        assert!(matches!(
            ctx.alloc_in(s, 1u8),
            Err(RtmemError::Inaccessible { .. })
        ));
    }

    #[test]
    fn execute_in_reaches_sibling_scope() {
        // The handoff pattern: a thread in scope B jumps to the common
        // ancestor A to enter sibling C.
        let m = MemoryModel::new();
        let a = m.create_scoped(4096).unwrap();
        let b = m.create_scoped(1024).unwrap();
        let c = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter(a, |ctx| {
            let _wc = crate::wedge::Wedge::pin(ctx, c).unwrap();
            ctx.enter(b, |ctx| {
                // Direct entry of the sibling is illegal…
                assert!(matches!(
                    ctx.enter(c, |_| {}),
                    Err(RtmemError::ScopedCycle { .. })
                ));
                // …but via executeInArea on the common ancestor it works.
                ctx.execute_in(a, |ctx| {
                    assert_eq!(ctx.current(), a);
                    assert!(!ctx.may_access(b), "scopes above the ancestor are hidden");
                    ctx.enter(c, |ctx| {
                        assert_eq!(ctx.current(), c);
                        assert!(ctx.may_access(a));
                        assert!(!ctx.may_access(b));
                    })
                    .unwrap();
                })
                .unwrap();
                // Stack restored afterwards.
                assert_eq!(ctx.current(), b);
                assert!(ctx.may_access(b));
            })
            .unwrap();
        })
        .unwrap();
    }

    #[test]
    fn execute_in_immortal_from_scope() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter(s, |ctx| {
            ctx.execute_in(m.immortal(), |ctx| {
                assert_eq!(ctx.current(), m.immortal());
            })
            .unwrap();
            assert_eq!(ctx.current(), s);
        })
        .unwrap();
    }

    #[test]
    fn nested_execute_in_restores_in_order() {
        // A handoff inside a handoff: each puts back the scopes it hid,
        // the inner one even when it unwinds.
        let m = MemoryModel::new();
        let a = m.create_scoped(1024).unwrap();
        let b = m.create_scoped(1024).unwrap();
        let c = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        ctx.enter_chain(&[a, b, c], |ctx| {
            let full = ctx.stack().to_vec();
            ctx.execute_in(b, |ctx| {
                assert_eq!(ctx.stack(), &full[..3]);
                let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = ctx.execute_in(a, |ctx| {
                        assert_eq!(ctx.stack(), &full[..2]);
                        panic!("boom");
                    });
                }));
                assert!(unwound.is_err());
                assert_eq!(ctx.stack(), &full[..3], "inner handoff restored");
            })
            .unwrap();
            assert_eq!(ctx.stack(), &full[..], "outer handoff restored");
        })
        .unwrap();
    }

    #[test]
    fn execute_in_not_entered_region_fails() {
        let m = MemoryModel::new();
        let s = m.create_scoped(1024).unwrap();
        let _w = crate::wedge::Wedge::pin_from_base(&m, s).unwrap();
        let mut ctx = Ctx::immortal(&m);
        assert!(matches!(
            ctx.execute_in(s, |_| {}),
            Err(RtmemError::NotEntered(_))
        ));
    }

    #[test]
    fn enter_chain_runs_innermost() {
        let m = MemoryModel::new();
        let a = m.create_scoped(1024).unwrap();
        let b = m.create_scoped(1024).unwrap();
        let mut ctx = Ctx::immortal(&m);
        let depth = ctx
            .enter_chain(&[m.immortal(), a, b], |ctx| {
                assert_eq!(ctx.current(), b);
                ctx.stack().len()
            })
            .unwrap();
        assert_eq!(depth, 3); // immortal base skipped, a, b entered
                              // Empty chain runs in place.
        let cur = ctx.enter_chain(&[], |ctx| ctx.current()).unwrap();
        assert_eq!(cur, m.immortal());
    }
}
