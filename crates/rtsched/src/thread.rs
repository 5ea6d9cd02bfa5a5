//! Real-time thread bookkeeping.
//!
//! Hard OS-level priorities are not portably settable from user space, so —
//! as documented in DESIGN.md — priorities are honored *inside* the
//! framework (queues and pools) and tracked per thread here. This mirrors
//! where the paper's mechanism actually lives: messages carry priorities
//! and handler threads assume them.

use std::cell::Cell;

use crate::priority::Priority;

thread_local! {
    static CURRENT_PRIORITY: Cell<Priority> = const { Cell::new(Priority::NORM) };
}

/// The priority the current thread is executing at.
pub fn current_priority() -> Priority {
    CURRENT_PRIORITY.with(|p| p.get())
}

/// Runs `f` with the current thread's priority set to `priority`,
/// restoring the previous value afterwards (also on panic).
pub fn with_priority<R>(priority: Priority, f: impl FnOnce() -> R) -> R {
    struct Restore(Priority);
    impl Drop for Restore {
        fn drop(&mut self) {
            CURRENT_PRIORITY.with(|p| p.set(self.0));
        }
    }
    let prev = current_priority();
    CURRENT_PRIORITY.with(|p| p.set(priority));
    let _restore = Restore(prev);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_priority_is_norm() {
        assert_eq!(current_priority(), Priority::NORM);
    }

    #[test]
    fn with_priority_restores() {
        with_priority(Priority::new(9), || {
            assert_eq!(current_priority(), Priority::new(9));
            with_priority(Priority::new(77), || {
                assert_eq!(current_priority(), Priority::new(77));
            });
            assert_eq!(current_priority(), Priority::new(9));
        });
        assert_eq!(current_priority(), Priority::NORM);
    }

    #[test]
    fn with_priority_restores_on_panic() {
        let _ = std::panic::catch_unwind(|| {
            with_priority(Priority::MAX, || panic!("x"));
        });
        assert_eq!(current_priority(), Priority::NORM);
    }
}
