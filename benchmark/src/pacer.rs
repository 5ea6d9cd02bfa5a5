//! The harness clock and the open-loop pacer.
//!
//! An open-loop source sends on a schedule fixed before the run, whether
//! or not the system keeps up. Every op is therefore timed from the
//! instant it was *due*, so a stall charges its length to the ops it
//! delayed instead of silently thinning the load (coordinated omission).

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the harness epoch (first call). The one clock all
/// stamps — generator, handlers, servant — are read from.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Waits for `due_ns` on the harness clock, yielding the CPU on every
/// turn of the loop. The generator shares its CPU with the system under
/// test: yielding hands the CPU to any thread with work the moment it
/// has some, and keeps the CPU out of the idle states whose exit
/// latency would otherwise be the largest and least steady part of
/// every hand-off. Lateness is reported as generator lag and lands in
/// the delayed ops' latency.
pub fn wait_until(due_ns: u64) {
    while now_ns() < due_ns {
        std::thread::yield_now();
    }
}

/// A fixed-rate arrival schedule: op `i` is due at `start + i × interval`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Due time of op 0, harness clock.
    pub start_ns: u64,
    /// Inter-arrival time.
    pub interval_ns: u64,
}

impl Schedule {
    /// A schedule at `rate_hz` starting `lead_ns` from now.
    pub fn starting_now(rate_hz: u64, lead_ns: u64) -> Schedule {
        Schedule {
            start_ns: now_ns() + lead_ns,
            interval_ns: 1_000_000_000 / rate_hz,
        }
    }

    /// Due time of op `i`.
    pub fn due_ns(&self, i: u64) -> u64 {
        self.start_ns + i * self.interval_ns
    }

    /// Ops that fit in `seconds`.
    pub fn ops_in(&self, seconds: f64) -> u64 {
        ((seconds * 1e9) as u64 / self.interval_ns).max(1)
    }
}

/// Issues ops `0..n` of `sched`: waits for each due time, records how
/// late the op was issued into `lag_ns`, and calls `issue(i, due_ns)`.
/// `issue` may block (a synchronous request); the next op is then
/// issued late and its latency, measured from its own due time by the
/// caller, carries the stall.
pub fn open_loop(
    sched: &Schedule,
    n: u64,
    now: impl Fn() -> u64,
    wait: impl Fn(u64),
    lag_ns: &mut Vec<u64>,
    mut issue: impl FnMut(u64, u64),
) {
    for i in 0..n {
        let due = sched.due_ns(i);
        wait(due);
        lag_ns.push(now().saturating_sub(due));
        issue(i, due);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn latency_is_measured_from_the_due_time_and_carries_a_stall() {
        // Fake clock and a fake synchronous target: 10 µs per op, one
        // op stalls 5 ms. Arrivals every 100 µs.
        let clock = Cell::new(0u64);
        let sched = Schedule {
            start_ns: 1_000,
            interval_ns: 100_000,
        };
        let mut lag = Vec::new();
        let mut latency = Vec::new();
        open_loop(
            &sched,
            200,
            || clock.get(),
            |due| clock.set(clock.get().max(due)),
            &mut lag,
            |i, due| {
                let service = if i == 50 { 5_000_000 } else { 10_000 };
                clock.set(clock.get() + service);
                latency.push(clock.get() - due);
            },
        );
        // Before the stall every op is on time.
        assert!(latency[..50].iter().all(|&l| l == 10_000));
        assert!(lag[..51].iter().all(|&l| l == 0));
        assert_eq!(latency[50], 5_000_000);
        // The following ops were due during the stall: each carries
        // what is left of it, shrinking by the 90 µs of slack per slot.
        assert_eq!(latency[51], 5_000_000 - 100_000 + 10_000);
        assert_eq!(lag[51], 5_000_000 - 100_000);
        assert!(latency[51..100].windows(2).all(|w| w[1] == w[0] - 90_000));
        // An issue-time clock would have reported 10 µs for all of them.
        assert!(latency[51..100].iter().all(|&l| l > 10_000));
        // The backlog drains (5 ms / 90 µs ≈ 55 ops) and the tail is clean.
        assert!(latency[120..].iter().all(|&l| l == 10_000));
        assert!(lag[120..].iter().all(|&l| l == 0));
    }

    #[test]
    fn schedule_arithmetic() {
        let s = Schedule {
            start_ns: 5,
            interval_ns: 250_000,
        };
        assert_eq!(s.due_ns(4), 1_000_005);
        assert_eq!(s.ops_in(1.0), 4000);
        assert_eq!(s.ops_in(0.0), 1);
    }

    #[test]
    fn real_wait_does_not_return_early() {
        let due = now_ns() + 2_000_000;
        wait_until(due);
        assert!(now_ns() >= due);
    }
}
