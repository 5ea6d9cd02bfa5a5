//! Fault-tolerance policy primitives shared by the remote layers.
//!
//! The Compadres paper assumes a perfect loopback network; real DRE
//! deployments do not get one. This module centralises the knobs the
//! remote transports (`compadres-core`'s `RemotePort`/`PortExporter` and
//! rtcorba's connections) use to keep real-time threads from wedging on a
//! faulty peer: per-operation deadlines, bounded retries with
//! decorrelated-jitter backoff, and an explicit degradation mode for when
//! the retry budget is exhausted.
//!
//! Everything here is deterministic: backoff jitter is drawn from the
//! seeded [`SplitMix64`] generator, so a failure schedule replays exactly
//! under a fixed seed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use crate::rng::SplitMix64;

/// What a sender does with a message once the retry budget for it is
/// exhausted (the link is still down).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradeMode {
    /// Surface the failure to the caller. The default: losing data
    /// silently is opt-in.
    #[default]
    Fail,
    /// Shed the message (count it, return success). For periodic
    /// telemetry where the next sample supersedes the lost one.
    Shed,
    /// Queue the message for resend on reconnect, bounded by
    /// [`FaultPolicy::pending_cap`]; when the queue is full the *oldest*
    /// pending message is shed. Sends never block on backoff sleeps in
    /// this mode — staleness is traded away instead of latency.
    DropOldest,
}

/// Deadlines, retry budget and degradation behaviour for one remote link.
///
/// The defaults are conservative for a LAN: see individual fields. All
/// deadlines bound *blocking time of the calling thread*, which is the
/// quantity a real-time system must control.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Deadline for establishing a TCP connection (default 2 s).
    pub connect_timeout: Duration,
    /// Deadline for one send (socket write) to make progress (default 1 s).
    pub send_timeout: Duration,
    /// Deadline for a reply / next frame to arrive (default 2 s).
    pub recv_timeout: Duration,
    /// Retry budget per operation *beyond* the first attempt (default 3).
    pub max_retries: u32,
    /// Backoff lower bound, the first retry's minimum delay (default 1 ms).
    pub backoff_base: Duration,
    /// Backoff upper bound; no retry ever waits longer (default 100 ms).
    pub backoff_cap: Duration,
    /// What to do when the retry budget is exhausted (default `Fail`).
    pub degrade: DegradeMode,
    /// Bound on the resend queue in [`DegradeMode::DropOldest`]
    /// (default 64 messages).
    pub pending_cap: usize,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            connect_timeout: Duration::from_secs(2),
            send_timeout: Duration::from_secs(1),
            recv_timeout: Duration::from_secs(2),
            max_retries: 3,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(100),
            degrade: DegradeMode::Fail,
            pending_cap: 64,
        }
    }
}

impl FaultPolicy {
    /// A tight policy for tests and low-latency links: 100 ms deadlines,
    /// 2 retries, 1–20 ms backoff.
    pub fn tight() -> FaultPolicy {
        FaultPolicy {
            connect_timeout: Duration::from_millis(100),
            send_timeout: Duration::from_millis(100),
            recv_timeout: Duration::from_millis(100),
            max_retries: 2,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            ..FaultPolicy::default()
        }
    }

    /// Worst-case wall-clock one send/invoke can block under this policy:
    /// every attempt times out and every backoff draws the cap.
    pub fn worst_case_blocking(&self) -> Duration {
        let attempts = u64::from(self.max_retries) + 1;
        let per_attempt = self.connect_timeout + self.send_timeout + self.recv_timeout;
        per_attempt * (attempts as u32) + self.backoff_cap * self.max_retries
    }
}

/// Per-priority-band admission control for a bounded queue — the
/// [`DegradeMode::Shed`] idea generalized from remote links to local
/// port queues.
///
/// A queue of capacity `C` admits a message of priority `p` only while
/// its occupancy is below the band's *watermark*:
///
/// * `p >= high_floor` — watermark `C`: high-priority traffic is only
///   refused when the queue is truly full (a hard `BufferFull`, never a
///   shed);
/// * `mid_floor <= p < high_floor` — watermark `C * mid_permille /
///   1000`;
/// * `p < mid_floor` — watermark `C * low_permille / 1000`.
///
/// Under overload the queue therefore fills *bottom-up*: low-priority
/// producers start shedding while ~half the capacity is still reserved
/// as headroom for the high band, which keeps high-priority deadlines
/// intact past saturation instead of letting a low-priority burst eat
/// the whole buffer. [`AdmissionPolicy::disabled`] (the `Default`)
/// gives every band the full capacity — exactly the pre-admission
/// behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Lowest priority that counts as the high band (watermark = full
    /// capacity).
    pub high_floor: u8,
    /// Lowest priority that counts as the mid band; below it is low.
    pub mid_floor: u8,
    /// Mid-band watermark in thousandths of capacity (e.g. 750 ⇒ mid
    /// traffic is shed once the queue is 75% full).
    pub mid_permille: u16,
    /// Low-band watermark in thousandths of capacity.
    pub low_permille: u16,
}

impl AdmissionPolicy {
    /// No shedding: every band may fill the queue to capacity. The
    /// default, preserving the historical enqueue behaviour.
    pub const fn disabled() -> AdmissionPolicy {
        AdmissionPolicy {
            high_floor: 0,
            mid_floor: 0,
            mid_permille: 1000,
            low_permille: 1000,
        }
    }

    /// The standard banded preset: mid traffic keeps 3/4 of the queue,
    /// low traffic half, high traffic all of it.
    pub const fn banded(mid_floor: u8, high_floor: u8) -> AdmissionPolicy {
        AdmissionPolicy {
            high_floor,
            mid_floor,
            mid_permille: 750,
            low_permille: 500,
        }
    }

    /// The occupancy at which `priority` stops being admitted into a
    /// queue of `capacity`. Clamped to at least 1 so a nonempty queue
    /// never starves a band outright unless its permille is 0.
    pub fn watermark(&self, priority: u8, capacity: usize) -> usize {
        let permille = if priority >= self.high_floor {
            1000
        } else if priority >= self.mid_floor {
            u32::from(self.mid_permille.min(1000))
        } else {
            u32::from(self.low_permille.min(1000))
        };
        if permille >= 1000 {
            return capacity;
        }
        ((capacity as u64) * u64::from(permille) / 1000) as usize
    }

    /// Whether a message of `priority` is admitted when `occupied` of
    /// `capacity` slots are taken.
    pub fn admits(&self, priority: u8, occupied: usize, capacity: usize) -> bool {
        occupied < self.watermark(priority, capacity)
    }

    /// Claims one slot of a queue of `capacity` for a message of
    /// `priority`: `occupancy` is bumped only while it is under the
    /// band's watermark, check and claim in one atomic update. A refused
    /// sender therefore never shows in `occupancy`, and concurrent
    /// claims cannot overshoot — the bound is strict, not advisory.
    /// Returns the occupancy including the claim.
    ///
    /// # Errors
    ///
    /// The watermark that refused the claim: below `capacity` the
    /// message is shed, at `capacity` the queue is full.
    #[inline]
    pub fn claim(
        &self,
        occupancy: &AtomicUsize,
        priority: u8,
        capacity: usize,
    ) -> Result<usize, usize> {
        let limit = self.watermark(priority, capacity);
        occupancy
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < limit).then_some(n + 1)
            })
            .map(|before| before + 1)
            .map_err(|_| limit)
    }
}

impl Default for AdmissionPolicy {
    fn default() -> AdmissionPolicy {
        AdmissionPolicy::disabled()
    }
}

/// Decorrelated-jitter backoff (the "decorrelated jitter" variant from
/// the AWS Architecture Blog): each delay is drawn uniformly from
/// `[base, prev * 3)` and clamped to `cap`.
///
/// Jitter decorrelates retry storms across many clients; growing the
/// upper bound from the *previous draw* (rather than the attempt number)
/// adapts the spread to how long the outage has actually lasted.
/// Deterministic per seed.
#[derive(Debug, Clone)]
pub struct Backoff {
    rng: SplitMix64,
    base_ns: u64,
    cap_ns: u64,
    prev_ns: u64,
}

impl Backoff {
    /// Creates a backoff schedule for `policy`, seeded for determinism.
    pub fn new(policy: &FaultPolicy, seed: u64) -> Backoff {
        let base_ns = policy.backoff_base.as_nanos().min(u128::from(u64::MAX)) as u64;
        let cap_ns = (policy.backoff_cap.as_nanos().min(u128::from(u64::MAX)) as u64).max(base_ns);
        Backoff {
            rng: SplitMix64::new(seed),
            base_ns,
            cap_ns,
            prev_ns: base_ns,
        }
    }

    /// Draws the next delay: `min(cap, uniform(base, prev * 3))`.
    pub fn next_delay(&mut self) -> Duration {
        let hi = self.prev_ns.saturating_mul(3).max(self.base_ns + 1);
        let span = hi - self.base_ns;
        let ns = (self.base_ns + self.rng.next_u64() % span).min(self.cap_ns);
        self.prev_ns = ns.max(self.base_ns);
        Duration::from_nanos(ns)
    }

    /// Resets the schedule after a success, so the next failure starts
    /// from `base` again.
    pub fn reset(&mut self) {
        self.prev_ns = self.base_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = FaultPolicy::default();
        assert_eq!(p.degrade, DegradeMode::Fail);
        assert!(p.backoff_base < p.backoff_cap);
        assert!(p.worst_case_blocking() >= p.recv_timeout);
    }

    #[test]
    fn admission_disabled_admits_to_capacity() {
        let a = AdmissionPolicy::disabled();
        for p in [0u8, 10, 99] {
            assert_eq!(a.watermark(p, 64), 64);
            assert!(a.admits(p, 63, 64));
            assert!(!a.admits(p, 64, 64));
        }
    }

    #[test]
    fn admission_bands_shed_bottom_up() {
        let a = AdmissionPolicy::banded(20, 50);
        assert_eq!(a.watermark(50, 100), 100, "high band gets it all");
        assert_eq!(a.watermark(99, 100), 100);
        assert_eq!(a.watermark(20, 100), 75, "mid band: 750 permille");
        assert_eq!(a.watermark(49, 100), 75);
        assert_eq!(a.watermark(0, 100), 50, "low band: 500 permille");
        assert_eq!(a.watermark(19, 100), 50);
        // At 60% occupancy: low sheds, mid and high still admitted.
        assert!(!a.admits(0, 60, 100));
        assert!(a.admits(20, 60, 100));
        assert!(a.admits(50, 60, 100));
        // At 80%: only high admitted.
        assert!(!a.admits(20, 80, 100));
        assert!(a.admits(50, 80, 100));
    }

    #[test]
    fn admission_zero_permille_starves_band() {
        let a = AdmissionPolicy {
            high_floor: 50,
            mid_floor: 20,
            mid_permille: 750,
            low_permille: 0,
        };
        assert_eq!(a.watermark(0, 100), 0);
        assert!(!a.admits(0, 0, 100), "zero watermark admits nothing");
        assert!(a.admits(20, 0, 100));
    }

    #[test]
    fn claim_is_exact_and_leaves_no_trace_on_refusal() {
        let a = AdmissionPolicy::banded(20, 50);
        let occupancy = AtomicUsize::new(0);
        for n in 1..=4 {
            assert_eq!(a.claim(&occupancy, 0, 8), Ok(n));
        }
        assert_eq!(a.claim(&occupancy, 0, 8), Err(4), "low band shed");
        assert_eq!(
            occupancy.load(Ordering::SeqCst),
            4,
            "refusal claims nothing"
        );
        for n in 5..=8 {
            assert_eq!(a.claim(&occupancy, 50, 8), Ok(n));
        }
        assert_eq!(a.claim(&occupancy, 50, 8), Err(8), "high band: full");
        assert_eq!(occupancy.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn backoff_bounded_by_policy() {
        let p = FaultPolicy::default();
        let mut b = Backoff::new(&p, 7);
        for _ in 0..1_000 {
            let d = b.next_delay();
            assert!(d >= p.backoff_base, "below base: {d:?}");
            assert!(d <= p.backoff_cap, "above cap: {d:?}");
        }
    }

    #[test]
    fn backoff_deterministic_per_seed() {
        let p = FaultPolicy::default();
        let mut a = Backoff::new(&p, 42);
        let mut b = Backoff::new(&p, 42);
        let seq_a: Vec<_> = (0..32).map(|_| a.next_delay()).collect();
        let seq_b: Vec<_> = (0..32).map(|_| b.next_delay()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = Backoff::new(&p, 43);
        let seq_c: Vec<_> = (0..32).map(|_| c.next_delay()).collect();
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn backoff_grows_then_resets() {
        let p = FaultPolicy::default();
        let mut b = Backoff::new(&p, 1);
        // After enough draws the schedule saturates at the cap more often
        // than not; a reset must pull the next draw back near base.
        let mut saw_large = false;
        for _ in 0..64 {
            if b.next_delay() > p.backoff_base * 10 {
                saw_large = true;
            }
        }
        assert!(saw_large, "backoff never grew past 10x base");
        b.reset();
        // First post-reset draw is uniform in [base, 3*base).
        assert!(b.next_delay() < p.backoff_base * 3);
    }

    #[test]
    fn zero_base_does_not_panic() {
        let p = FaultPolicy {
            backoff_base: Duration::ZERO,
            backoff_cap: Duration::from_millis(5),
            ..FaultPolicy::default()
        };
        let mut b = Backoff::new(&p, 3);
        for _ in 0..100 {
            assert!(b.next_delay() <= p.backoff_cap);
        }
    }
}
