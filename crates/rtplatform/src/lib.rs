//! # rtplatform — the substrate every Compadres crate stands on
//!
//! std-only primitives (`sync`, `atomic`, `park`, the lock-free `ring`,
//! `heap`, seeded `rng`, `fault` policies); the wire every socket speaks
//! — `bufchain` segments frames are built and reassembled in, `poll`'s
//! epoll loop and acceptor, [`cdr`] marshalling and [`giop`] framing, the
//! one codec of both ORBs and core's remote ports; and the simulated
//! execution platforms of the paper's first experiment (Table 2, Fig. 9),
//! which runs the same co-located client–server round trip on three:
//!
//! 1. **TimeSys RI** — the RTSJ reference implementation on a real-time
//!    Linux kernel: small, tightly bounded jitter (55 µs in the paper);
//! 2. **Mackinac** — Sun's RTSJ VM on SunOS 5.10, a *non*-real-time OS:
//!    slightly larger jitter (92 µs) because system threads occasionally
//!    preempt the application;
//! 3. **JDK 1.4** — a plain JVM whose garbage collector stops the world:
//!    very large jitter, because allocation eventually triggers pauses.
//!
//! We cannot run 2007 hardware; what the experiment actually demonstrates
//! is the *relative* predictability of the three runtimes. This crate
//! models each platform as a deterministic **interference injector**: the
//! real workload (the actual Compadres round trip) executes unchanged, and
//! the platform adds the delays its real counterpart would — GC pauses
//! proportional to allocation pressure for the JDK, occasional
//! preemptions for a non-RT OS, and only scheduling noise for the RT
//! kernel. All randomness is seeded, so runs are reproducible. DESIGN.md
//! §5 records this substitution.

#![warn(missing_docs)]
// `deny`, not `forbid`: the modules that need `unsafe` (`ring`, the
// Vyukov MPMC queue, the pool slots inside `bufchain`, and the
// C-library FFI in `poll` and `heap`) opt back in locally; every other
// module — and every crate above this one — stays unsafe-free, and
// `scripts/check.sh` fails on `unsafe` anywhere else.
#![deny(unsafe_code)]

use std::time::Duration;

pub mod atomic;
pub mod bufchain;
pub mod cdr;
pub mod chk;
pub mod fault;
pub mod giop;
pub mod heap;
pub mod park;
pub mod poll;
pub mod ring;
pub mod rng;
pub mod small;
pub mod sync;

use rng::SplitMix64;

/// A simulated execution platform: called around every measured operation
/// to inject the platform's characteristic interference.
pub trait Platform: Send {
    /// Human-readable platform name (used in table output).
    fn name(&self) -> &'static str;

    /// Called once per measured operation, with the number of bytes the
    /// operation (logically) allocated; delays to model interference.
    fn interfere(&mut self, allocated_bytes: usize);

    /// Resets internal state (e.g. the GC's allocation budget).
    fn reset(&mut self);
}

/// Busy-waits for `d` — sleeping is too coarse for microsecond-scale
/// interference, and a really preempted thread burns wall-clock the same
/// way from the measurement's point of view.
fn spin_for(d: Duration) {
    let start = std::time::Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// TimeSys RTSJ Reference Implementation on TimeSys Linux (real-time OS):
/// only minimal, bounded scheduler noise.
#[derive(Debug)]
pub struct TimesysRi {
    rng: SplitMix64,
}

impl TimesysRi {
    /// Creates the platform with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        TimesysRi {
            rng: SplitMix64::new(seed),
        }
    }
}

impl Default for TimesysRi {
    fn default() -> Self {
        Self::new(42)
    }
}

impl Platform for TimesysRi {
    fn name(&self) -> &'static str {
        "TimeSys RI"
    }

    fn interfere(&mut self, _allocated_bytes: usize) {
        // Bounded scheduling noise: 0–12 µs, heavily skewed toward 0.
        let r = self.rng.next_f64();
        let noise_us = 12.0 * r * r * r;
        spin_for(Duration::from_nanos((noise_us * 1_000.0) as u64));
    }

    fn reset(&mut self) {}
}

/// Sun Mackinac (RTSJ VM) on SunOS 5.10 — a non-real-time OS: mostly
/// quiet, but system threads occasionally preempt the application for
/// tens of microseconds.
#[derive(Debug)]
pub struct Mackinac {
    rng: SplitMix64,
    /// Probability of a system-thread preemption per operation.
    preempt_prob: f64,
}

impl Mackinac {
    /// Creates the platform with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Mackinac {
            rng: SplitMix64::new(seed),
            preempt_prob: 0.005,
        }
    }
}

impl Default for Mackinac {
    fn default() -> Self {
        Self::new(42)
    }
}

impl Platform for Mackinac {
    fn name(&self) -> &'static str {
        "Mackinac"
    }

    fn interfere(&mut self, _allocated_bytes: usize) {
        // Base scheduler noise a bit above the RT kernel's…
        let r = self.rng.next_f64();
        let noise_us = 18.0 * r * r * r;
        spin_for(Duration::from_nanos((noise_us * 1_000.0) as u64));
        // …plus rare preemptions by OS housekeeping threads. Sized well
        // above the measurement host's own scheduling-noise floor
        // (~100 us spikes) so the modeled effect, not the host, sets the
        // worst case.
        if self.rng.next_f64() < self.preempt_prob {
            let preempt_us = self.rng.range_f64(200.0, 400.0);
            spin_for(Duration::from_nanos((preempt_us * 1_000.0) as u64));
        }
    }

    fn reset(&mut self) {}
}

/// Sun JDK 1.4 with the default stop-the-world collector: allocation
/// accumulates until the young generation fills, then the world stops for
/// a pause that dwarfs the operation itself.
#[derive(Debug)]
pub struct Jdk14 {
    rng: SplitMix64,
    heap_budget: usize,
    allocated: usize,
    minor_pause: Duration,
    major_every: u32,
    collections: u32,
}

impl Jdk14 {
    /// Creates the platform with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Jdk14 {
            rng: SplitMix64::new(seed),
            // Young-generation budget: small enough that a message-passing
            // benchmark triggers collections at a realistic cadence.
            heap_budget: 256 << 10,
            allocated: 0,
            minor_pause: Duration::from_micros(2_000),
            major_every: 24,
            collections: 0,
        }
    }

    /// Number of collections triggered so far.
    pub fn collections(&self) -> u32 {
        self.collections
    }
}

impl Default for Jdk14 {
    fn default() -> Self {
        Self::new(42)
    }
}

impl Platform for Jdk14 {
    fn name(&self) -> &'static str {
        "JDK 1.4"
    }

    fn interfere(&mut self, allocated_bytes: usize) {
        // A JVM allocates even when the application "doesn't": boxing,
        // iterator garbage, and so on.
        self.allocated += allocated_bytes + 256;
        // Ordinary JIT/OS noise.
        let r = self.rng.next_f64();
        spin_for(Duration::from_nanos((15_000.0 * r * r * r) as u64));
        if self.allocated >= self.heap_budget {
            self.allocated = 0;
            self.collections += 1;
            // Minor collection pause with variance; periodically a major
            // collection several times longer.
            let jitter = self.rng.range_f64(0.7, 1.6);
            let mut pause = self.minor_pause.mul_f64(jitter);
            if self.collections.is_multiple_of(self.major_every) {
                pause = pause.mul_f64(4.0);
            }
            spin_for(pause);
        }
    }

    fn reset(&mut self) {
        self.allocated = 0;
        self.collections = 0;
    }
}

/// The three platforms of the paper's Table 2, in its row order.
pub fn paper_platforms(seed: u64) -> Vec<Box<dyn Platform>> {
    vec![
        Box::new(Mackinac::new(seed)),
        Box::new(TimesysRi::new(seed)),
        Box::new(Jdk14::new(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// Measures interference over `ops` operations. The "max" returned
    /// is the *minimum of per-window maxima* over five equal windows:
    /// the platform's modeled worst case recurs in every window, while
    /// a preemption of the measurement host itself hits at most a few,
    /// so this statistic sees the model rather than the host.
    fn measure(platform: &mut dyn Platform, ops: usize, alloc: usize) -> (Duration, Duration) {
        const WINDOWS: usize = 5;
        let mut min = Duration::MAX;
        let mut robust_max = Duration::MAX;
        for _ in 0..WINDOWS {
            let mut window_max = Duration::ZERO;
            for _ in 0..ops / WINDOWS {
                let t = Instant::now();
                platform.interfere(alloc);
                let d = t.elapsed();
                min = min.min(d);
                window_max = window_max.max(d);
            }
            robust_max = robust_max.min(window_max);
        }
        (min, robust_max)
    }

    #[test]
    fn rt_platform_has_bounded_noise() {
        let mut p = TimesysRi::new(1);
        let (_, max) = measure(&mut p, 2_000, 512);
        assert!(
            max < Duration::from_micros(500),
            "RT noise stays small, got {max:?}"
        );
    }

    #[test]
    fn jdk_pauses_dominate() {
        let mut jdk = Jdk14::new(1);
        let (_, jdk_max) = measure(&mut jdk, 3_000, 512);
        let mut ri = TimesysRi::new(1);
        let (_, ri_max) = measure(&mut ri, 3_000, 512);
        assert!(
            jdk_max > ri_max * 4,
            "GC pauses must dwarf RT noise: jdk {jdk_max:?} vs ri {ri_max:?}"
        );
        assert!(jdk_max >= Duration::from_micros(400), "observed a GC pause");
    }

    #[test]
    fn mackinac_between_the_two() {
        let mut mac = Mackinac::new(7);
        let (_, mac_max) = measure(&mut mac, 5_000, 512);
        let mut jdk = Jdk14::new(7);
        let (_, jdk_max) = measure(&mut jdk, 5_000, 512);
        assert!(
            mac_max < jdk_max,
            "mackinac {mac_max:?} must be below jdk {jdk_max:?}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        // Same seed ⇒ same collection schedule.
        let mut a = Jdk14::new(99);
        let mut b = Jdk14::new(99);
        for _ in 0..1_000 {
            a.interfere(128);
            b.interfere(128);
        }
        assert_eq!(a.collections, b.collections);
        assert_eq!(a.allocated, b.allocated);
    }

    #[test]
    fn reset_clears_gc_state() {
        let mut jdk = Jdk14::new(5);
        for _ in 0..500 {
            jdk.interfere(1024);
        }
        jdk.reset();
        assert_eq!(jdk.allocated, 0);
        assert_eq!(jdk.collections, 0);
    }

    #[test]
    fn paper_platforms_ordering() {
        let platforms = paper_platforms(1);
        let names: Vec<_> = platforms.iter().map(|p| p.name()).collect();
        assert_eq!(names, vec!["Mackinac", "TimeSys RI", "JDK 1.4"]);
    }
}
