//! The six workloads and what they share: the run plan, the phase
//! meters and the result shapes. Each workload module builds its
//! assembly through the public surface only (CDL/CCL XML, `AppBuilder`,
//! `HandlerCtx`, `PortExporter`/`RemotePort`, the ORB builders), counts
//! completion in its own handlers or servant, and checks its outputs.

pub mod local_async;
pub mod local_overload;
pub mod local_sync;
pub mod orb_echo;
pub mod remote_oneway;

use std::collections::BTreeMap;

use crate::meter;
use crate::pacer::now_ns;
use crate::stats::LatencySummary;
use crate::trace::SpanSet;

/// Workload names, in the order a whole-set run executes them.
pub const NAMES: [&str; 6] = [
    "local_sync",
    "local_async",
    "local_overload",
    "remote_oneway",
    "orb_echo_64",
    "orb_echo_64k",
];

/// How one run is laid out. The seed drives priority and band draws
/// and payload bytes; the program under test sees only the generated
/// inputs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Untimed: lets lazy scope/pool set-up and thread spawning finish.
    pub warm_s: f64,
    /// The run alternates latency and saturation slices this many
    /// times. The box slows down for seconds at a time; alternating lets
    /// both kinds of slice sample the whole run, so that both find its
    /// quiet stretches, where one of two long phases could lie wholly
    /// inside a slow one.
    pub rounds: usize,
    /// One latency slice: open loop at the workload's fixed rate
    /// (closed loop, one caller, for `local_sync`).
    pub paced_s: f64,
    /// One saturation slice: throughput, CPU and allocations per op.
    pub sat_s: f64,
}

impl Plan {
    /// One round per whole second of `seconds` (at least two), each
    /// split 7 : 5 between latency and saturation (the issue's 12 + 5
    /// windows scaled to the run-time cap), after a warm-up of an
    /// eighth of the run.
    pub fn for_seconds(seed: u64, seconds: f64) -> Plan {
        let rounds = (seconds.floor() as usize).max(2);
        let round_s = seconds / rounds as f64;
        Plan {
            seed,
            warm_s: seconds / 8.0,
            rounds,
            paced_s: round_s * 7.0 / 12.0,
            sat_s: round_s * 5.0 / 12.0,
        }
    }
}

/// One saturation slice, opened and closed by the generator thread that
/// counts its completions.
pub struct Slice {
    opened_ns: u64,
    end_ns: u64,
    count0: u64,
    allocs0: u64,
}

/// A closed [`Slice`].
#[derive(Debug, Clone, Copy)]
pub struct SliceCost {
    ns: u64,
    completions: u64,
    allocs: u64,
}

impl SliceCost {
    pub fn completions(&self) -> u64 {
        self.completions
    }
}

impl Slice {
    /// Opens a slice of `secs` at completion count `count`.
    pub fn open(secs: f64, count: u64) -> Slice {
        let opened_ns = now_ns();
        Slice {
            opened_ns,
            end_ns: opened_ns + (secs * 1e9) as u64,
            count0: count,
            allocs0: meter::allocs(),
        }
    }

    pub fn over(&self, now: u64) -> bool {
        now >= self.end_ns
    }

    /// When the slice is over, for generator threads other than the one
    /// that closes it.
    pub fn end_ns(&self) -> u64 {
        self.end_ns
    }

    /// Closes the slice at completion count `count`.
    pub fn close(self, now: u64, count: u64) -> SliceCost {
        SliceCost {
            ns: (now - self.opened_ns).max(1),
            completions: count - self.count0,
            allocs: meter::allocs() - self.allocs0,
        }
    }
}

/// The saturation phase of a run: its slices' completion rates, and the
/// heap allocations of all of them.
#[derive(Debug, Default)]
pub struct Saturation {
    slices: Vec<SliceCost>,
}

impl Saturation {
    pub fn with_capacity(slices: usize) -> Saturation {
        Saturation {
            slices: Vec::with_capacity(slices),
        }
    }

    pub fn push(&mut self, slice: SliceCost) {
        self.slices.push(slice);
    }

    pub fn extend(&mut self, other: Saturation) {
        self.slices.extend(other.slices);
    }

    fn rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .map(|s| s.completions as f64 / (s.ns as f64 / 1e9))
            .collect()
    }

    /// Completions per second in the quietest slice (see
    /// [`crate::stats::LatencySummary`] for why not the median one).
    pub fn rate_per_s(&self) -> f64 {
        self.rates().into_iter().fold(0.0, f64::max)
    }

    /// Heap allocations of the whole phase per completion.
    pub fn allocs_per_op(&self) -> f64 {
        let ops = self.slices.iter().map(|s| s.completions).sum::<u64>();
        self.slices.iter().map(|s| s.allocs).sum::<u64>() as f64 / ops.max(1) as f64
    }

    /// Prints the median slice's rate and each slice's beside the best.
    pub fn note(&self) {
        let rates = self.rates();
        let listed: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
        println!(
            "# note: saturation over {} slices: best {:.0} ops/s, median {:.0} ops/s; each: {}",
            rates.len(),
            self.rate_per_s(),
            crate::stats::median(&rates),
            listed.join(" ")
        );
    }
}

/// Every how many ops a generator thread reads its CPU clock around the
/// call into the system: seldom enough to leave the median latency
/// alone (the reading delays the op by a fraction of a microsecond).
const CPU_SAMPLE_EVERY: u64 = 16;

/// What one generator thread's CPU time went on during a latency slice.
/// Most of it is the harness's — the thread busy-waits for each due
/// time — but the call that issues an op runs part of the system on the
/// generator's thread (`send`'s caller side, the ORB client's component
/// pipeline). That part is sampled: every sixteenth call is bracketed by
/// two readings of the thread's CPU clock, which do not count the time
/// the thread was preempted inside the call.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorCpu {
    /// CPU clock of the thread at `open`, then its CPU time at `close`.
    thread_ns: u64,
    ops: u64,
    sampled_ns: u64,
    sampled: u64,
}

impl GeneratorCpu {
    /// Starts the ledger of the calling thread.
    pub fn open() -> GeneratorCpu {
        meter::thread_clock_cost_ns(); // calibrated before anything is timed
        GeneratorCpu {
            thread_ns: meter::thread_cpu_ns(),
            ops: 0,
            sampled_ns: 0,
            sampled: 0,
        }
    }

    /// Issues op `i` through `call`.
    pub fn issue<R>(&mut self, i: u64, call: impl FnOnce() -> R) -> R {
        self.ops += 1;
        if !i.is_multiple_of(CPU_SAMPLE_EVERY) {
            return call();
        }
        let c0 = meter::thread_cpu_ns();
        let out = call();
        let spent = meter::thread_cpu_ns() - c0;
        self.sampled_ns += spent.saturating_sub(meter::thread_clock_cost_ns());
        self.sampled += 1;
        out
    }

    /// Ends the ledger; from the same thread as `open`.
    pub fn close(mut self) -> GeneratorCpu {
        self.thread_ns = meter::thread_cpu_ns() - self.thread_ns;
        self
    }

    /// CPU time of the thread's calls into the system, from the sample.
    fn calls_ns(&self) -> f64 {
        self.sampled_ns as f64 / self.sampled.max(1) as f64 * self.ops as f64
    }
}

/// What one open-loop slice of a one-way pipeline issued and cost.
pub struct Paced {
    pub sched: crate::pacer::Schedule,
    /// Ops issued.
    pub n: u64,
    /// CPU time of the whole process over the slice, drain included.
    pub process_ns: u64,
    pub generator: GeneratorCpu,
}

/// CPU time the system under test spent per op in each latency slice:
/// the process's, less its generator threads', plus those threads' calls
/// into the system. Taken at the workload's fixed rate and not at
/// saturation: there every thread shares one CPU that is never idle, so
/// CPU time per op is the inverse of the throughput and says nothing of
/// its own.
#[derive(Debug, Default)]
pub struct SystemCpu {
    /// µs per op, one per slice.
    slices: Vec<f64>,
}

impl SystemCpu {
    /// Adds a slice in which the process used `process_ns` of CPU time
    /// and `ops` ops completed.
    pub fn add(&mut self, process_ns: u64, generators: &[GeneratorCpu], ops: u64) {
        let harness: f64 = generators
            .iter()
            .map(|g| g.thread_ns as f64 - g.calls_ns())
            .sum();
        self.slices
            .push((process_ns as f64 - harness) / 1e3 / ops.max(1) as f64);
    }

    pub fn extend(&mut self, other: SystemCpu) {
        self.slices.extend(other.slices);
    }

    /// µs per op in the cheapest slice (see
    /// [`crate::stats::LatencySummary`] for why not the median one).
    pub fn us_per_op(&self) -> f64 {
        self.slices.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Prints the median slice's cost and each slice's beside the best.
    pub fn note(&self) {
        let listed: Vec<String> = self.slices.iter().map(|c| format!("{c:.2}")).collect();
        println!(
            "# note: system CPU time per op over {} slices: best {:.3} us, median {:.3} us; each: {}",
            self.slices.len(),
            self.us_per_op(),
            crate::stats::median(&self.slices),
            listed.join(" ")
        );
    }
}

/// Result of one untraced run of a workload (everything end-to-end
/// except `setup_s` and `peak_rss_mb`, which belong to the process).
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks; one `false` fails the run.
    pub checks: Vec<(&'static str, bool)>,
    /// Nanoseconds.
    pub latency: LatencySummary,
    pub saturation: Saturation,
    pub cpu: SystemCpu,
    /// `(parks, spins)` of every `rtsched` queue per completed op, from
    /// the metrics texts: which wake regime the run was in.
    pub transitions_per_op: (f64, f64),
}

/// Park and spin transitions between two metrics texts, per op.
pub fn transitions_per_op(before: &str, after: &str, ops: u64) -> (f64, f64) {
    let per_op = |kind| {
        (sum_transitions(after, kind) - sum_transitions(before, kind)) as f64 / ops.max(1) as f64
    };
    (per_op("park"), per_op("spin"))
}

/// Result of one traced pass of a workload.
#[derive(Default)]
pub struct Traced {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer metrics this pass measured, by catalogue name.
    pub layer: BTreeMap<&'static str, f64>,
    pub spans: SpanSet,
}

impl Traced {
    /// The pass's health numbers, from the latencies of its untraced
    /// and traced ops and the sum of the span p50s along the blocking
    /// path: `bench.latency_p99_us` (reported from here because it is
    /// too unsteady from run to run to be an end-to-end metric),
    /// `bench.trace_coverage` and `bench.trace_overhead_share`.
    pub fn insert_health(&mut self, plain: &mut [u64], traced: &mut [u64], path_ns: f64) {
        let untraced_p50 = crate::stats::p50(plain); // sorts `plain`
        self.layer.insert(
            "bench.latency_p99_us",
            crate::stats::percentile(plain, 99.0) as f64 / 1e3,
        );
        self.layer
            .insert("bench.trace_coverage", path_ns / untraced_p50);
        self.layer.insert(
            "bench.trace_overhead_share",
            crate::stats::p50(traced) / untraced_p50 - 1.0,
        );
    }

    /// `rtsched.parks_per_op` and `rtsched.spins_per_op` from the
    /// metrics texts taken before and after `ops` ops.
    pub fn insert_transitions(&mut self, before: &str, after: &str, ops: u64) {
        let (parks, spins) = transitions_per_op(before, after, ops);
        self.layer.insert("rtsched.parks_per_op", parks);
        self.layer.insert("rtsched.spins_per_op", spins);
    }
}

/// Latencies of a paced slice from the handler-entry time of each of
/// its ops, in schedule order (0 marks an op that never arrived and has
/// none): entry time − due time.
pub fn latencies(entered: &[u64], sched: &crate::pacer::Schedule) -> Vec<u64> {
    entered
        .iter()
        .enumerate()
        .filter(|(_, &at)| at != 0)
        .map(|(i, &at)| at.saturating_sub(sched.due_ns(i as u64)))
        .collect()
}

/// Lateness of the generator itself: p99 of issue time minus due time.
pub fn lag_p99_us(lag_ns: &mut [u64]) -> f64 {
    lag_ns.sort_unstable();
    crate::stats::percentile(lag_ns, 99.0) as f64 / 1e3
}

/// Prints how late an untraced run's generator issued its ops; a lag
/// near the inter-arrival time means the latencies describe the
/// generator, not the system.
pub fn note_lag(lag_ns: &mut [u64]) {
    if !lag_ns.is_empty() {
        lag_ns.sort_unstable();
        println!(
            "# note: generator lag p50 {:.3} us, p99 {:.3} us, max {:.3} us over {} ops",
            crate::stats::percentile(lag_ns, 50.0) as f64 / 1e3,
            crate::stats::percentile(lag_ns, 99.0) as f64 / 1e3,
            lag_ns[lag_ns.len() - 1] as f64 / 1e3,
            lag_ns.len()
        );
    }
}

/// Sum of every `rtsched_*_<kind>_transitions_total` counter in a
/// Prometheus-style metrics text.
pub fn sum_transitions(metrics_text: &str, kind: &str) -> u64 {
    let suffix = format!("_{kind}_transitions_total");
    metrics_text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            (name.starts_with("rtsched_") && name.ends_with(&suffix))
                .then(|| value.trim().parse::<u64>().ok())?
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_alternates_one_round_per_second() {
        let p = Plan::for_seconds(3, 12.0);
        assert_eq!((p.seed, p.rounds), (3, 12));
        assert!((p.paced_s - 7.0 / 12.0).abs() < 1e-9 && (p.sat_s - 5.0 / 12.0).abs() < 1e-9);
        assert!((p.rounds as f64 * (p.paced_s + p.sat_s) - 12.0).abs() < 1e-9);
        let quick = Plan::for_seconds(1, 2.4);
        assert_eq!(quick.rounds, 2);
        assert!((quick.paced_s + quick.sat_s - 1.2).abs() < 1e-9);
        assert_eq!(Plan::for_seconds(1, 0.5).rounds, 2);
    }

    #[test]
    fn saturation_takes_the_best_rate_and_all_the_allocations() {
        let slice = |completions, allocs| SliceCost {
            ns: 500_000_000,
            completions,
            allocs,
        };
        let mut sat = Saturation::with_capacity(3);
        sat.push(slice(1000, 3000));
        sat.push(slice(400, 1200)); // a disturbed slice
        sat.push(slice(1100, 3300));
        assert_eq!(sat.rate_per_s(), 2200.0);
        assert_eq!(sat.allocs_per_op(), 3.0);
        let s = Slice::open(0.0, 7);
        assert!(s.over(now_ns()) && s.end_ns() <= now_ns());
        let boxed = std::hint::black_box(Box::new(5u64));
        let cost = s.close(now_ns(), 10);
        // (Other tests allocate meanwhile: the counter is the process's.)
        assert!(cost.allocs >= 1 && *boxed == 5);
        assert_eq!(cost.completions(), 3);
    }

    #[test]
    fn system_cpu_is_the_processs_less_the_generators_own() {
        // 100 ms of process CPU in a slice; the generator thread used
        // 80 ms, of which its 1600 calls (100 of them sampled at 5 µs)
        // were 8 ms: the system used 20 + 8 ms for 1600 ops.
        let g = GeneratorCpu {
            thread_ns: 80_000_000,
            ops: 1600,
            sampled_ns: 500_000,
            sampled: 100,
        };
        let mut cpu = SystemCpu::default();
        cpu.add(100_000_000, &[g], 1600);
        assert!((cpu.us_per_op() - 17.5).abs() < 1e-9);
        // The cheapest slice is the one reported.
        cpu.add(32_000_000, &[], 1600);
        cpu.add(24_000_000, &[], 1600);
        assert!((cpu.us_per_op() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn a_generators_ledger_samples_every_sixteenth_call() {
        let mut g = GeneratorCpu::open();
        let spin = || {
            let t = now_ns();
            while now_ns() - t < 200_000 {
                std::hint::spin_loop();
            }
        };
        for i in 0..32 {
            g.issue(i, spin);
        }
        let g = g.close();
        assert_eq!((g.ops, g.sampled), (32, 2));
        // 32 calls of 0.2 ms: the sample says so within what a shared
        // test machine allows, and the thread's clock saw them all.
        assert!(g.thread_ns >= 3_000_000, "{g:?}");
        assert!((3_000_000.0..=8_000_000.0).contains(&g.calls_ns()), "{g:?}");
    }

    #[test]
    fn transitions_are_summed_over_every_pool() {
        let text = "# TYPE x counter\n\
                    rtsched_stage_in_park_transitions_total 7\n\
                    rtsched_sink_in_park_transitions_total 5\n\
                    rtsched_sink_in_spin_transitions_total 100\n\
                    compadres_messages_sent_total 9\n";
        assert_eq!(sum_transitions(text, "park"), 12);
        assert_eq!(sum_transitions(text, "spin"), 100);
        assert_eq!(sum_transitions("", "park"), 0);
    }
}
