//! Process-level meters behind `allocs_per_op`, `cpu_us_per_op` and
//! `peak_rss_mb`: a counting global allocator, the kernel's CPU-time
//! clocks and two `/proc` readers. The allocator and the process clock
//! see the whole process — generator threads, the in-process server and
//! the harness itself — so the harness keeps its own measured phases
//! free of allocation, and takes its generator threads' CPU time off
//! the process's (`workloads::GeneratorCpu`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts every call that hands
/// out memory (`alloc`, `alloc_zeroed`, `realloc`).
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this wrapper and the
        // caller's obligations pass through unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations made by the process so far, all threads.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `std` has no CPU-time clock; `/proc/self/stat` has one, in ticks of
/// 10 ms, a fortieth of a slice. These are the kernel's own counters,
/// in nanoseconds.
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a writable `timespec` (two C longs on Linux) and
    // both clock ids are valid for the calling process and thread.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "the CPU-time clocks exist on Linux");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// User + system CPU time of this process, all threads, in ns.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// The same for the calling thread alone.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// What two readings of the thread's clock around nothing differ by:
/// the part of the two system calls that falls between them. Measured
/// once (median of 1001 pairs), taken off every bracketed call.
pub fn thread_clock_cost_ns() -> u64 {
    static COST: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..1001)
            .map(|_| {
                let c0 = thread_cpu_ns();
                thread_cpu_ns() - c0
            })
            .collect();
        pairs.sort_unstable();
        pairs[pairs.len() / 2]
    })
}

/// `/proc` counts in USER_HZ ticks, fixed at 100 per second on every
/// mainstream architecture; std offers no `sysconf`.
const TICKS_PER_SEC: u64 = 100;

/// The `steal` column of the first (all CPUs) line of `/proc/stat`, in
/// clock ticks: time the host ran something else while this machine
/// had work to do.
pub fn parse_steal_ticks(stat: &str) -> Option<u64> {
    let mut fields = stat.lines().next()?.split_whitespace();
    (fields.next()? == "cpu").then_some(())?;
    // user nice system idle iowait irq softirq steal
    fields.nth(7)?.parse().ok()
}

/// Seconds of CPU time the host has stolen from this machine since it
/// booted, all CPUs together; 0 where `/proc/stat` does not say.
pub fn stolen_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_SEC as f64)
}

/// The `VmHWM` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    parse_vm_hwm_kib(&status).expect("/proc/self/status has VmHWM") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_allocator_reads_back_exactly_n() {
        // The counter is process-wide and libtest runs other tests on
        // other threads, so take the smallest delta of several tries:
        // interference only ever adds.
        const N: u64 = 1000;
        let mut best = u64::MAX;
        for _ in 0..20 {
            let mut keep: Vec<Box<u64>> = Vec::with_capacity(N as usize);
            let before = allocs();
            for i in 0..N {
                keep.push(Box::new(std::hint::black_box(i)));
            }
            best = best.min(allocs() - before);
            drop(keep);
        }
        assert_eq!(best, N);
    }

    #[test]
    fn steal_column_of_the_all_cpus_line() {
        let stat = "cpu  700247 0 390335 1549782 4498 0 30170 10688 0 0\n\
                    cpu0 161520 0 132466 1032263 3748 0 8737 4204 0 0\n";
        assert_eq!(parse_steal_ticks(stat), Some(10688));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_steal_ticks("cpu 1 2 3"), None);
        assert!(stolen_s() >= 0.0);
    }

    #[test]
    fn vm_hwm_line() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tbench\n"), None);
    }

    #[test]
    fn cpu_clocks_tell_this_thread_from_the_process() {
        assert!(peak_rss_mib() > 0.5);
        let spin = || {
            let t = std::time::Instant::now();
            let c0 = thread_cpu_ns();
            while t.elapsed() < std::time::Duration::from_millis(60) {
                std::hint::spin_loop();
            }
            thread_cpu_ns() - c0
        };
        let (mine0, all0) = (thread_cpu_ns(), process_cpu_ns());
        let theirs = std::thread::spawn(spin).join().unwrap();
        assert!(theirs >= 30_000_000, "the spinner's own clock saw it spin");
        assert!(
            thread_cpu_ns() - mine0 <= 20_000_000,
            "the joiner slept meanwhile"
        );
        assert!(process_cpu_ns() - all0 >= theirs, "the process did both");
        assert!(thread_clock_cost_ns() < 100_000);
    }
}
