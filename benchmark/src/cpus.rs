//! Where threads run. On the reference box (a 2-vCPU virtual machine) a
//! wake-up that crosses CPUs goes through the hypervisor: it costs
//! 20–40 µs where a wake-up on the same CPU is a context switch of a
//! microsecond or two, and what it costs changes from one run to the
//! next by more than any bound the benchmark may store (see the README's
//! *Noise*). So the runs whose figures are gated pin the system under
//! test *and* its generator, which yields while it waits, to one CPU:
//! the numbers are costs per core, and no parallel speed-up is claimed.
//! Only `local_overload`, whose handler saturates its CPU by design,
//! always gives the generator a CPU of its own.
//!
//! The other regime is kept in sight: with [`split_generators`] on, every
//! generator thread (with whatever part of the system runs on the
//! caller's thread) moves to a CPU of its own, so that each message
//! crosses CPUs when it is handed to a worker — the wake-up the `Gate`
//! and the park policies exist for. A traced run makes one short pass
//! like that and reports it as `bench.split_*`.
//!
//! Threads inherit the affinity of their spawner, so the main thread is
//! pinned to the system's CPU before anything is built and moves away
//! only while it generates load; thread pools are grown by a burst
//! before it moves. `std` has no affinity call, so the libc functions
//! are declared here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Bits in the CPU masks passed to the kernel (a `cpu_set_t` is 1024).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn setpriority(which: i32, who: u32, prio: i32) -> i32;
}

/// Gives the calling thread, and every thread it spawns from now on,
/// the strongest time-sharing weight (`nice -20`), so that a stray
/// process landing on the system's CPU takes a hundredth of it instead
/// of half. All threads of the run get the same weight, so nothing
/// changes between them. Needs privilege; without it nothing happens.
pub fn favour_this_process() {
    const PRIO_PROCESS: i32 = 0;
    // SAFETY: plain integer arguments; `who` 0 names the calling thread.
    // A refusal leaves the priority as it was.
    let _ = unsafe { setpriority(PRIO_PROCESS, 0, -20) };
}

/// The CPUs this process may run on, as found at start-up.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

fn pin_to(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread. A refusal (a sandbox may forbid
    // the call) leaves the thread where it was, which is safe.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

/// Pins the calling thread, and every thread it spawns from now on, to
/// the one CPU the system under test runs on: the last allowed one
/// (the first usually also serves the machine's interrupts).
pub fn enter_system() {
    if let Some(cpu) = allowed().last() {
        pin_to(&[*cpu]);
    }
}

static SPLIT: AtomicBool = AtomicBool::new(false);

/// Whether generator threads get a CPU of their own from now on.
pub fn split_generators(on: bool) {
    SPLIT.store(on, Ordering::Relaxed);
}

/// Runs `f` on a CPU of the caller's own, the first allowed one, and
/// brings the calling thread back to the system's, so that whatever it
/// spawns next lands there. With a single CPU the thread stays put.
pub fn on_own_cpu<R>(f: impl FnOnce() -> R) -> R {
    if let [own, _, ..] = allowed() {
        pin_to(&[*own]);
    }
    let out = f();
    enter_system();
    out
}

/// For a thread that only generates load and ends where it is: moves it
/// to the generators' CPU if generators are split off.
pub fn enter_generator() {
    if let ([generator, _, ..], true) = (allowed(), SPLIT.load(Ordering::Relaxed)) {
        pin_to(&[*generator]);
    }
}

/// Runs `f` as a generator: on a CPU of its own if generators are split
/// off, where it stands otherwise.
pub fn as_generator<R>(f: impl FnOnce() -> R) -> R {
    if SPLIT.load(Ordering::Relaxed) {
        on_own_cpu(f)
    } else {
        f()
    }
}

/// The placement, for a run's notes.
pub fn describe() -> String {
    match allowed() {
        [] => "affinity unreadable, nothing pinned".into(),
        [only] => format!("everything on CPU {only}, the only one allowed"),
        cpus @ [first, .., last] => format!(
            "system under test and its generator on CPU {last}; a generator with a CPU of its \
             own (local_overload, bench.split_*) on CPU {first}; {} CPUs allowed",
            cpus.len()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn current() -> Vec<usize> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: as in `allowed`.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        assert_eq!(rc, 0);
        (0..MASK_WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    #[test]
    fn spawned_threads_inherit_the_system_cpu() {
        let cpus = allowed();
        let (Some(first), Some(last)) = (cpus.first(), cpus.last()) else {
            return; // affinity unreadable here: nothing to check
        };
        // On a thread of its own, so the test harness stays unpinned.
        std::thread::spawn(move || {
            enter_system();
            assert_eq!(current(), [*last]);
            let inherited = std::thread::spawn(current).join().unwrap();
            assert_eq!(inherited, [*last]);
            let own = if cpus.len() > 1 { *first } else { *last };
            assert_eq!(
                as_generator(current),
                [*last],
                "generators share by default"
            );
            assert_eq!(on_own_cpu(current), [own]);
            assert_eq!(current(), [*last], "back on the system's CPU");
        })
        .join()
        .unwrap();
        assert!(!describe().is_empty());
    }
}
