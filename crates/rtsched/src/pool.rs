//! Dynamic thread pools with message-priority inheritance.
//!
//! Each Compadres in-port is served by a thread pool sized between the CCL
//! `MinThreadpoolSize` and `MaxThreadpoolSize` values; a worker executing a
//! message assumes the message's priority (paper Section 2.2). A pool of
//! size 0/0 means the sender's thread executes the handler synchronously —
//! that mode lives in the framework, not here.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use rtobs::{CounterId, EventKind, GaugeId, HistId, Observer, SpanCtx};
use rtplatform::sync::Mutex;

use crate::priority::Priority;
use crate::queue::PriorityFifo;

/// A unit of work, queued by value (a task that is plain data reaches its
/// worker without touching the heap) and run once with the worker's
/// state, at the priority of the message that triggered it.
pub trait Task<S>: Send + 'static {
    /// Runs the task on a worker.
    fn run(self, state: &mut S, priority: Priority);
}

/// The boxed-closure task.
pub type Job<S> = Box<dyn FnOnce(&mut S, Priority) + Send + 'static>;

impl<S: 'static> Task<S> for Job<S> {
    fn run(self, state: &mut S, priority: Priority) {
        self(state, priority)
    }
}

/// Pool configuration, mirroring the CCL `PortAttributes` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Threads started eagerly and kept alive.
    pub min_threads: usize,
    /// Upper bound on concurrently live threads.
    pub max_threads: usize,
    /// Base priority of idle workers.
    pub idle_priority: Priority,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            min_threads: 1,
            max_threads: 4,
            idle_priority: Priority::MIN,
        }
    }
}

/// Observer hook shared by every worker of one pool, resolved once via
/// [`ThreadPool::set_observer`].
struct PoolObs {
    obs: Arc<Observer>,
    /// Flight-recorder subject for this pool's events.
    entity: u32,
    /// Queue depth right after each push (its HWM is the backlog peak).
    depth: GaugeId,
    busy: GaugeId,
    live: GaugeId,
    inherits: CounterId,
    /// Jobs drained per worker wakeup (batched dequeue win meter).
    batch: HistId,
    /// Base priority of idle workers; a job arriving above it is a
    /// priority-inheritance episode.
    idle_priority: Priority,
}

/// Jobs a worker drains per wakeup. One queue round-trip amortizes the
/// pop's park/notify handshake across up to this many jobs.
const DISPATCH_BATCH: usize = 8;

struct PoolShared<J> {
    /// Each task with the submitter's trace context.
    queue: PriorityFifo<(SpanCtx, J)>,
    live: AtomicUsize,
    /// Jobs accepted but not yet fully finished (queued or running).
    /// It has no gap between a worker popping a job and starting it —
    /// which "queue empty and nobody running" has — so
    /// [`ThreadPool::wait_idle`] observing zero really means quiescent,
    /// and [`ThreadPool::submit`] growing on it misses no job.
    pending: AtomicUsize,
    spawned_total: AtomicU64,
    executed: AtomicU64,
    panicked: AtomicU64,
    obs: OnceLock<PoolObs>,
}

/// A dynamic thread pool whose workers carry per-worker state of type `S`
/// (the framework uses this for each worker's memory-model context) and
/// run tasks of type `J` (boxed closures unless said otherwise).
///
/// Workers start at `min_threads`; when a job is submitted and every live
/// worker is busy, a new worker is spawned up to `max_threads`. Each job
/// runs at its message priority (priority inheritance). Worker panics are
/// contained and counted.
pub struct ThreadPool<S: Send + 'static, J: Task<S> = Job<S>> {
    shared: Arc<PoolShared<J>>,
    config: PoolConfig,
    factory: Arc<dyn Fn() -> S + Send + Sync>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl<S: Send + 'static, J: Task<S>> std::fmt::Debug for ThreadPool<S, J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("config", &self.config)
            .field("live", &self.live_threads())
            .field("queued", &self.shared.queue.len())
            .finish()
    }
}

impl<S: Send + 'static, J: Task<S>> ThreadPool<S, J> {
    /// Creates a pool; `factory` builds the per-worker state on the worker
    /// thread itself.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0` or `min_threads > max_threads`.
    pub fn new(config: PoolConfig, factory: impl Fn() -> S + Send + Sync + 'static) -> Self {
        assert!(config.max_threads > 0, "max_threads must be positive");
        assert!(
            config.min_threads <= config.max_threads,
            "min_threads must not exceed max_threads"
        );
        let pool = ThreadPool {
            shared: Arc::new(PoolShared {
                queue: PriorityFifo::new(),
                live: AtomicUsize::new(0),
                pending: AtomicUsize::new(0),
                spawned_total: AtomicU64::new(0),
                executed: AtomicU64::new(0),
                panicked: AtomicU64::new(0),
                obs: OnceLock::new(),
            }),
            config,
            factory: Arc::new(factory),
            handles: Mutex::new(Vec::new()),
        };
        for _ in 0..config.min_threads {
            pool.spawn_worker();
        }
        pool
    }

    fn spawn_worker(&self) {
        let shared = Arc::clone(&self.shared);
        let factory = Arc::clone(&self.factory);
        shared.live.fetch_add(1, Ordering::SeqCst);
        shared.spawned_total.fetch_add(1, Ordering::Relaxed);
        if let Some(o) = self.shared.obs.get() {
            o.obs.gauge_add(o.live, 1);
        }
        let handle = std::thread::Builder::new()
            .name("compadres-port-worker".into())
            .spawn(move || {
                let mut state = factory();
                loop {
                    // Batched dequeue: one (possibly parking) queue
                    // round-trip yields up to DISPATCH_BATCH jobs —
                    // but never more than this worker's fair share of
                    // the instantaneous backlog. Taking ≤ len/live
                    // leaves at least one queued job per other live
                    // worker, so a handler that blocks (e.g. on a
                    // barrier another queued job must satisfy) cannot
                    // hold its batch-mates hostage.
                    let live = shared.live.load(Ordering::SeqCst).max(1);
                    let fair = (shared.queue.len() / live).clamp(1, DISPATCH_BATCH);
                    let batch = shared.queue.pop_batch(fair);
                    if batch.is_empty() {
                        break;
                    }
                    if let Some(o) = shared.obs.get() {
                        o.obs.observe(o.batch, batch.len() as u64);
                    }
                    for (priority, (span, job)) in batch {
                        if let Some(o) = shared.obs.get() {
                            o.obs.gauge_add(o.busy, 1);
                            o.obs.gauge_set(o.depth, shared.queue.len() as u64);
                            if priority > o.idle_priority {
                                o.obs.inc(o.inherits);
                                o.obs.record(
                                    EventKind::PriorityInherit,
                                    o.entity,
                                    u64::from(priority.value()),
                                );
                            }
                        }
                        // Priority inheritance: run the handler at the
                        // message's priority, under the submitter's span.
                        crate::thread::with_priority(priority, || {
                            let outcome = catch_unwind(AssertUnwindSafe(|| {
                                rtobs::span::with_span(span, || job.run(&mut state, priority))
                            }));
                            if outcome.is_ok() {
                                shared.executed.fetch_add(1, Ordering::Relaxed);
                            } else {
                                shared.panicked.fetch_add(1, Ordering::Relaxed);
                                if let Some(o) = shared.obs.get() {
                                    o.obs.record(
                                        EventKind::HandlerPanic,
                                        o.entity,
                                        u64::from(priority.value()),
                                    );
                                }
                            }
                        });
                        shared.pending.fetch_sub(1, Ordering::SeqCst);
                        if let Some(o) = shared.obs.get() {
                            o.obs.gauge_sub(o.busy, 1);
                        }
                    }
                }
                shared.live.fetch_sub(1, Ordering::SeqCst);
                if let Some(o) = shared.obs.get() {
                    o.obs.gauge_sub(o.live, 1);
                }
            })
            .expect("failed to spawn pool worker");
        self.handles.lock().push(handle);
    }

    /// Attaches an observer: registers this pool as a flight-recorder
    /// entity plus `rtsched_<name>_*` depth/busy/live gauges and a
    /// priority-inheritance counter. Call once, right after
    /// construction; later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>, name: &str) {
        let hook = PoolObs {
            obs: Arc::clone(obs),
            entity: obs.register_entity(&format!("pool:{name}")),
            depth: obs.gauge(&format!("rtsched_{name}_queue_depth")),
            busy: obs.gauge(&format!("rtsched_{name}_busy_workers")),
            live: obs.gauge(&format!("rtsched_{name}_live_workers")),
            inherits: obs.counter(&format!("rtsched_{name}_priority_inherits_total")),
            batch: obs.histogram(&format!("rtsched_{name}_dispatch_batch_size")),
            idle_priority: self.config.idle_priority,
        };
        // The queue reports its own spin→park transitions.
        self.shared.queue.set_observer(
            obs,
            obs.counter(&format!("rtsched_{name}_spin_transitions_total")),
            obs.counter(&format!("rtsched_{name}_park_transitions_total")),
        );
        // Workers spawned before attachment (min_threads) are folded in.
        hook.obs
            .gauge_set(hook.live, self.shared.live.load(Ordering::SeqCst) as u64);
        let _ = self.shared.obs.set(hook);
    }

    /// Submits a task at `priority`. Grows the pool if all workers are
    /// busy and the maximum has not been reached. Returns `false` after
    /// [`ThreadPool::shutdown`].
    ///
    /// The submitter's trace context ([`rtobs::span::current`]) is
    /// queued with the task and re-installed around it on the worker, so
    /// a traced invocation survives the thread handoff.
    pub fn submit(&self, priority: Priority, job: J) -> bool {
        if self.shared.queue.is_closed() {
            return false;
        }
        // Grow when the jobs in the pool would occupy every live worker.
        // Counted from `pending`, like `wait_idle`: a job a worker has
        // popped but not yet started is neither queued nor running.
        let live = self.shared.live.load(Ordering::SeqCst);
        let pending = self.shared.pending.load(Ordering::SeqCst);
        if pending >= live && live < self.config.max_threads {
            self.spawn_worker();
        }
        self.shared.pending.fetch_add(1, Ordering::SeqCst);
        let item = (rtobs::span::current(), job);
        match self.shared.queue.push_with_len(priority, item) {
            Some(len) => {
                if let Some(o) = self.shared.obs.get() {
                    // gauge_set tracks the HWM: the backlog peak.
                    o.obs.gauge_set(o.depth, len as u64);
                }
                true
            }
            None => {
                self.shared.pending.fetch_sub(1, Ordering::SeqCst);
                false
            }
        }
    }

    /// Number of currently live worker threads.
    pub fn live_threads(&self) -> usize {
        self.shared.live.load(Ordering::SeqCst)
    }

    /// Number of jobs that ran to completion. A job whose handler
    /// panicked counts in [`ThreadPool::panicked`], not here.
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Number of jobs whose handler panicked (contained).
    pub fn panicked(&self) -> u64 {
        self.shared.panicked.load(Ordering::Relaxed)
    }

    /// Total workers spawned over the pool's lifetime.
    pub fn spawned_total(&self) -> u64 {
        self.shared.spawned_total.load(Ordering::Relaxed)
    }

    /// Drains outstanding jobs and joins all workers.
    pub fn shutdown(&self) {
        self.shared.queue.close();
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Waits until every accepted job has fully finished (for tests and
    /// benchmarks). Checks the `pending` count, not "queue empty and
    /// nobody running": a job is invisible to both of those for an
    /// instant between a worker popping it and starting it.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.shared.pending.load(Ordering::SeqCst) == 0 {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }
}

impl<S: Send + 'static> ThreadPool<S> {
    /// Submits a closure at `priority`; see [`ThreadPool::submit`].
    pub fn execute(
        &self,
        priority: Priority,
        job: impl FnOnce(&mut S, Priority) + Send + 'static,
    ) -> bool {
        self.submit(priority, Box::new(job))
    }
}

impl<S: Send + 'static, J: Task<S>> Drop for ThreadPool<S, J> {
    fn drop(&mut self) {
        self.shared.queue.close();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn executes_jobs_with_state() {
        let counter = Arc::new(AtomicU32::new(0));
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 2,
                max_threads: 4,
                ..Default::default()
            },
            || 0u32,
        );
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(Priority::NORM, move |state, _| {
                *state += 1;
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.executed(), 100);
    }

    #[test]
    fn grows_up_to_max() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 3,
                ..Default::default()
            },
            || (),
        );
        // Jobs block until the gate opens — which it does when `opener`
        // drops, on every way out of this test, so a failed assertion
        // cannot leave the pool's `Drop` joining parked workers forever.
        struct Opener(Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>);
        impl Drop for Opener {
            fn drop(&mut self) {
                if let Ok(mut open) = self.0 .0.lock() {
                    *open = true;
                }
                self.0 .1.notify_all();
            }
        }
        let opener = Opener(Arc::default());
        for _ in 0..3 {
            let gate = Arc::clone(&opener.0);
            pool.execute(Priority::NORM, move |_, _| {
                let mut open = gate.0.lock().unwrap();
                while !*open {
                    open = gate.1.wait(open).unwrap();
                }
            });
        }
        // All three jobs block on the gate; the pool must grow to 3.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.live_threads() < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(pool.live_threads(), 3);
        drop(opener);
        assert!(pool.wait_idle(Duration::from_secs(5)));
    }

    #[test]
    fn job_priority_is_inherited() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        pool.execute(Priority::new(42), move |_, p| {
            s.lock().push((p, crate::thread::current_priority()));
        });
        assert!(pool.wait_idle(Duration::from_secs(5)));
        let v = seen.lock();
        assert_eq!(v[0].0, Priority::new(42));
        assert_eq!(v[0].1, Priority::new(42));
    }

    #[test]
    fn panicking_job_is_contained() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        pool.execute(Priority::NORM, |_, _| panic!("handler bug"));
        let done = Arc::new(AtomicU32::new(0));
        let d = Arc::clone(&done);
        pool.execute(Priority::NORM, move |_, _| {
            d.store(1, Ordering::SeqCst);
        });
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.panicked(), 1);
        assert_eq!(done.load(Ordering::SeqCst), 1, "pool survived the panic");
    }

    #[test]
    fn panic_accounting_is_consistent() {
        // Regression: a panicking job used to count in `executed` too,
        // so executed + panicked over-reported total jobs by one each.
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        let obs = Observer::new();
        pool.set_observer(&obs, "reg");
        pool.execute(Priority::NORM, |_, _| {});
        pool.execute(Priority::NORM, |_, _| panic!("boom"));
        pool.execute(Priority::NORM, |_, _| {});
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.executed(), 2, "only successful jobs count as executed");
        assert_eq!(pool.panicked(), 1);
        assert_eq!(
            pool.executed() + pool.panicked(),
            3,
            "every job accounted exactly once"
        );
        let panics: Vec<_> = obs
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::HandlerPanic)
            .collect();
        assert_eq!(panics.len(), 1, "panic shows up in the flight recorder");
        assert_eq!(obs.entity_name(panics[0].subject), "pool:reg");
    }

    #[test]
    fn observer_sees_inheritance_and_depth() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                idle_priority: Priority::new(5),
            },
            || (),
        );
        let obs = Observer::new();
        pool.set_observer(&obs, "acq");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(Priority::new(5), move |_, _| {
            g.wait();
        });
        // Queued behind the blocked worker: backlog reaches 2.
        pool.execute(Priority::new(40), |_, _| {});
        pool.execute(Priority::new(60), |_, _| {});
        gate.wait();
        assert!(pool.wait_idle(Duration::from_secs(5)));
        let depth = obs.gauge("rtsched_acq_queue_depth");
        assert!(obs.gauge_hwm(depth) >= 2, "backlog peak captured in HWM");
        let inherits = obs.counter("rtsched_acq_priority_inherits_total");
        assert_eq!(
            obs.counter_value(inherits),
            2,
            "both above-idle jobs inherited"
        );
        assert!(obs
            .events()
            .iter()
            .any(|e| e.kind == EventKind::PriorityInherit && e.payload == 60));
    }

    #[test]
    fn wait_idle_stays_exact_with_batched_dequeue() {
        // Regression for the PR-1 `pending` accounting: a worker that
        // drained a whole batch must not let wait_idle return while any
        // job of that batch is still queued inside the worker. Each job
        // bumps a counter; if wait_idle ever returned early the final
        // assert would race and fail.
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 2,
                ..Default::default()
            },
            || (),
        );
        let counter = Arc::new(AtomicU32::new(0));
        for round in 0..50 {
            let n = 1 + (round % (2 * DISPATCH_BATCH as u32 + 3));
            for _ in 0..n {
                let c = Arc::clone(&counter);
                pool.execute(Priority::NORM, move |_, _| {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            assert!(pool.wait_idle(Duration::from_secs(5)));
            let done = counter.load(Ordering::SeqCst);
            let expected: u32 = (0..=round)
                .map(|r| 1 + (r % (2 * DISPATCH_BATCH as u32 + 3)))
                .sum();
            assert_eq!(done, expected, "wait_idle returned with jobs in flight");
        }
    }

    #[test]
    fn dispatch_batch_histogram_records_drains() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        let obs = Observer::new();
        pool.set_observer(&obs, "batch");
        let gate = Arc::new(std::sync::Barrier::new(2));
        let g = Arc::clone(&gate);
        pool.execute(Priority::NORM, move |_, _| {
            g.wait();
        });
        // Pile up a backlog behind the blocked worker so the next drain
        // is an actual batch.
        for _ in 0..DISPATCH_BATCH {
            pool.execute(Priority::NORM, |_, _| {});
        }
        gate.wait();
        assert!(pool.wait_idle(Duration::from_secs(5)));
        let snap = obs.hist_snapshot(obs.histogram("rtsched_batch_dispatch_batch_size"));
        assert!(snap.count >= 2, "at least two drains recorded");
        assert!(
            snap.max >= 2,
            "some drain took more than one job, got max {}",
            snap.max
        );
        assert_eq!(
            snap.sum,
            1 + DISPATCH_BATCH as u64,
            "histogram sum equals total jobs drained"
        );
    }

    #[test]
    fn submitter_span_crosses_the_thread_handoff() {
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        let obs = Observer::new();
        let span = obs.new_trace(Some(1_000_000));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let s = Arc::clone(&seen);
        rtobs::span::with_span(span, || {
            pool.execute(Priority::NORM, move |_, _| {
                s.lock().push(rtobs::span::current());
            });
        });
        // Outside the scope, an untraced submission stays untraced.
        let s2 = Arc::clone(&seen);
        pool.execute(Priority::NORM, move |_, _| {
            s2.lock().push(rtobs::span::current());
        });
        assert!(pool.wait_idle(Duration::from_secs(5)));
        let v = seen.lock();
        assert_eq!(v[0], span, "worker ran under the submitter's span");
        assert_eq!(v[1], rtobs::SpanCtx::NONE, "no residue on the worker");
    }

    /// A data task: what it saw is logged into the worker state, which
    /// every worker shares.
    #[derive(Clone, Copy)]
    enum Probe {
        Record(u32),
        Panic,
    }

    type Log = Arc<Mutex<Vec<(u32, Priority, Priority, rtobs::SpanCtx)>>>;

    impl Task<Log> for Probe {
        fn run(self, log: &mut Log, priority: Priority) {
            match self {
                Probe::Record(tag) => log.lock().push((
                    tag,
                    priority,
                    crate::thread::current_priority(),
                    rtobs::span::current(),
                )),
                Probe::Panic => panic!("handler bug"),
            }
        }
    }

    #[test]
    fn a_data_task_pool_keeps_the_closure_pools_guarantees() {
        let log: Log = Arc::default();
        let l = Arc::clone(&log);
        let pool: ThreadPool<Log, Probe> = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            move || Arc::clone(&l),
        );
        let obs = Observer::new();
        let span = obs.new_trace(Some(1_000_000));
        assert!(rtobs::span::with_span(span, || {
            pool.submit(Priority::new(42), Probe::Record(1))
        }));
        assert!(pool.submit(Priority::NORM, Probe::Panic));
        assert!(pool.submit(Priority::NORM, Probe::Record(2)));
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(pool.panicked(), 1);
        assert_eq!(pool.executed(), 2, "the worker survived the panic");
        assert_eq!(pool.live_threads(), 1);
        let mut v = log.lock().clone();
        v.sort_by_key(|e| e.0);
        assert_eq!(
            v,
            vec![
                (1, Priority::new(42), Priority::new(42), span),
                (2, Priority::NORM, Priority::NORM, rtobs::SpanCtx::NONE),
            ],
            "priority inherited, submitter span carried, no residue"
        );
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let pool = ThreadPool::new(PoolConfig::default(), || ());
        pool.shutdown();
        assert!(!pool.execute(Priority::NORM, |_, _| {}));
        assert_eq!(pool.live_threads(), 0);
    }

    #[test]
    fn high_priority_jobs_run_first() {
        // Single worker; queue several jobs while it is blocked, then check
        // execution order respects priority.
        let pool = ThreadPool::new(
            PoolConfig {
                min_threads: 1,
                max_threads: 1,
                ..Default::default()
            },
            || (),
        );
        let gate = Arc::new(std::sync::Barrier::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let g = Arc::clone(&gate);
        pool.execute(Priority::NORM, move |_, _| {
            g.wait(); // entered: the worker's batch is this job alone
            g.wait();
        });
        // Queue the rest only once the worker is inside the blocker:
        // a batch is popped in priority order, but a job that rode in
        // the blocker's batch would run before later, higher arrivals.
        gate.wait();
        for (pr, tag) in [(1u8, "low"), (90, "high"), (40, "mid")] {
            let o = Arc::clone(&order);
            pool.execute(Priority::new(pr), move |_, _| o.lock().push(tag));
        }
        gate.wait();
        assert!(pool.wait_idle(Duration::from_secs(5)));
        assert_eq!(*order.lock(), vec!["high", "mid", "low"]);
    }
}
