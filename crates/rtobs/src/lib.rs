//! # rtobs — zero-steady-state-allocation observability
//!
//! The Compadres paper (Hu et al., MIDDLEWARE 2007) evaluates the
//! framework purely from the outside — latency and jitter tables. This
//! crate gives the reproduction a view from the *inside* without
//! betraying the property those tables measure: once an [`Observer`] is
//! built, the instrumented hot paths allocate nothing and take no locks,
//! matching the RTSJ no-GC-in-steady-state discipline.
//!
//! Three pieces:
//!
//! * [`Journal`] — a lock-free fixed-capacity ring of typed [`Event`]s
//!   (the "flight recorder"): message lifecycle, scope lifecycle, pool
//!   leases, GIOP round trips, priority inheritance;
//! * [`Registry`] — preallocated atomic counters, gauges with high-water
//!   marks, and log-scale latency histograms with p50/p99/max readouts;
//! * text exporters — [`Observer::metrics_text`] (Prometheus-style
//!   exposition), [`Observer::report`] (human summary), and
//!   [`Observer::trace_text`] (rendered flight-recorder tail).
//!
//! The crate is deliberately `std`-only and dependency-free.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod event;
mod export;
mod journal;
mod metrics;
pub mod span;

pub use event::{Event, EventKind};
pub use export::SpanForest;
pub use journal::Journal;
pub use metrics::{CounterId, GaugeId, HistId, HistSnapshot, Registry};
pub use span::SpanCtx;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Capacity defaults, tuned for a mid-sized assembly. Entities are
/// ports + pools + operations, all registered at build time.
const DEFAULT_EVENTS: usize = 4096;
const DEFAULT_COUNTERS: usize = 128;
const DEFAULT_GAUGES: usize = 128;
const DEFAULT_HISTS: usize = 64;

/// One observability domain: a flight recorder plus a metrics registry
/// sharing an epoch and an entity-name table.
///
/// Build one per [`App`](../compadres_core) (the builder does this),
/// share it by `Arc`, and read it whenever — readers never disturb
/// writers. [`Observer::set_enabled`] gates the journal and histogram
/// writes so overhead can be measured against a disabled baseline.
pub struct Observer {
    enabled: AtomicBool,
    verbose: AtomicBool,
    epoch: Instant,
    journal: Journal,
    registry: Registry,
    entities: Mutex<Vec<String>>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("enabled", &self.enabled())
            .field("journal", &self.journal)
            .field("registry", &self.registry)
            .finish()
    }
}

impl Observer {
    /// Builds an observer with default capacities.
    pub fn new() -> Arc<Observer> {
        Observer::with_capacity(
            DEFAULT_EVENTS,
            DEFAULT_COUNTERS,
            DEFAULT_GAUGES,
            DEFAULT_HISTS,
        )
    }

    /// Builds an observer sized explicitly: `events` journal slots and
    /// per-kind metric capacities. Every byte of hot-path storage is
    /// allocated here.
    pub fn with_capacity(
        events: usize,
        counters: usize,
        gauges: usize,
        hists: usize,
    ) -> Arc<Observer> {
        Arc::new(Observer {
            enabled: AtomicBool::new(true),
            verbose: AtomicBool::new(false),
            epoch: Instant::now(),
            journal: Journal::with_capacity(events),
            registry: Registry::with_capacity(counters, gauges, hists),
            entities: Mutex::new(vec!["?".to_string()]),
        })
    }

    /// Nanoseconds since this observer was created. Saturates at
    /// `u64::MAX` (584 years of uptime).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Whether journal and histogram writes are currently recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns event/histogram recording, and with it causal tracing, on
    /// or off: a disabled observer mints no span, so nothing it sends
    /// carries a trace context. Counters and gauges keep counting
    /// either way — they back `AppStats`-style accounting that must
    /// stay truthful.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether high-frequency detail events (per-entry scope
    /// enter/exit, per-exit scope reclaims) are recorded. Off by
    /// default: a scope entry costs a few hundred nanoseconds of real
    /// work, so stamping and journaling every one would not fit the <5%
    /// overhead budget on the message-passing hot path. Cold lifecycle
    /// events (scope destruction, pool leases, port and handler events)
    /// are always recorded.
    #[inline]
    pub fn verbose(&self) -> bool {
        self.enabled() && self.verbose.load(Ordering::Relaxed)
    }

    /// Opts into high-frequency detail events ([`Observer::verbose`]).
    pub fn set_verbose(&self, on: bool) {
        self.verbose.store(on, Ordering::Relaxed);
    }

    // ---- entities ------------------------------------------------------

    /// Interns a named entity (port, pool, region group, operation) and
    /// returns its id for use as an event subject. Cold path.
    pub fn register_entity(&self, name: &str) -> u32 {
        let mut e = self.entities.lock().unwrap();
        if let Some(i) = e.iter().position(|n| n == name) {
            return i as u32;
        }
        e.push(name.to_string());
        (e.len() - 1) as u32
    }

    /// Resolves an entity id back to its name (`"?"` if unknown).
    pub fn entity_name(&self, id: u32) -> String {
        let e = self.entities.lock().unwrap();
        e.get(id as usize)
            .cloned()
            .unwrap_or_else(|| format!("#{id}"))
    }

    // ---- flight recorder ----------------------------------------------

    /// Records an event stamped with [`Observer::now_ns`] and the
    /// thread's current span context (so retries, sheds and drops that
    /// happen mid-trace come out attributable). Lock-free and
    /// allocation-free; a no-op when disabled.
    #[inline]
    pub fn record(&self, kind: EventKind, subject: u32, payload: u64) {
        if self.enabled() {
            self.journal.record_with_span(
                kind,
                subject,
                payload,
                self.now_ns(),
                span::current().pack(),
            );
        }
    }

    /// Records an event about `span` with an explicit timestamp, for
    /// callers that already read the clock and know the hop.
    #[inline]
    pub fn record_at(&self, kind: EventKind, subject: u32, payload: u64, t_ns: u64, span: SpanCtx) {
        if self.enabled() {
            self.journal
                .record_with_span(kind, subject, payload, t_ns, span.pack());
        }
    }

    /// Records an event about a specific span (rather than whatever is
    /// installed on the current thread). Used by the dispatch layer
    /// where the envelope carries the authoritative context.
    #[inline]
    pub fn record_span(&self, kind: EventKind, subject: u32, payload: u64, span: SpanCtx) {
        if self.enabled() {
            self.journal
                .record_with_span(kind, subject, payload, self.now_ns(), span.pack());
        }
    }

    /// Records a high-frequency detail event; a no-op unless
    /// [`Observer::set_verbose`] opted in.
    #[inline]
    pub fn record_verbose(&self, kind: EventKind, subject: u32, payload: u64) {
        if self.verbose() {
            self.journal.record_with_span(
                kind,
                subject,
                payload,
                self.now_ns(),
                span::current().pack(),
            );
        }
    }

    // ---- causal tracing ------------------------------------------------

    /// Mints a root span for a fresh trace. `budget_ns` converts to an
    /// absolute deadline against this observer's clock (`None` = no
    /// deadline). Allocation-free: two atomic `fetch_add`s.
    #[inline]
    pub fn new_trace(&self, budget_ns: Option<u64>) -> SpanCtx {
        SpanCtx {
            trace_id: span::alloc_trace_id(),
            span_id: span::alloc_span_id(),
            parent: 0,
            deadline_ns: budget_ns.map_or(0, |b| self.now_ns().saturating_add(b)),
        }
    }

    /// Mints a child span of `parent`: same trace, same deadline, new
    /// hop id. Returns [`SpanCtx::NONE`] if the parent is inactive.
    #[inline]
    pub fn child_span(&self, parent: SpanCtx) -> SpanCtx {
        if !parent.is_active() {
            return SpanCtx::NONE;
        }
        SpanCtx {
            trace_id: parent.trace_id,
            span_id: span::alloc_span_id(),
            parent: parent.span_id,
            deadline_ns: parent.deadline_ns,
        }
    }

    /// Adopts a trace context received from a remote peer: keeps the
    /// sender's `trace_id` and parent span id, mints a local hop id,
    /// and re-anchors the remaining `budget_ns` against this
    /// observer's clock (`0` = no deadline). Clocks never cross the
    /// wire — only budgets do.
    #[inline]
    pub fn adopt_remote(&self, trace_id: u32, parent_span: u16, budget_ns: u64) -> SpanCtx {
        if trace_id == 0 {
            return SpanCtx::NONE;
        }
        SpanCtx {
            trace_id,
            span_id: span::alloc_span_id(),
            parent: parent_span,
            deadline_ns: if budget_ns == 0 {
                0
            } else {
                self.now_ns().saturating_add(budget_ns)
            },
        }
    }

    /// Remaining deadline budget of `span` as of now, as `i64` bits:
    /// negative = overrun, `i64::MIN` = the span carries no deadline.
    #[inline]
    pub fn budget_remaining(&self, span: SpanCtx) -> i64 {
        if span.deadline_ns == 0 {
            return i64::MIN;
        }
        let now = self.now_ns();
        if span.deadline_ns >= now {
            (span.deadline_ns - now).min(i64::MAX as u64) as i64
        } else {
            -((now - span.deadline_ns).min(i64::MAX as u64) as i64)
        }
    }

    /// Consistent snapshot of the journal, oldest event first.
    pub fn events(&self) -> Vec<Event> {
        self.journal.snapshot()
    }

    /// The underlying journal (capacity, drop counts).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    // ---- metrics -------------------------------------------------------

    /// Registers (or finds) a counter. Cold path.
    pub fn counter(&self, name: &str) -> CounterId {
        self.registry.counter(name)
    }

    /// Registers (or finds) a gauge. Cold path.
    pub fn gauge(&self, name: &str) -> GaugeId {
        self.registry.gauge(name)
    }

    /// Registers (or finds) a histogram. Cold path.
    pub fn histogram(&self, name: &str) -> HistId {
        self.registry.histogram(name)
    }

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&self, id: CounterId) {
        self.registry.add(id, 1);
    }

    /// Adds to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        self.registry.add(id, n);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.registry.counter_value(id)
    }

    /// Increments a gauge (tracks the high-water mark).
    #[inline]
    pub fn gauge_add(&self, id: GaugeId, n: u64) {
        self.registry.gauge_add(id, n);
    }

    /// Decrements a gauge.
    #[inline]
    pub fn gauge_sub(&self, id: GaugeId, n: u64) {
        self.registry.gauge_sub(id, n);
    }

    /// Sets a gauge (tracks the high-water mark).
    #[inline]
    pub fn gauge_set(&self, id: GaugeId, v: u64) {
        self.registry.gauge_set(id, v);
    }

    /// Raises a gauge's high-water mark only.
    #[inline]
    pub fn gauge_max(&self, id: GaugeId, v: u64) {
        self.registry.gauge_max(id, v);
    }

    /// Current gauge value.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.registry.gauge_value(id)
    }

    /// Gauge high-water mark.
    pub fn gauge_hwm(&self, id: GaugeId) -> u64 {
        self.registry.gauge_hwm(id)
    }

    /// Records a histogram observation; a no-op when disabled.
    #[inline]
    pub fn observe(&self, id: HistId, v: u64) {
        if self.enabled() {
            self.registry.observe(id, v);
        }
    }

    /// Histogram readout (count, sum, p50, p99, max).
    pub fn hist_snapshot(&self, id: HistId) -> HistSnapshot {
        self.registry.hist_snapshot(id)
    }

    /// The underlying registry, for bulk export.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entities_intern_idempotently() {
        let obs = Observer::new();
        let a = obs.register_entity("station.acq.in");
        let b = obs.register_entity("station.acq.in");
        assert_eq!(a, b);
        assert_eq!(obs.entity_name(a), "station.acq.in");
        assert_eq!(obs.entity_name(9999), "#9999");
    }

    #[test]
    fn disabled_observer_records_nothing() {
        let obs = Observer::new();
        obs.set_enabled(false);
        obs.record(EventKind::PortEnqueue, 1, 0);
        let h = obs.histogram("x");
        obs.observe(h, 100);
        assert!(obs.events().is_empty());
        assert_eq!(obs.hist_snapshot(h).count, 0);
        // Counters stay truthful even when disabled.
        let c = obs.counter("sent");
        obs.inc(c);
        assert_eq!(obs.counter_value(c), 1);
    }

    #[test]
    fn verbose_events_are_opt_in() {
        let obs = Observer::new();
        obs.record_verbose(EventKind::ScopeEnter, 3, 0);
        assert!(obs.events().is_empty(), "verbose events off by default");
        obs.set_verbose(true);
        obs.record_verbose(EventKind::ScopeEnter, 3, 0);
        assert_eq!(obs.events().len(), 1);
        // Disabling the observer overrides verbose.
        obs.set_enabled(false);
        obs.record_verbose(EventKind::ScopeExit, 3, 0);
        assert_eq!(obs.events().len(), 1);
    }

    #[test]
    fn clock_is_monotone() {
        let obs = Observer::new();
        let a = obs.now_ns();
        let b = obs.now_ns();
        assert!(b >= a);
    }
}
