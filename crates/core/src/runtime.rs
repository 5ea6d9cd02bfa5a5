//! The Compadres runtime: component activation, scoped-memory placement
//! and message dispatch.
//!
//! This module is the executable form of the "RTSJ glue code" the paper's
//! compiler generates (§2.2): it creates component instances in their
//! memory areas, manages the per-parent scoped-memory-manager state
//! (message pools, child proxies, wedges), and moves messages between
//! ports with priority inheritance.
//!
//! ## Component lifecycle
//!
//! Immortal components are created at [`App::start`] and live forever.
//! Scoped components are **ephemeral**: when a message arrives for an
//! inactive scoped component, its parent's SMM materializes it — acquiring
//! a scope from the level's pool (or creating one fresh), pinning it with a
//! wedge, constructing the component object and its handlers, and running
//! `start()`. When the last in-flight message leaves and no
//! [`ChildHandle`] keeps it connected, the component is deactivated and its
//! scope reclaimed. `connect()`/`disconnect()` (paper §2.2) are exposed as
//! [`HandlerCtx::connect`] and [`App::connect`].

use std::any::TypeId;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rtplatform::sync::{Condvar, Mutex};

use rtmem::{MemoryModel, RegionId, ScopeLease, ScopePool, Wedge};
use rtobs::{span, CounterId, EventKind, HistId, Observer};
use rtsched::{Priority, ThreadPool};

use crate::component::{Component, ErasedHandler};
use crate::error::{CompadresError, Result};
use crate::message::{AnyPool, Envelope, Message, PooledMsg};
use crate::model::{ComponentKind, LinkKind, PortAttrs};
use crate::validate::{InstanceId, ValidatedApp};

/// Default scope size when a level has no configured pool.
pub const DEFAULT_SCOPE_SIZE: usize = 64 << 10;

type ComponentFactory = Arc<dyn Fn() -> Box<dyn Component> + Send + Sync>;
type HandlerFactory = Arc<dyn Fn() -> Box<dyn ErasedHandler> + Send + Sync>;

pub(crate) struct OutPortInfo {
    pub message_type: String,
    pub type_id: TypeId,
    pub pool: Arc<dyn AnyPool>,
    pub targets: Vec<(InstanceId, String)>,
    pub kind: Vec<LinkKind>,
}

pub(crate) enum Dispatch {
    /// min = max = 0: the sender's thread runs the handler (paper §2.2).
    Synchronous,
    /// Buffered, pool-served dispatch.
    Async {
        pool: Arc<ThreadPool<rtmem::Ctx>>,
        inflight: Arc<AtomicUsize>,
        buffer_size: usize,
        /// Per-priority-band admission watermarks: below `buffer_size`,
        /// low bands are refused first so the remaining slots stay
        /// reserved for higher-priority traffic. `disabled()` admits
        /// every band to full capacity (the historical behaviour).
        admission: rtplatform::fault::AdmissionPolicy,
    },
}

pub(crate) struct InPortInfo {
    pub message_type: String,
    pub type_id: TypeId,
    pub dispatch: Dispatch,
    pub attrs: PortAttrs,
    /// Flight-recorder subject for this port ("instance.port").
    pub entity: u32,
    /// Per-port deadline-miss counter: traced messages whose handler
    /// finished past the trace deadline on this hop. Makes the fault
    /// layer's Shed/DropOldest decisions attributable to a port.
    pub deadline_miss: CounterId,
    /// Per-port shed counter: messages refused by priority-band
    /// admission control while the buffer still had headroom reserved
    /// for higher bands.
    pub shed: CounterId,
}

impl InPortInfo {
    /// Declared CCL attributes (used by [`App::port_attrs`]).
    pub(crate) fn attrs(&self) -> PortAttrs {
        self.attrs
    }
}

/// Activation state of one component instance.
struct ActiveScope {
    region: RegionId,
    /// Lease back to the level pool (scoped, pooled).
    lease: Option<ScopeLease>,
    /// Wedge keeping the scope alive between messages (scoped only).
    wedge: Option<Wedge>,
    component: Arc<Mutex<Box<dyn Component>>>,
    handlers: HashMap<String, Arc<Mutex<Box<dyn ErasedHandler>>>>,
    started: bool,
}

struct ActivationState {
    active: Option<ActiveScope>,
    holds: usize,
}

pub(crate) struct InstanceRuntime {
    pub id: InstanceId,
    pub name: String,
    pub class: String,
    pub kind: ComponentKind,
    pub parent: Option<InstanceId>,
    state: Mutex<ActivationState>,
    started_cv: Condvar,
    pub activations: AtomicU64,
    pub deactivations: AtomicU64,
}

/// Counters exposed by [`App::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppStats {
    /// Messages accepted by `send()`.
    pub messages_sent: u64,
    /// Messages whose handler completed.
    pub messages_processed: u64,
    /// Handler invocations that returned an error.
    pub handler_errors: u64,
    /// Handler invocations that panicked (contained).
    pub handler_panics: u64,
    /// Messages rejected because a port buffer was full.
    pub buffer_rejections: u64,
    /// Messages shed by priority-band admission control (buffer over
    /// the band's watermark but under capacity).
    pub messages_shed: u64,
    /// Scoped component activations.
    pub activations: u64,
    /// Scoped component deactivations (scope reclaims).
    pub deactivations: u64,
}

/// Structured snapshot of the application's scoped-memory state,
/// returned by [`App::memory_report`]. `Display` renders the classic
/// human-readable text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes used in the immortal region.
    pub immortal_used: usize,
    /// Size of the immortal region.
    pub immortal_size: usize,
    /// Per-instance memory state, in declaration order.
    pub instances: Vec<InstanceMemory>,
}

/// One component instance's entry in a [`MemoryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceMemory {
    /// Instance name from the CCL.
    pub name: String,
    /// Region currently occupied (`None` when inactive).
    pub region: Option<RegionId>,
    /// Bytes used in the region (0 when inactive or the region is gone).
    pub used: usize,
    /// Region size in bytes (0 when inactive or the region is gone).
    pub size: usize,
    /// Region reclamation epoch.
    pub epoch: u64,
    /// Lifetime activation count of this instance.
    pub activations: u64,
}

impl InstanceMemory {
    /// Whether the instance is currently materialized in a region.
    pub fn is_active(&self) -> bool {
        self.region.is_some()
    }
}

impl std::fmt::Display for MemoryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "immortal: {}/{} bytes used",
            self.immortal_used, self.immortal_size
        )?;
        for inst in &self.instances {
            match inst.region {
                Some(region) if inst.size > 0 => writeln!(
                    f,
                    "{:<20} active in {:?}: {}/{} bytes, epoch {}, {} activations",
                    inst.name, region, inst.used, inst.size, inst.epoch, inst.activations
                )?,
                Some(_) => writeln!(f, "{:<20} active (region gone)", inst.name)?,
                None => writeln!(
                    f,
                    "{:<20} inactive, {} activations so far",
                    inst.name, inst.activations
                )?,
            }
        }
        Ok(())
    }
}

/// Observer handle plus the pre-registered ids for every metric the
/// runtime touches on the hot path. Replaces the old ad-hoc `StatCells`:
/// the same atomics now live in the rtobs registry, so [`App::stats`]
/// and [`App::metrics_text`] read one source of truth.
pub(crate) struct CoreObs {
    pub obs: Arc<Observer>,
    sent: CounterId,
    processed: CounterId,
    handler_errors: CounterId,
    handler_panics: CounterId,
    buffer_rejections: CounterId,
    shed: CounterId,
    deadline_miss: CounterId,
    queue_wait: HistId,
    handler_latency: HistId,
}

impl CoreObs {
    pub(crate) fn new(obs: Arc<Observer>) -> CoreObs {
        CoreObs {
            sent: obs.counter("compadres_messages_sent_total"),
            processed: obs.counter("compadres_messages_processed_total"),
            handler_errors: obs.counter("compadres_handler_errors_total"),
            handler_panics: obs.counter("compadres_handler_panics_total"),
            buffer_rejections: obs.counter("compadres_buffer_rejections_total"),
            shed: obs.counter("compadres_shed_total"),
            deadline_miss: obs.counter("compadres_deadline_miss_total"),
            queue_wait: obs.histogram("compadres_queue_wait_ns"),
            handler_latency: obs.histogram("compadres_handler_latency_ns"),
            obs,
        }
    }
}

pub(crate) struct AppCore {
    pub model: MemoryModel,
    pub name: String,
    pub instances: Vec<InstanceRuntime>,
    pub by_name: HashMap<String, InstanceId>,
    pub out_ports: HashMap<(InstanceId, String), OutPortInfo>,
    pub in_ports: HashMap<(InstanceId, String), InPortInfo>,
    pub scope_pools: HashMap<u32, ScopePool>,
    pub component_factories: HashMap<String, ComponentFactory>,
    pub handler_factories: HashMap<(String, String), HandlerFactory>,
    pub stats: CoreObs,
    pub shutdown: AtomicBool,
    pub validated: ValidatedApp,
}

impl AppCore {
    pub(crate) fn instance_id(&self, name: &str) -> Result<InstanceId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| CompadresError::NotFound {
                kind: "instance",
                name: name.to_string(),
            })
    }

    fn runtime(&self, id: InstanceId) -> &InstanceRuntime {
        &self.instances[id.0]
    }

    /// Ancestor ids root-first, including `id`.
    fn ancestry(&self, id: InstanceId) -> Vec<InstanceId> {
        let mut chain = vec![id];
        let mut cur = self.runtime(id).parent;
        while let Some(p) = cur {
            chain.push(p);
            cur = self.runtime(p).parent;
        }
        chain.reverse();
        chain
    }

    /// Holds (and if needed activates) `id` and all its ancestors.
    /// Every successful call must be paired with [`AppCore::release_chain`].
    fn hold_chain(self: &Arc<Self>, id: InstanceId) -> Result<()> {
        let chain = self.ancestry(id);
        for (i, &inst) in chain.iter().enumerate() {
            if let Err(e) = self.hold_one(inst) {
                // Roll back the holds we already took.
                for &done in chain[..i].iter().rev() {
                    self.release_one(done);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn release_chain(self: &Arc<Self>, id: InstanceId) {
        let chain = self.ancestry(id);
        for &inst in chain.iter().rev() {
            self.release_one(inst);
        }
    }

    /// Takes one hold on `inst`, activating it if necessary. The parent is
    /// assumed already held (hold_chain order guarantees it).
    fn hold_one(self: &Arc<Self>, inst: InstanceId) -> Result<()> {
        let rt = self.runtime(inst);
        let mut g = rt.state.lock();
        g.holds += 1;
        // Wait out a concurrent activation in progress.
        while g.active.as_ref().is_some_and(|a| !a.started) {
            rt.started_cv.wait(&mut g);
        }
        if g.active.is_some() {
            return Ok(());
        }
        if self.shutdown.load(Ordering::SeqCst) {
            g.holds -= 1;
            return Err(CompadresError::ShutDown);
        }
        // Activate: acquire a region, pin it, build the component.
        let activation = match self.materialize(inst) {
            Ok(a) => a,
            Err(e) => {
                g.holds -= 1;
                return Err(e);
            }
        };
        let component = Arc::clone(&activation.component);
        g.active = Some(activation);
        drop(g);
        rt.activations.fetch_add(1, Ordering::Relaxed);

        // Run start() outside the state lock so it may send messages.
        let start_result = self.run_in_instance(inst, None, |ctx| {
            let mut comp = component.lock();
            catch_unwind(AssertUnwindSafe(|| comp.start(ctx)))
        });
        match start_result {
            Ok(Ok(Ok(()))) => {}
            Ok(Ok(Err(_))) => {
                self.stats.obs.inc(self.stats.handler_errors);
            }
            Ok(Err(_panic)) => {
                self.stats.obs.inc(self.stats.handler_panics);
            }
            Err(e) => {
                // Could not even enter the region; undo the hold (which
                // deactivates again if we were the only holder).
                let mut g = rt.state.lock();
                if let Some(a) = g.active.as_mut() {
                    a.started = true;
                }
                rt.started_cv.notify_all();
                drop(g);
                self.release_one(inst);
                return Err(e);
            }
        }
        let mut g = rt.state.lock();
        if let Some(a) = g.active.as_mut() {
            a.started = true;
        }
        rt.started_cv.notify_all();
        drop(g);
        Ok(())
    }

    /// Builds the ActiveScope for `inst`: region + wedge + component +
    /// handlers. The caller holds the instance's state lock.
    fn materialize(&self, inst: InstanceId) -> Result<ActiveScope> {
        let rt = self.runtime(inst);
        let vinst = &self.validated.instances[inst.0];
        let (region, lease, wedge) = match rt.kind {
            ComponentKind::Immortal => (self.model.immortal(), None, None),
            ComponentKind::Scoped { level } => {
                let parent_region = match rt.parent {
                    Some(p) => {
                        let pg = self.runtime(p).state.lock();
                        pg.active.as_ref().map(|a| a.region).ok_or(
                            CompadresError::Disconnected {
                                instance: self.runtime(p).name.clone(),
                            },
                        )?
                    }
                    None => self.model.immortal(),
                };
                let (region, lease) = match self.scope_pools.get(&level) {
                    Some(pool) => {
                        let lease = pool.acquire()?;
                        (lease.region(), Some(lease))
                    }
                    None => (self.model.create_scoped(DEFAULT_SCOPE_SIZE)?, None),
                };
                let wedge = Wedge::pin_under(&self.model, region, parent_region)?;
                (region, lease, Some(wedge))
            }
        };
        let component = match self.component_factories.get(&rt.class) {
            Some(f) => f(),
            None => Box::new(crate::component::NullComponent),
        };
        let mut handlers = HashMap::new();
        for port in vinst.port_attrs.keys() {
            if let Some(f) = self
                .handler_factories
                .get(&(rt.class.clone(), port.clone()))
            {
                handlers.insert(port.clone(), Arc::new(Mutex::new(f())));
            }
        }
        Ok(ActiveScope {
            region,
            lease,
            wedge,
            component: Arc::new(Mutex::new(component)),
            handlers,
            started: false,
        })
    }

    fn release_one(self: &Arc<Self>, inst: InstanceId) {
        let rt = self.runtime(inst);
        let mut g = rt.state.lock();
        debug_assert!(g.holds > 0, "unbalanced release on {}", rt.name);
        g.holds = g.holds.saturating_sub(1);
        if g.holds == 0 && rt.kind.is_scoped() {
            if let Some(active) = g.active.take() {
                drop(g);
                self.deactivate(inst, active);
            }
        }
    }

    fn deactivate(self: &Arc<Self>, inst: InstanceId, active: ActiveScope) {
        let rt = self.runtime(inst);
        // Stop the component, then drop handlers and the component object,
        // then release the wedge (reclaiming the scope) and the lease.
        {
            let mut comp = active.component.lock();
            let _ = catch_unwind(AssertUnwindSafe(|| comp.stop()));
        }
        drop(active.handlers);
        drop(active.component);
        drop(active.wedge); // reclaims the region if nothing else pins it
        drop(active.lease); // returns the region to its pool
        rt.deactivations.fetch_add(1, Ordering::Relaxed);
    }

    /// Region chain (outermost scoped region first) for an *active*
    /// instance. Immortal components contribute no entry (they run in the
    /// immortal base).
    fn region_chain(&self, id: InstanceId) -> Result<Vec<RegionId>> {
        let mut chain = Vec::new();
        for inst in self.ancestry(id) {
            let rt = self.runtime(inst);
            if rt.kind.is_scoped() {
                let g = rt.state.lock();
                let region =
                    g.active
                        .as_ref()
                        .map(|a| a.region)
                        .ok_or(CompadresError::Disconnected {
                            instance: rt.name.clone(),
                        })?;
                chain.push(region);
            }
        }
        Ok(chain)
    }

    /// Positions `ctx` inside `id`'s memory area (entering ancestors as
    /// needed, backing out to a common ancestor first — the handoff
    /// pattern) and runs `f` there with a [`HandlerCtx`].
    fn run_in_instance<R>(
        self: &Arc<Self>,
        id: InstanceId,
        priority: Option<Priority>,
        f: impl FnOnce(&mut HandlerCtx<'_>) -> R,
    ) -> Result<R> {
        let chain = self.region_chain(id)?;
        let core = Arc::clone(self);
        let priority = priority.unwrap_or_else(rtsched::current_priority);
        let mut ctx_storage = rtmem::Ctx::no_heap(&self.model);
        let ctx = &mut ctx_storage;
        Self::run_in_chain(ctx, &self.model, &chain, move |ctx| {
            let mut hctx = HandlerCtx {
                core: &core,
                mem: ctx,
                instance: id,
                priority,
            };
            f(&mut hctx)
        })
    }

    /// Like `run_in_instance` but reuses the caller's memory context
    /// (synchronous dispatch path).
    fn run_in_instance_with<R>(
        self: &Arc<Self>,
        ctx: &mut rtmem::Ctx,
        id: InstanceId,
        priority: Priority,
        f: impl FnOnce(&mut HandlerCtx<'_>) -> R,
    ) -> Result<R> {
        let chain = self.region_chain(id)?;
        let core = Arc::clone(self);
        Self::run_in_chain(ctx, &self.model, &chain, move |ctx| {
            let mut hctx = HandlerCtx {
                core: &core,
                mem: ctx,
                instance: id,
                priority,
            };
            f(&mut hctx)
        })
    }

    fn run_in_chain<R>(
        ctx: &mut rtmem::Ctx,
        model: &MemoryModel,
        chain: &[RegionId],
        f: impl FnOnce(&mut rtmem::Ctx) -> R,
    ) -> Result<R> {
        // Find the deepest chain region already on the caller's stack and
        // jump there (executeInArea), then enter the rest.
        let out = match chain.iter().rposition(|r| ctx.stack().contains(r)) {
            Some(i) => ctx.execute_in(chain[i], |ctx| ctx.enter_chain(&chain[i + 1..], f))?,
            None => ctx.execute_in(model.immortal(), |ctx| ctx.enter_chain(chain, f))?,
        };
        Ok(out?)
    }

    /// Delivers an envelope to an in-port. `sender_ctx` is `Some` when the
    /// sending thread can run synchronous handlers in place.
    pub(crate) fn deliver(
        self: &Arc<Self>,
        sender_ctx: Option<&mut rtmem::Ctx>,
        to: (InstanceId, String),
        mut env: Envelope,
    ) -> Result<()> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(CompadresError::ShutDown);
        }
        let info = self
            .in_ports
            .get(&to)
            .ok_or_else(|| CompadresError::NotFound {
                kind: "in-port",
                name: format!("{}.{}", self.runtime(to.0).name, to.1),
            })?;
        let obs = &self.stats.obs;
        if obs.enabled() {
            env.enqueued_ns = obs.now_ns();
            obs.record_at(
                EventKind::PortEnqueue,
                info.entity,
                u64::from(env.priority.value()),
                env.enqueued_ns,
            );
            // Trace ingress: continue the sender's trace as a child hop,
            // or mint a fresh root for a message arriving from outside
            // any trace. A few Copy words and one journal record.
            if obs.tracing() {
                let parent = span::current();
                env.span = if parent.is_active() {
                    obs.child_span(parent)
                } else {
                    obs.new_trace(None)
                };
                obs.record_span(
                    EventKind::SpanEnqueue,
                    info.entity,
                    env.span.deadline_ns,
                    env.span,
                );
            }
        }
        match &info.dispatch {
            Dispatch::Synchronous => {
                let priority = env.priority;
                match sender_ctx {
                    Some(ctx) => self.process_envelope(ctx, to, env, priority, false),
                    None => {
                        let mut ctx = rtmem::Ctx::no_heap(&self.model);
                        self.process_envelope(&mut ctx, to, env, priority, false)
                    }
                }
            }
            Dispatch::Async {
                pool,
                inflight,
                buffer_size,
                admission,
            } => {
                // Bounded admission: the port buffer (CCL BufferSize),
                // narrowed per priority band by the admission policy so
                // overload sheds low bands while slots stay reserved for
                // high-priority traffic.
                let limit = admission
                    .watermark(env.priority.value(), *buffer_size)
                    .min(*buffer_size);
                let occupied = inflight.fetch_add(1, Ordering::SeqCst);
                if occupied >= limit {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    let priority = env.priority.value();
                    if limit < *buffer_size {
                        // Band watermark, not capacity: this is a shed.
                        self.stats.obs.inc(self.stats.shed);
                        self.stats.obs.inc(info.shed);
                        self.stats.obs.record(
                            EventKind::PortShed,
                            info.entity,
                            u64::from(priority),
                        );
                        return Err(CompadresError::Shed {
                            instance: self.runtime(to.0).name.clone(),
                            port: to.1.clone(),
                            priority,
                        });
                    }
                    self.stats.obs.inc(self.stats.buffer_rejections);
                    self.stats
                        .obs
                        .record(EventKind::BufferDrop, info.entity, occupied as u64);
                    return Err(CompadresError::BufferFull {
                        instance: self.runtime(to.0).name.clone(),
                        port: to.1.clone(),
                    });
                }
                let core = Arc::clone(self);
                let priority = env.priority;
                let inflight2 = Arc::clone(inflight);
                let mut env_cell = Some(env);
                let accepted = pool.execute(priority, move |ctx, prio| {
                    let env = env_cell.take().expect("job runs once");
                    inflight2.fetch_sub(1, Ordering::SeqCst);
                    let _ = core.process_envelope(ctx, to, env, prio, true);
                });
                if !accepted {
                    inflight.fetch_sub(1, Ordering::SeqCst);
                    return Err(CompadresError::ShutDown);
                }
                Ok(())
            }
        }
    }

    /// Runs the handler for one envelope inside the target's memory area.
    /// `queued` is true on the async path (the envelope actually sat in a
    /// buffer); sync hops skip the span-dequeue event — their wait is ~0
    /// by construction and the reconstructor treats absence as such.
    fn process_envelope(
        self: &Arc<Self>,
        ctx: &mut rtmem::Ctx,
        to: (InstanceId, String),
        env: Envelope,
        priority: Priority,
        queued: bool,
    ) -> Result<()> {
        // Dequeue edge of the trace: how long the envelope waited between
        // admission and a worker (or the sender's thread) picking it up.
        let (entity, port_miss) = self
            .in_ports
            .get(&to)
            .map_or((0, None), |i| (i.entity, Some(i.deadline_miss)));
        let span_ctx = env.span;
        if self.stats.obs.enabled() {
            let wait_ns = self.stats.obs.now_ns().saturating_sub(env.enqueued_ns);
            self.stats
                .obs
                .record(EventKind::PortDequeue, entity, wait_ns);
            self.stats.obs.observe(self.stats.queue_wait, wait_ns);
            if queued && span_ctx.is_active() {
                self.stats
                    .obs
                    .record_span(EventKind::SpanDequeue, entity, wait_ns, span_ctx);
            }
        }
        self.hold_chain(to.0)?;
        let result = (|| -> Result<()> {
            let handler = {
                let rt = self.runtime(to.0);
                let g = rt.state.lock();
                let active = g.active.as_ref().ok_or(CompadresError::Disconnected {
                    instance: rt.name.clone(),
                })?;
                active
                    .handlers
                    .get(&to.1)
                    .cloned()
                    .ok_or(CompadresError::MissingFactory {
                        class: rt.class.clone(),
                        port: Some(to.1.clone()),
                    })?
            };
            self.run_in_instance_with(ctx, to.0, priority, |hctx| {
                rtsched::with_priority(priority, || {
                    // Install the envelope's trace context for the whole
                    // handler run: sends, remote retries and ORB calls
                    // made inside inherit it (and NONE clears any residue
                    // left on a pooled worker thread).
                    span::with_span(span_ctx, || {
                        let mut h = handler.lock();
                        env.process(|payload| {
                            let s = &hctx.core.stats;
                            let started = s.obs.enabled();
                            let t0 = if started { s.obs.now_ns() } else { 0 };
                            if started {
                                s.obs.record_at(
                                    EventKind::HandlerStart,
                                    entity,
                                    u64::from(priority.value()),
                                    t0,
                                );
                            }
                            let outcome =
                                catch_unwind(AssertUnwindSafe(|| h.process_any(payload, hctx)));
                            let s = &hctx.core.stats;
                            if started {
                                let elapsed = s.obs.now_ns().saturating_sub(t0);
                                s.obs.record(EventKind::HandlerEnd, entity, elapsed);
                                s.obs.observe(s.handler_latency, elapsed);
                                // Close out the hop: remaining deadline
                                // budget (negative = overrun, counted
                                // globally and per port).
                                if span_ctx.is_active() {
                                    let left = s.obs.budget_remaining(span_ctx);
                                    s.obs.record_span(
                                        EventKind::SpanEnd,
                                        entity,
                                        left as u64,
                                        span_ctx,
                                    );
                                    if left != i64::MIN && left < 0 {
                                        s.obs.inc(s.deadline_miss);
                                        if let Some(pm) = port_miss {
                                            s.obs.inc(pm);
                                        }
                                    }
                                }
                            }
                            match outcome {
                                Ok(Ok(())) => s.obs.inc(s.processed),
                                Ok(Err(_)) => s.obs.inc(s.handler_errors),
                                Err(_) => {
                                    s.obs.inc(s.handler_panics);
                                    s.obs.record(EventKind::HandlerPanic, entity, 0);
                                }
                            }
                        });
                    });
                });
            })?;
            Ok(())
        })();
        self.release_chain(to.0);
        result
    }
}

/// The execution context handed to component `start()` methods and message
/// handlers. Wraps the memory context (positioned inside the component's
/// memory area) and the framework services: out-ports, message pools and
/// child connect/disconnect.
pub struct HandlerCtx<'a> {
    pub(crate) core: &'a Arc<AppCore>,
    /// The memory context, positioned in this component's region. Exposed
    /// so handlers can allocate scoped data (`ctx.mem.alloc(..)`).
    pub mem: &'a mut rtmem::Ctx,
    pub(crate) instance: InstanceId,
    pub(crate) priority: Priority,
}

impl std::fmt::Debug for HandlerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HandlerCtx")
            .field("instance", &self.instance_name())
            .field("priority", &self.priority)
            .finish()
    }
}

impl HandlerCtx<'_> {
    /// Name of the component instance being executed.
    pub fn instance_name(&self) -> &str {
        &self.core.runtime(self.instance).name
    }

    /// The memory region this component lives in.
    pub fn region(&self) -> RegionId {
        self.mem.current()
    }

    /// Priority of the message being processed (or of the start trigger).
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// The application's observer, for handler-side custom metrics and
    /// flight-recorder events.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.core.stats.obs
    }

    /// Takes a message from the pool serving `port` — the paper's
    /// `port.getMessage()`. The pool lives in the memory area of the
    /// connection's common-ancestor component (shared-object pattern).
    ///
    /// # Errors
    ///
    /// * [`CompadresError::NotFound`] — no such out-port on this component.
    /// * [`CompadresError::MessageTypeMismatch`] — `M` is not the port's
    ///   bound message type.
    /// * [`CompadresError::MessagePoolExhausted`] — too many outstanding.
    pub fn get_message<M: Message>(&self, port: &str) -> Result<PooledMsg<M>> {
        let info = self.out_info(port)?;
        if info.type_id != TypeId::of::<M>() {
            return Err(CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected: info.message_type.clone(),
            });
        }
        let payload = info
            .pool
            .get_any()
            .ok_or(CompadresError::MessagePoolExhausted {
                message_type: info.message_type.clone(),
            })?;
        let boxed = payload
            .downcast::<M>()
            .map_err(|_| CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected: info.message_type.clone(),
            })?;
        Ok(PooledMsg::from_erased(boxed, Arc::clone(&info.pool)))
    }

    /// Sends a message through `port` at `priority` — the paper's
    /// `port.send(m, prio)`. The port must have exactly one connected
    /// target (use [`HandlerCtx::send_cloned`] for fan-out).
    ///
    /// # Errors
    ///
    /// * [`CompadresError::NotFound`] — unknown port or unconnected port.
    /// * [`CompadresError::BufferFull`] — the target buffer rejected it.
    /// * [`CompadresError::MessageTypeMismatch`] — wrong `M` for the port.
    pub fn send<M: Message>(
        &mut self,
        port: &str,
        msg: PooledMsg<M>,
        priority: impl Into<Priority>,
    ) -> Result<()> {
        let (target, type_ok) = {
            let info = self.out_info(port)?;
            if info.targets.len() != 1 {
                return Err(CompadresError::NotFound {
                    kind: "single connection for out-port",
                    name: format!(
                        "{}.{port} ({} targets)",
                        self.instance_name(),
                        info.targets.len()
                    ),
                });
            }
            (info.targets[0].clone(), info.type_id == TypeId::of::<M>())
        };
        if !type_ok {
            let expected = self.out_info(port)?.message_type.clone();
            return Err(CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected,
            });
        }
        let env = msg.into_envelope(priority.into());
        self.core.stats.obs.inc(self.core.stats.sent);
        let core = Arc::clone(self.core);
        core.deliver(Some(self.mem), target, env)
    }

    /// Fan-out send: fills one pooled message per connected target by
    /// cloning `value`.
    ///
    /// # Errors
    ///
    /// Same as [`HandlerCtx::send`]; delivery stops at the first failure.
    pub fn send_cloned<M: Message + Clone>(
        &mut self,
        port: &str,
        value: &M,
        priority: impl Into<Priority>,
    ) -> Result<usize> {
        let priority = priority.into();
        let targets = self.out_info(port)?.targets.clone();
        let mut delivered = 0;
        for target in targets {
            let mut msg = self.get_message::<M>(port)?;
            *msg = value.clone();
            let env = msg.into_envelope(priority);
            self.core.stats.obs.inc(self.core.stats.sent);
            let core = Arc::clone(self.core);
            core.deliver(Some(self.mem), target, env)?;
            delivered += 1;
        }
        Ok(delivered)
    }

    /// Requests that the named **child** component be kept alive — the
    /// paper's SMM `connect()`. Returns a handle; dropping it (or calling
    /// [`ChildHandle::disconnect`]) releases the child, allowing its scope
    /// to be reclaimed.
    ///
    /// # Errors
    ///
    /// [`CompadresError::NotFound`] if `child` is not a direct child of
    /// this component.
    pub fn connect(&mut self, child: &str) -> Result<ChildHandle> {
        let id = self.core.instance_id(child)?;
        if self.core.runtime(id).parent != Some(self.instance) {
            return Err(CompadresError::NotFound {
                kind: "child component",
                name: child.to_string(),
            });
        }
        self.core.hold_chain(id)?;
        Ok(ChildHandle {
            core: Arc::clone(self.core),
            id,
            released: false,
        })
    }

    /// Number of messages outstanding in the pool serving `port`.
    pub fn pool_outstanding(&self, port: &str) -> Result<usize> {
        Ok(self.out_info(port)?.pool.outstanding())
    }

    fn out_info(&self, port: &str) -> Result<&OutPortInfo> {
        self.core
            .out_ports
            .get(&(self.instance, port.to_string()))
            .ok_or_else(|| CompadresError::NotFound {
                kind: "out-port",
                name: format!("{}.{port}", self.instance_name()),
            })
    }
}

/// Keep-alive handle for a scoped child component (the paper's SMM
/// `connect()` handle). Dropping it is equivalent to `disconnect()`.
pub struct ChildHandle {
    core: Arc<AppCore>,
    id: InstanceId,
    released: bool,
}

impl std::fmt::Debug for ChildHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChildHandle({})", self.core.runtime(self.id).name)
    }
}

impl ChildHandle {
    /// The kept-alive instance's name.
    pub fn instance_name(&self) -> &str {
        &self.core.runtime(self.id).name
    }

    /// Releases the child — the paper's `disconnect(handle)`. Its scope is
    /// reclaimed once no messages are in flight for it.
    pub fn disconnect(mut self) {
        self.release();
    }

    fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.core.release_chain(self.id);
        }
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        self.release();
    }
}

/// A running Compadres application.
///
/// Built by [`crate::AppBuilder::build`]; see the crate docs for the
/// development flow (CDL → skeletons → CCL → glue).
pub struct App {
    pub(crate) core: Arc<AppCore>,
}

impl std::fmt::Debug for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("App")
            .field("name", &self.core.name)
            .field("instances", &self.core.instances.len())
            .finish()
    }
}

impl App {
    /// Application name from the CCL.
    pub fn name(&self) -> &str {
        &self.core.name
    }

    /// The memory model backing this application.
    pub fn model(&self) -> &MemoryModel {
        &self.core.model
    }

    /// Activates all immortal components (parents first) and runs their
    /// `start()` methods. Scoped components activate on demand.
    ///
    /// # Errors
    ///
    /// Fails if an immortal component cannot be materialized.
    pub fn start(&self) -> Result<()> {
        for inst in 0..self.core.instances.len() {
            let id = InstanceId(inst);
            if !self.core.runtime(id).kind.is_scoped() {
                // Permanent hold: immortal components never deactivate.
                self.core.hold_chain(id)?;
            }
        }
        Ok(())
    }

    /// Injects a message into an in-port from outside the component graph
    /// (e.g. a device driver or test harness).
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HandlerCtx::send`].
    pub fn send_to<M: Message>(
        &self,
        instance: &str,
        port: &str,
        value: M,
        priority: impl Into<Priority>,
    ) -> Result<()> {
        let id = self.core.instance_id(instance)?;
        let key = (id, port.to_string());
        let info = self
            .core
            .in_ports
            .get(&key)
            .ok_or_else(|| CompadresError::NotFound {
                kind: "in-port",
                name: format!("{instance}.{port}"),
            })?;
        if info.type_id != TypeId::of::<M>() {
            return Err(CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected: info.message_type.clone(),
            });
        }
        let env = Envelope::from_value(value, priority.into());
        self.core.stats.obs.inc(self.core.stats.sent);
        self.core.deliver(None, key, env)
    }

    /// Runs `f` in the execution context of `instance` (inside its memory
    /// area), as if invoked by the framework. Activates the instance if
    /// needed and releases it afterwards.
    ///
    /// # Errors
    ///
    /// Fails if the instance does not exist or cannot be activated.
    pub fn with_component<R>(
        &self,
        instance: &str,
        f: impl FnOnce(&mut HandlerCtx<'_>) -> R,
    ) -> Result<R> {
        let id = self.core.instance_id(instance)?;
        self.core.hold_chain(id)?;
        let out = self.core.run_in_instance(id, None, f);
        self.core.release_chain(id);
        out
    }

    /// Keeps `instance` (and its ancestors) alive until the handle drops —
    /// an external `connect()` used by harnesses and parents alike.
    ///
    /// # Errors
    ///
    /// Fails if the instance does not exist or cannot be activated.
    pub fn connect(&self, instance: &str) -> Result<ChildHandle> {
        let id = self.core.instance_id(instance)?;
        self.core.hold_chain(id)?;
        Ok(ChildHandle {
            core: Arc::clone(&self.core),
            id,
            released: false,
        })
    }

    /// The memory region an instance currently occupies, if active.
    pub fn region_of(&self, instance: &str) -> Result<Option<RegionId>> {
        let id = self.core.instance_id(instance)?;
        let g = self.core.runtime(id).state.lock();
        Ok(g.active.as_ref().map(|a| a.region))
    }

    /// The CCL attributes of an in-port (buffer size, threadpool).
    ///
    /// # Errors
    ///
    /// [`CompadresError::NotFound`] for unknown instances or ports.
    pub fn port_attrs(&self, instance: &str, port: &str) -> Result<PortAttrs> {
        let id = self.core.instance_id(instance)?;
        self.core
            .in_ports
            .get(&(id, port.to_string()))
            .map(|i| i.attrs())
            .ok_or_else(|| CompadresError::NotFound {
                kind: "in-port",
                name: format!("{instance}.{port}"),
            })
    }

    /// Whether an instance is currently active (materialized in a scope).
    pub fn is_active(&self, instance: &str) -> Result<bool> {
        Ok(self.region_of(instance)?.is_some())
    }

    /// Point-in-time statistics, read from the observer's registry.
    pub fn stats(&self) -> AppStats {
        let s = &self.core.stats;
        AppStats {
            messages_sent: s.obs.counter_value(s.sent),
            messages_processed: s.obs.counter_value(s.processed),
            handler_errors: s.obs.counter_value(s.handler_errors),
            handler_panics: s.obs.counter_value(s.handler_panics),
            buffer_rejections: s.obs.counter_value(s.buffer_rejections),
            messages_shed: s.obs.counter_value(s.shed),
            activations: self
                .core
                .instances
                .iter()
                .map(|i| i.activations.load(Ordering::Relaxed))
                .sum(),
            deactivations: self
                .core
                .instances
                .iter()
                .map(|i| i.deactivations.load(Ordering::Relaxed))
                .sum(),
        }
    }

    /// Activation count of a single instance.
    pub fn activations_of(&self, instance: &str) -> Result<u64> {
        let id = self.core.instance_id(instance)?;
        Ok(self.core.runtime(id).activations.load(Ordering::Relaxed))
    }

    /// This application's observability domain: the flight recorder and
    /// metrics registry every layer (runtime, scheduler, memory, ORB)
    /// writes into.
    pub fn observer(&self) -> &Arc<Observer> {
        &self.core.stats.obs
    }

    /// Prometheus-style exposition of every metric across all layers —
    /// shorthand for `app.observer().metrics_text()`.
    pub fn metrics_text(&self) -> String {
        self.core.stats.obs.metrics_text()
    }

    /// Structured memory report: one entry per component instance with
    /// its current region, usage and activation counters — the
    /// operational view of the scoped-memory architecture. `Display`
    /// renders the classic one-line-per-instance text.
    pub fn memory_report(&self) -> MemoryReport {
        let imm = self
            .core
            .model
            .snapshot(self.core.model.immortal())
            .expect("immortal exists");
        let mut instances = Vec::with_capacity(self.core.instances.len());
        for rt in &self.core.instances {
            let activations = rt.activations.load(Ordering::Relaxed);
            let region = {
                let g = rt.state.lock();
                g.active.as_ref().map(|a| a.region)
            };
            let snapshot = region.and_then(|r| self.core.model.snapshot(r).ok());
            instances.push(InstanceMemory {
                name: rt.name.clone(),
                region,
                used: snapshot.as_ref().map_or(0, |s| s.used),
                size: snapshot.as_ref().map_or(0, |s| s.size),
                epoch: snapshot.as_ref().map_or(0, |s| s.epoch),
                activations,
            });
        }
        MemoryReport {
            immortal_used: imm.used,
            immortal_size: imm.size,
            instances,
        }
    }

    /// Waits until every asynchronous port has finished the work it
    /// accepted: buffers empty **and** no handler still running.
    ///
    /// A port's `inflight` count is buffer occupancy — it drops when a
    /// worker takes the message, before the handler runs — so the
    /// completed-work condition is the pool's own `pending`-based
    /// [`ThreadPool::wait_idle`]. A handler may feed a port this pass
    /// already visited, so a pass counts only if no job finished while
    /// it ran (a job's sends are accepted before the job finishes).
    pub fn wait_quiescent(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let ports = || {
            self.core
                .in_ports
                .values()
                .filter_map(|p| match &p.dispatch {
                    Dispatch::Async { pool, inflight, .. } => Some((pool, inflight)),
                    Dispatch::Synchronous => None,
                })
        };
        let finished = || -> u64 { ports().map(|(p, _)| p.executed() + p.panicked()).sum() };
        loop {
            let before = finished();
            let mut settled = true;
            for (pool, inflight) in ports() {
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if !pool.wait_idle(left) {
                    return false;
                }
                settled &= inflight.load(Ordering::SeqCst) == 0;
            }
            if settled && finished() == before {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::yield_now();
        }
    }

    /// Stops accepting messages, drains pools and deactivates components.
    pub fn shutdown(&self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        for info in self.core.in_ports.values() {
            if let Dispatch::Async { pool, .. } = &info.dispatch {
                pool.shutdown();
            }
        }
        // Deactivate scoped instances that are only alive through leaked
        // holds (children first = reverse declaration order).
        for rt in self.core.instances.iter().rev() {
            let mut g = rt.state.lock();
            if rt.kind.is_scoped() {
                // Outstanding holds (e.g. still-live ChildHandles) keep
                // their counts and decay harmlessly after this teardown.
                if let Some(active) = g.active.take() {
                    drop(g);
                    self.core.deactivate(rt.id, active);
                    continue;
                }
            } else if let Some(active) = g.active.take() {
                let mut comp = active.component.lock();
                let _ = catch_unwind(AssertUnwindSafe(|| comp.stop()));
            }
        }
    }
}

impl Drop for App {
    fn drop(&mut self) {
        if !self.core.shutdown.load(Ordering::SeqCst) {
            self.shutdown();
        }
    }
}

pub(crate) fn new_instance_runtime(
    id: InstanceId,
    name: String,
    class: String,
    kind: ComponentKind,
    parent: Option<InstanceId>,
) -> InstanceRuntime {
    InstanceRuntime {
        id,
        name,
        class,
        kind,
        parent,
        state: Mutex::new(ActivationState {
            active: None,
            holds: 0,
        }),
        started_cv: Condvar::new(),
        activations: AtomicU64::new(0),
        deactivations: AtomicU64::new(0),
    }
}
