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
//! scope reclaimed — both in place, in the one activation record the
//! instance keeps. `connect()`/`disconnect()` (paper §2.2) are exposed as
//! [`HandlerCtx::connect`] and [`App::connect`].

use std::any::TypeId;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use rtplatform::small::SmallList;
use rtplatform::sync::{Condvar, Mutex};

use rtmem::{MemoryModel, RegionId, ScopeLease, ScopePool, Wedge};
use rtobs::{span, CounterId, EventKind, HistId, Observer};
use rtsched::{Priority, Task, ThreadPool};

use crate::component::{Component, ComponentFactory, ErasedHandler, HandlerFactory, NullComponent};
use crate::error::{CompadresError, Result};
use crate::message::{AnyPool, Envelope, Message, PoolFactory, PooledMsg};
use crate::model::{ComponentKind, PortAttrs};
use crate::validate::{InstanceId, ValidatedApp, ValidatedInstance};

/// Default scope size when a level has no configured pool.
pub const DEFAULT_SCOPE_SIZE: usize = 64 << 10;

/// Index of a wired in-port in [`AppCore::in_ports`], assigned once by
/// `AppBuilder::build`. Names are resolved to it at the API edge;
/// dispatch only ever indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PortId(pub usize);

pub(crate) struct OutPort {
    pub message_type: String,
    pub type_id: TypeId,
    pub pool: Arc<dyn AnyPool>,
    /// Connected in-ports, in CCL declaration order.
    pub targets: Vec<PortId>,
}

pub(crate) enum Dispatch {
    /// min = max = 0: the sender's thread runs the handler (paper §2.2).
    Synchronous,
    /// Buffered, pool-served dispatch.
    Async {
        pool: Arc<ThreadPool<rtmem::Ctx, Delivery>>,
        /// Per-priority-band admission watermarks: below the buffer size,
        /// low bands are refused first so the remaining slots stay
        /// reserved for higher-priority traffic. `disabled()` admits
        /// every band to full capacity (the historical behaviour).
        admission: rtplatform::fault::AdmissionPolicy,
    },
}

/// One accepted message on its way to an asynchronous in-port: what a
/// port's pool queues. Plain data, so handing a message to a worker
/// clones one `Arc` and allocates nothing.
pub(crate) struct Delivery {
    core: Arc<AppCore>,
    to: PortId,
    env: Envelope,
}

impl Task<rtmem::Ctx> for Delivery {
    fn run(self, ctx: &mut rtmem::Ctx, priority: Priority) {
        let Delivery { core, to, env } = self;
        let port = &core.in_ports[to.0];
        port.inflight.fetch_sub(1, Ordering::SeqCst);
        let delivered = core.process_envelope(ctx, port, env, priority, true);
        if delivered.is_err() {
            // The sender is long gone and the envelope is recycled: the
            // counters and the journal are the only trace this message
            // leaves.
            let s = &core.stats;
            s.obs.inc(s.undeliverable);
            s.obs.inc(port.undeliverable);
            let occupied = port.inflight.load(Ordering::Relaxed);
            s.obs
                .record(EventKind::Undeliverable, port.entity, occupied as u64);
        }
    }
}

/// One wired in-port: everything a delivery needs, resolved at build.
pub(crate) struct InPort {
    /// Port and instance names, kept for error values only: a refusal
    /// names its port with two reference counts, not two allocations.
    pub name: Arc<str>,
    pub instance_name: Arc<str>,
    pub instance: InstanceId,
    /// Position of this port's handler in its instance's activation.
    pub slot: usize,
    /// Builds this port's handler slot in a new activation record.
    pub handler: HandlerFactory,
    pub message_type: String,
    pub type_id: TypeId,
    /// Boxes for messages injected from outside the graph
    /// ([`App::send_to`]), recycled as an out-port's messages are;
    /// made by `make_pool` on the first injection.
    pub inject_pool: OnceLock<Arc<dyn AnyPool>>,
    pub make_pool: PoolFactory,
    pub dispatch: Dispatch,
    /// Buffer occupancy of an asynchronous port: claimed by `deliver`,
    /// given back when a worker takes the message.
    pub inflight: AtomicUsize,
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
    /// Per-port count of accepted messages a worker could not hand to
    /// the handler (activation or scope entry failed).
    pub undeliverable: CounterId,
}

/// One activation of an instance: the single record a delivery runs
/// against, shared between the instance's state and the holds in
/// flight. An instance keeps its record from one activation to the
/// next: [`AppCore::deactivate`] empties it and [`AppCore::materialize`]
/// refills it in place. The fields are declared in teardown order.
struct Activation {
    /// One handler per wired in-port, indexed by [`InPort::slot`].
    handlers: Vec<Mutex<Box<dyn ErasedHandler>>>,
    component: Mutex<Box<dyn Component>>,
    /// Wedge keeping the scope alive between messages (scoped only).
    wedge: Option<Wedge>,
    /// Lease back to the level pool (scoped, pooled).
    lease: Option<ScopeLease>,
    region: RegionId,
    /// Scoped regions from the outermost ancestor down to `region`
    /// (empty for immortal components, which run in the immortal base).
    /// Fixed for the activation: it holds its parent, so every region
    /// named here outlives this record. Inline to four levels, the
    /// deepest assembly in the tree.
    chain: SmallList<RegionId, 4>,
}

impl Activation {
    /// A record for `rt` with nothing in it: an empty handler slot per
    /// wired in-port, a zero-sized component, no scope.
    fn empty(rt: &InstanceRuntime, in_ports: &[InPort], immortal: RegionId) -> Activation {
        let slot = |&(_, port): &(String, PortId)| Mutex::new((in_ports[port.0].handler)());
        Activation {
            handlers: rt.in_ports.iter().map(slot).collect(),
            component: Mutex::new(Box::new(NullComponent)),
            wedge: None,
            lease: None,
            region: immortal,
            chain: SmallList::new(immortal),
        }
    }

    fn stop(&self) {
        let mut comp = self.component.lock();
        let _ = catch_unwind(AssertUnwindSafe(|| comp.stop()));
    }
}

struct ActivationState {
    active: Option<Arc<Activation>>,
    /// The emptied record the next activation refills; never shared.
    spare: Option<Arc<Activation>>,
    /// `start()` has returned for `active`; holds are handed out only
    /// after that.
    started: bool,
    holds: usize,
}

/// One counted hold on an instance, given back on drop.
struct HoldCount<'a> {
    core: &'a AppCore,
    id: InstanceId,
}

impl Drop for HoldCount<'_> {
    fn drop(&mut self) {
        self.core.release(self.id);
    }
}

/// A held instance: active by construction, so whoever has one reads
/// the activation without asking whether it is there.
struct Hold<'a> {
    /// Declared before `count`, so this clone is gone when the hold is
    /// given back and the last release owns the only reference to the
    /// record it tears down.
    active: Arc<Activation>,
    count: HoldCount<'a>,
}

impl Hold<'_> {
    /// Keeps the hold past this guard; whoever calls this owes one
    /// [`AppCore::release`].
    fn keep(self) {
        drop(self.active);
        std::mem::forget(self.count);
    }
}

/// Runtime state and resolved wiring of one instance; its name, class,
/// kind and parent are read from `AppCore::validated`.
pub(crate) struct InstanceRuntime {
    pub component: ComponentFactory,
    /// The scope pool of this instance's level, if one is configured.
    pub scope_pool: Option<ScopePool>,
    /// Wired in-ports by name; the position is the port's handler slot.
    pub in_ports: Vec<(String, PortId)>,
    /// Connected out-ports by name.
    pub out_ports: Vec<(String, OutPort)>,
    state: Mutex<ActivationState>,
    started_cv: Condvar,
    pub activations: AtomicU64,
    pub deactivations: AtomicU64,
}

/// The string edge of a per-instance port table: a component has a
/// handful of ports, so a scan by `&str` beats building a key.
pub(crate) fn by_port_name<'t, T>(table: &'t [(String, T)], port: &str) -> Option<&'t T> {
    let found = table.iter().find(|(name, _)| name == port);
    found.map(|(_, entry)| entry)
}

impl InstanceRuntime {
    pub(crate) fn new(
        component: ComponentFactory,
        scope_pool: Option<ScopePool>,
    ) -> InstanceRuntime {
        InstanceRuntime {
            component,
            scope_pool,
            in_ports: Vec::new(),
            out_ports: Vec::new(),
            state: Mutex::new(ActivationState {
                active: None,
                spare: None,
                started: false,
                holds: 0,
            }),
            started_cv: Condvar::new(),
            activations: AtomicU64::new(0),
            deactivations: AtomicU64::new(0),
        }
    }
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
    /// Accepted messages that never reached their handler because the
    /// target could not be activated or entered on the worker thread.
    pub messages_undeliverable: u64,
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
    undeliverable: CounterId,
    deadline_miss: CounterId,
    /// Injections boxed on the heap because their in-port's pool had
    /// every box out.
    inject_fallbacks: CounterId,
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
            undeliverable: obs.counter("compadres_undeliverable_total"),
            deadline_miss: obs.counter("compadres_deadline_miss_total"),
            inject_fallbacks: obs.counter("compadres_inject_fallbacks_total"),
            queue_wait: obs.histogram("compadres_queue_wait_ns"),
            handler_latency: obs.histogram("compadres_handler_latency_ns"),
            obs,
        }
    }
}

/// The resolved assembly: what `AppBuilder::build` emits and dispatch
/// indexes. Nothing in it changes after `build()` except the atomics
/// and the per-instance activation state.
pub(crate) struct AppCore {
    pub model: MemoryModel,
    /// Parallel to `validated.instances`.
    pub instances: Vec<InstanceRuntime>,
    pub by_name: HashMap<String, InstanceId>,
    pub in_ports: Vec<InPort>,
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

    /// Resolves `instance`.`port` to a wired in-port (the string edge of
    /// [`App::send_to`] and [`App::port_attrs`]).
    fn in_port(&self, instance: &str, port: &str) -> Result<PortId> {
        let id = self.instance_id(instance)?;
        by_port_name(&self.runtime(id).in_ports, port)
            .copied()
            .ok_or_else(|| CompadresError::NotFound {
                kind: "in-port",
                name: format!("{instance}.{port}"),
            })
    }

    fn runtime(&self, id: InstanceId) -> &InstanceRuntime {
        &self.instances[id.0]
    }

    fn declared(&self, id: InstanceId) -> &ValidatedInstance {
        &self.validated.instances[id.0]
    }

    /// Takes one hold on `id`, activating it first if it is inactive.
    /// The fast path is one acquisition of `id`'s state lock and touches
    /// no other instance: an activation holds its parent for as long as
    /// it lives, so the hierarchy above a held instance needs no proof.
    /// An activation's `start()` runs on `ctx`, the caller's memory
    /// context, when it has one.
    fn hold(
        self: &Arc<Self>,
        id: InstanceId,
        mut ctx: Option<&mut rtmem::Ctx>,
    ) -> Result<Hold<'_>> {
        let rt = self.runtime(id);
        let count = || HoldCount { core: self, id };
        // Slow path only. Declared before `g`: if another thread wins the
        // activation, the extra hold is given back after `id`'s lock is.
        let mut parent: Option<Hold<'_>> = None;
        let mut g = rt.state.lock();
        let activation = loop {
            // Wait out a concurrent activation's start().
            while g.active.is_some() && !g.started {
                rt.started_cv.wait(&mut g);
            }
            if let Some(active) = g.active.clone() {
                g.holds += 1;
                return Ok(Hold {
                    active,
                    count: count(),
                });
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(CompadresError::ShutDown);
            }
            match self.declared(id).parent {
                // Never two state locks at once, and the parent is held —
                // so started — before `id` is locked to be activated:
                // take the parent's hold unlocked, then look again.
                Some(p) if parent.is_none() => {
                    drop(g);
                    parent = Some(self.hold(p, ctx.as_deref_mut())?);
                    g = rt.state.lock();
                }
                _ => break self.materialize(id, parent.as_ref(), &mut g.spare)?,
            }
        };
        let held = Hold {
            active: activation,
            count: count(),
        };
        g.active = Some(Arc::clone(&held.active));
        g.started = false;
        g.holds += 1;
        drop(g);
        if let Some(parent) = parent {
            parent.keep(); // deactivate() gives it back
        }
        rt.activations.fetch_add(1, Ordering::Relaxed);

        // Run start() outside the state lock so it may send messages.
        let mut own;
        let ctx = match ctx {
            Some(ctx) => ctx,
            None => {
                own = rtmem::Ctx::no_heap(&self.model);
                &mut own
            }
        };
        let started = self.run_in_instance(ctx, &held, rtsched::current_priority(), |ctx| {
            let mut comp = held.active.component.lock();
            catch_unwind(AssertUnwindSafe(|| comp.start(ctx)))
        });
        rt.state.lock().started = true;
        rt.started_cv.notify_all();
        // An `Err` here means the region could not even be entered:
        // dropping `held` undoes the hold, which deactivates again if
        // this was the only holder.
        match started? {
            Ok(Ok(())) => {}
            Ok(Err(_)) => self.stats.obs.inc(self.stats.handler_errors),
            Err(_panic) => self.stats.obs.inc(self.stats.handler_panics),
        }
        Ok(held)
    }

    /// Fills the activation record of `id`: region + wedge + handlers +
    /// component, under `parent`'s region. The record is `spare`, the
    /// one the last deactivation emptied, or a new one on the first
    /// activation. The caller holds `id`'s state lock and, through
    /// `parent`, the instance above it.
    fn materialize(
        &self,
        id: InstanceId,
        parent: Option<&Hold<'_>>,
        spare: &mut Option<Arc<Activation>>,
    ) -> Result<Arc<Activation>> {
        let rt = self.runtime(id);
        let immortal = self.model.immortal();
        // Everything that can fail comes before the record is taken: a
        // failure drops the wedge, then the lease (teardown order), and
        // leaves the record with the instance.
        let (region, chain, lease, wedge) = match self.declared(id).kind {
            ComponentKind::Immortal => (immortal, SmallList::new(immortal), None, None),
            ComponentKind::Scoped { .. } => {
                let (parent_region, mut chain) = match parent {
                    Some(p) => (p.active.region, p.active.chain.clone()),
                    None => (immortal, SmallList::new(immortal)),
                };
                let (region, lease) = match &rt.scope_pool {
                    Some(pool) => {
                        let lease = pool.acquire()?;
                        (lease.region(), Some(lease))
                    }
                    None => (self.model.create_scoped(DEFAULT_SCOPE_SIZE)?, None),
                };
                let wedge = Wedge::pin_under(&self.model, region, parent_region)?;
                chain.push(region);
                (region, chain, lease, Some(wedge))
            }
        };
        let mut record = spare
            .take()
            .unwrap_or_else(|| Arc::new(Activation::empty(rt, &self.in_ports, immortal)));
        let rec = Arc::get_mut(&mut record).expect("an inactive record has one owner");
        rec.handlers.iter().for_each(|slot| slot.lock().fill());
        *rec.component.lock() = (rt.component)();
        rec.wedge = wedge;
        rec.lease = lease;
        rec.region = region;
        rec.chain = chain;
        Ok(record)
    }

    /// Gives one hold on `id` back; the last one on a scoped instance
    /// deactivates it.
    fn release(&self, id: InstanceId) {
        let decl = self.declared(id);
        let last = {
            let mut g = self.runtime(id).state.lock();
            debug_assert!(g.holds > 0, "unbalanced release on {}", decl.name);
            g.holds = g.holds.saturating_sub(1);
            if g.holds == 0 && decl.kind.is_scoped() {
                g.active.take()
            } else {
                None
            }
        };
        if let Some(active) = last {
            debug_assert_eq!(Arc::strong_count(&active), 1, "no hold, no reference");
            self.deactivate(id, active);
        }
    }

    /// Tears one activation down in the order stop, handlers, component,
    /// wedge, lease, hold on the parent — so a parent is never reclaimed
    /// under a child that still pins it. The emptied record goes back to
    /// the instance for its next activation.
    fn deactivate(&self, id: InstanceId, mut active: Arc<Activation>) {
        active.stop();
        // The releasing hold dropped its clone first, so this is the
        // last reference — except under shutdown() with a delivery still
        // in flight, whose hold then drops the record (in the same order:
        // the fields are declared in it) and the next one is built anew.
        let rt = self.runtime(id);
        if let Some(rec) = Arc::get_mut(&mut active) {
            rec.handlers.iter().for_each(|slot| slot.lock().clear());
            *rec.component.lock() = Box::new(NullComponent); // zero-sized: no allocation
            drop(rec.wedge.take()); // reclaims the region if nothing else pins it
            drop(rec.lease.take()); // returns the region to its pool
            rt.state.lock().spare = Some(active);
        }
        rt.deactivations.fetch_add(1, Ordering::Relaxed);
        if let Some(parent) = self.declared(id).parent {
            self.release(parent);
        }
    }

    /// Holds `id` until the returned handle drops (`connect()`).
    fn connect(self: &Arc<Self>, id: InstanceId) -> Result<ChildHandle> {
        self.hold(id, None)?.keep();
        Ok(ChildHandle {
            core: Arc::clone(self),
            id,
        })
    }

    /// Positions `ctx` inside the held instance's memory area (entering
    /// ancestors as needed, backing out to a common ancestor first — the
    /// handoff pattern) and runs `f` there with a [`HandlerCtx`].
    fn run_in_instance<R>(
        self: &Arc<Self>,
        ctx: &mut rtmem::Ctx,
        held: &Hold<'_>,
        priority: Priority,
        f: impl FnOnce(&mut HandlerCtx<'_>) -> R,
    ) -> Result<R> {
        let chain: &[RegionId] = &held.active.chain;
        let f = |ctx: &mut rtmem::Ctx| {
            f(&mut HandlerCtx {
                core: self,
                mem: ctx,
                instance: held.count.id,
                priority,
            })
        };
        // Find the deepest chain region already on the caller's stack and
        // jump there (executeInArea), then enter the rest.
        let out = match chain.iter().rposition(|r| ctx.stack().contains(r)) {
            Some(i) => ctx.execute_in(chain[i], |ctx| ctx.enter_chain(&chain[i + 1..], f))?,
            None => ctx.execute_in(self.model.immortal(), |ctx| ctx.enter_chain(chain, f))?,
        };
        Ok(out?)
    }

    /// Delivers an envelope to an in-port. `sender_ctx` is `Some` when the
    /// sending thread can run synchronous handlers in place.
    pub(crate) fn deliver(
        self: &Arc<Self>,
        sender_ctx: Option<&mut rtmem::Ctx>,
        to: PortId,
        mut env: Envelope,
    ) -> Result<()> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(CompadresError::ShutDown);
        }
        let port = &self.in_ports[to.0];
        let obs = &self.stats.obs;
        if obs.enabled() {
            // The hop's span: a child of the sender's trace, or a fresh
            // root for a message arriving from outside any trace. A few
            // Copy words and one journal record, stamped with it.
            let parent = span::current();
            env.span = if parent.is_active() {
                obs.child_span(parent)
            } else {
                obs.new_trace(None)
            };
            env.enqueued_ns = obs.now_ns();
            obs.record_at(
                EventKind::PortEnqueue,
                port.entity,
                u64::from(env.priority.value()),
                env.enqueued_ns,
                env.span,
            );
        }
        let priority = env.priority;
        match &port.dispatch {
            Dispatch::Synchronous => match sender_ctx {
                Some(ctx) => self.process_envelope(ctx, port, env, priority, false),
                None => {
                    let mut ctx = rtmem::Ctx::no_heap(&self.model);
                    self.process_envelope(&mut ctx, port, env, priority, false)
                }
            },
            Dispatch::Async { pool, admission } => {
                // Bounded admission: the port buffer (CCL BufferSize),
                // narrowed per priority band by the admission policy so
                // overload sheds low bands while slots stay reserved for
                // high-priority traffic.
                let buffer_size = port.attrs.buffer_size;
                if let Err(limit) = admission.claim(&port.inflight, priority.value(), buffer_size) {
                    if limit < buffer_size {
                        // Band watermark, not capacity: this is a shed.
                        obs.inc(self.stats.shed);
                        obs.inc(port.shed);
                        obs.record(
                            EventKind::PortShed,
                            port.entity,
                            u64::from(priority.value()),
                        );
                        return Err(CompadresError::Shed {
                            instance: Arc::clone(&port.instance_name),
                            port: Arc::clone(&port.name),
                            priority: priority.value(),
                        });
                    }
                    obs.inc(self.stats.buffer_rejections);
                    obs.record(EventKind::BufferDrop, port.entity, limit as u64);
                    return Err(CompadresError::BufferFull {
                        instance: Arc::clone(&port.instance_name),
                        port: Arc::clone(&port.name),
                    });
                }
                let core = Arc::clone(self);
                if !pool.submit(priority, Delivery { core, to, env }) {
                    port.inflight.fetch_sub(1, Ordering::SeqCst);
                    return Err(CompadresError::ShutDown);
                }
                Ok(())
            }
        }
    }

    /// Runs the handler for one envelope inside the target's memory area.
    /// `queued` is true on the async path (the envelope actually sat in a
    /// buffer); sync hops skip the dequeue event — their wait is ~0 by
    /// construction and the reconstructor treats absence as such.
    fn process_envelope(
        self: &Arc<Self>,
        ctx: &mut rtmem::Ctx,
        port: &InPort,
        env: Envelope,
        priority: Priority,
        queued: bool,
    ) -> Result<()> {
        // Dequeue edge of the trace: how long the envelope waited between
        // admission and a worker (or the sender's thread) picking it up.
        // An envelope admitted while the observer was off was never
        // stamped and has no wait to report.
        let entity = port.entity;
        let span_ctx = env.span;
        let obs = &self.stats.obs;
        if obs.enabled() && env.enqueued_ns != 0 {
            let now = obs.now_ns();
            let wait_ns = now.saturating_sub(env.enqueued_ns);
            obs.observe(self.stats.queue_wait, wait_ns);
            if queued {
                obs.record_at(EventKind::PortDequeue, entity, wait_ns, now, span_ctx);
            }
        }
        let held = self.hold(port.instance, Some(&mut *ctx))?;
        let handler = &held.active.handlers[port.slot];
        self.run_in_instance(ctx, &held, priority, |hctx| {
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
                                span_ctx,
                            );
                        }
                        let outcome =
                            catch_unwind(AssertUnwindSafe(|| h.process_any(payload, hctx)));
                        let s = &hctx.core.stats;
                        if started {
                            let elapsed = s.obs.now_ns().saturating_sub(t0);
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
                                    s.obs.inc(port.deadline_miss);
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
        })
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

impl<'a> HandlerCtx<'a> {
    /// Name of the component instance being executed.
    pub fn instance_name(&self) -> &str {
        &self.core.declared(self.instance).name
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
        let out = self.out_port(port)?;
        let mismatch = || CompadresError::MessageTypeMismatch {
            port: port.to_string(),
            expected: out.message_type.clone(),
        };
        if out.type_id != TypeId::of::<M>() {
            return Err(mismatch());
        }
        let payload = out
            .pool
            .get_any()
            .ok_or_else(|| CompadresError::MessagePoolExhausted {
                message_type: out.message_type.clone(),
            })?;
        let boxed = payload.downcast::<M>().map_err(|_| mismatch())?;
        Ok(PooledMsg::from_erased(boxed, Arc::clone(&out.pool)))
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
        let out = self.out_port(port)?;
        let &[target] = out.targets.as_slice() else {
            return Err(CompadresError::NotFound {
                kind: "single connection for out-port",
                name: format!(
                    "{}.{port} ({} targets)",
                    self.instance_name(),
                    out.targets.len()
                ),
            });
        };
        if out.type_id != TypeId::of::<M>() {
            return Err(CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected: out.message_type.clone(),
            });
        }
        let env = msg.into_envelope(priority.into());
        self.core.stats.obs.inc(self.core.stats.sent);
        self.core.deliver(Some(self.mem), target, env)
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
        let targets = &self.out_port(port)?.targets;
        for &target in targets {
            let mut msg = self.get_message::<M>(port)?;
            *msg = value.clone();
            let env = msg.into_envelope(priority);
            self.core.stats.obs.inc(self.core.stats.sent);
            self.core.deliver(Some(self.mem), target, env)?;
        }
        Ok(targets.len())
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
        if self.core.declared(id).parent != Some(self.instance) {
            return Err(CompadresError::NotFound {
                kind: "child component",
                name: child.to_string(),
            });
        }
        self.core.connect(id)
    }

    /// The string edge of the out-port API: one scan of this instance's
    /// few connected out-ports. The result borrows the wiring table, not
    /// `self`, so a send can still hand `self.mem` to the target.
    fn out_port(&self, port: &str) -> Result<&'a OutPort> {
        let core: &'a AppCore = self.core;
        by_port_name(&core.runtime(self.instance).out_ports, port).ok_or_else(|| {
            CompadresError::NotFound {
                kind: "out-port",
                name: format!("{}.{port}", self.instance_name()),
            }
        })
    }
}

/// Keep-alive handle for a scoped child component (the paper's SMM
/// `connect()` handle). Dropping it is equivalent to `disconnect()`.
pub struct ChildHandle {
    core: Arc<AppCore>,
    id: InstanceId,
}

impl std::fmt::Debug for ChildHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChildHandle({})", self.instance_name())
    }
}

impl ChildHandle {
    /// The kept-alive instance's name.
    pub fn instance_name(&self) -> &str {
        &self.core.declared(self.id).name
    }

    /// Releases the child — the paper's `disconnect(handle)`. Its scope is
    /// reclaimed once no messages are in flight for it.
    pub fn disconnect(self) {
        drop(self);
    }
}

impl Drop for ChildHandle {
    fn drop(&mut self) {
        self.core.release(self.id);
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
            .field("name", &self.name())
            .field("instances", &self.core.instances.len())
            .finish()
    }
}

impl App {
    /// Application name from the CCL.
    pub fn name(&self) -> &str {
        &self.core.validated.name
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
        for decl in &self.core.validated.instances {
            if !decl.kind.is_scoped() {
                // An immortal instance never deactivates, so the hold
                // that activated it goes straight back.
                self.core.hold(decl.id, None)?;
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
        self.inject(None, instance, port, value, priority.into())
    }

    /// [`send_to`](App::send_to) from a thread that keeps a memory
    /// context of this application's model (`Ctx::no_heap(app.model())`)
    /// across calls: synchronous handlers run on `ctx` instead of on
    /// one made for this delivery.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`HandlerCtx::send`].
    pub fn send_to_on<M: Message>(
        &self,
        ctx: &mut rtmem::Ctx,
        instance: &str,
        port: &str,
        value: M,
        priority: impl Into<Priority>,
    ) -> Result<()> {
        self.inject(Some(ctx), instance, port, value, priority.into())
    }

    fn inject<M: Message>(
        &self,
        ctx: Option<&mut rtmem::Ctx>,
        instance: &str,
        port: &str,
        value: M,
        priority: Priority,
    ) -> Result<()> {
        let to = self.core.in_port(instance, port)?;
        let info = &self.core.in_ports[to.0];
        if info.type_id != TypeId::of::<M>() {
            return Err(CompadresError::MessageTypeMismatch {
                port: port.to_string(),
                expected: info.message_type.clone(),
            });
        }
        // Sized as an out-port's pool: the port's buffer plus slack.
        let pool = info.inject_pool.get_or_init(|| {
            (info.make_pool)(&info.message_type, info.attrs.buffer_size.max(4) + 2)
        });
        let stats = &self.core.stats;
        let env = Envelope::injected(value, priority, pool).unwrap_or_else(|value| {
            // Every box is out: box this one afresh rather than refuse.
            stats.obs.inc(stats.inject_fallbacks);
            Envelope::from_value(value, priority)
        });
        stats.obs.inc(stats.sent);
        self.core.deliver(ctx, to, env)
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
        self.with_component_on(&mut rtmem::Ctx::no_heap(&self.core.model), instance, f)
    }

    /// [`with_component`](App::with_component) on a memory context of
    /// this application's model that the caller keeps across calls.
    ///
    /// # Errors
    ///
    /// Fails if the instance does not exist or cannot be activated.
    pub fn with_component_on<R>(
        &self,
        ctx: &mut rtmem::Ctx,
        instance: &str,
        f: impl FnOnce(&mut HandlerCtx<'_>) -> R,
    ) -> Result<R> {
        let held = self
            .core
            .hold(self.core.instance_id(instance)?, Some(&mut *ctx))?;
        self.core
            .run_in_instance(ctx, &held, rtsched::current_priority(), f)
    }

    /// Keeps `instance` (and its ancestors) alive until the handle drops —
    /// an external `connect()` used by harnesses and parents alike.
    ///
    /// # Errors
    ///
    /// Fails if the instance does not exist or cannot be activated.
    pub fn connect(&self, instance: &str) -> Result<ChildHandle> {
        self.core.connect(self.core.instance_id(instance)?)
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
        let pid = self.core.in_port(instance, port)?;
        Ok(self.core.in_ports[pid.0].attrs)
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
            messages_undeliverable: s.obs.counter_value(s.undeliverable),
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
        for (rt, decl) in self
            .core
            .instances
            .iter()
            .zip(&self.core.validated.instances)
        {
            let activations = rt.activations.load(Ordering::Relaxed);
            let region = {
                let g = rt.state.lock();
                g.active.as_ref().map(|a| a.region)
            };
            let snapshot = region.and_then(|r| self.core.model.snapshot(r).ok());
            instances.push(InstanceMemory {
                name: decl.name.clone(),
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
            self.core.in_ports.iter().filter_map(|p| match &p.dispatch {
                Dispatch::Async { pool, .. } => Some((pool, &p.inflight)),
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
        for info in &self.core.in_ports {
            if let Dispatch::Async { pool, .. } = &info.dispatch {
                pool.shutdown();
            }
        }
        // Deactivate what is still active (children first = reverse
        // declaration order). Holds still out (live ChildHandles) keep
        // their counts and decay harmlessly after this teardown.
        for (rt, decl) in self
            .core
            .instances
            .iter()
            .zip(&self.core.validated.instances)
            .rev()
        {
            let Some(active) = rt.state.lock().active.take() else {
                continue;
            };
            if decl.kind.is_scoped() {
                self.core.deactivate(decl.id, active);
            } else {
                active.stop();
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Each priority band of a port's pool preallocates a 256-slot ring
    /// of these, and every slot a ring uses is eventually touched: the
    /// slot's size is resident memory on every asynchronous workload.
    /// Anything more per job belongs in the envelope it already carries.
    #[test]
    fn a_queued_delivery_stays_within_96_bytes() {
        let size = std::mem::size_of::<(rtobs::SpanCtx, Delivery)>();
        assert!(size <= 96, "a queued delivery is {size} bytes");
    }
}
