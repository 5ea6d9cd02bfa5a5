//! Building a runnable [`App`] from CDL + CCL + registered Rust code.
//!
//! This is the synthesis half of the Compadres compiler: where the paper
//! generates Java glue source, this builder constructs the equivalent
//! runtime structures directly — memory regions and pools, port buffers,
//! thread pools and the wiring table. Every name in the documents is
//! resolved here, once; the runtime only indexes what `build` emits.

use std::any::TypeId;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::{Arc, OnceLock};

use rtmem::{MemoryModel, ScopePool};
use rtobs::Observer;
use rtplatform::fault::AdmissionPolicy;
use rtsched::{PoolConfig, ThreadPool};

use crate::component::{
    Component, ComponentFactory, ErasedHandler, HandlerFactory, MessageHandler, NullComponent,
    TypedHandler,
};
use crate::error::{CompadresError, Result};
use crate::message::{Message, MessagePool, PoolFactory};
use crate::model::{Ccl, Cdl, ComponentKind, PortAttrs, PortDirection, ThreadpoolStrategy};
use crate::runtime::{
    by_port_name, App, AppCore, CoreObs, Dispatch, InPort, InstanceRuntime, OutPort, PortId,
};
use crate::validate::{validate, ValidatedApp};

/// Size of the heap region every application gets.
const HEAP_SIZE: usize = 4 << 20;

/// Lowercases and underscores a CCL name so it can appear inside a
/// Prometheus-style metric name.
fn metric_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

struct MessageBinding {
    type_id: TypeId,
    rust_type: &'static str,
    make_pool: PoolFactory,
}

struct RegisteredHandler {
    factory: HandlerFactory,
    message_type_id: TypeId,
}

/// Builder assembling an [`App`] from the declarative CDL/CCL documents
/// and the imperative pieces the programmer supplies: message-type
/// bindings, component factories and message-handler factories.
///
/// # Examples
///
/// See the crate-level docs for a complete client–server example.
pub struct AppBuilder {
    cdl: Cdl,
    ccl: Ccl,
    message_bindings: HashMap<String, MessageBinding>,
    component_factories: HashMap<String, ComponentFactory>,
    handler_factories: HashMap<(String, String), RegisteredHandler>,
    port_admission: HashMap<(String, String), AdmissionPolicy>,
}

impl std::fmt::Debug for AppBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppBuilder")
            .field("application", &self.ccl.application_name)
            .field("classes", &self.cdl.components.len())
            .field("bindings", &self.message_bindings.len())
            .finish()
    }
}

impl AppBuilder {
    /// Starts a builder from already-parsed documents.
    pub fn from_model(cdl: Cdl, ccl: Ccl) -> Self {
        AppBuilder {
            cdl,
            ccl,
            message_bindings: HashMap::new(),
            component_factories: HashMap::new(),
            handler_factories: HashMap::new(),
            port_admission: HashMap::new(),
        }
    }

    /// Starts a builder by parsing CDL and CCL XML sources.
    ///
    /// # Errors
    ///
    /// Parse errors from either document.
    pub fn from_xml(cdl: &str, ccl: &str) -> Result<Self> {
        Ok(Self::from_model(
            crate::parse::parse_cdl(cdl)?,
            crate::parse::parse_ccl(ccl)?,
        ))
    }

    /// Binds the CDL message type `name` to the Rust type `M`
    /// (constructed via `Default` for pooling).
    pub fn bind_message_type<M: Message + Default>(self, name: &str) -> Self {
        self.bind_message_type_with(name, M::default)
    }

    /// Binds the CDL message type `name` to the Rust type `M`, whose
    /// pooled objects `factory` makes. For messages that implement
    /// [`Message`] themselves so that [`Message::reset`] can keep what a
    /// `Default` would throw away — buffers that hold their capacity
    /// from one send to the next.
    pub fn bind_message_type_with<M: Message>(
        mut self,
        name: &str,
        factory: impl Fn() -> M + Send + Sync + 'static,
    ) -> Self {
        // One pool per out-port carrying the type, and one per in-port
        // for injections, all made by `factory`.
        let factory = Arc::new(factory);
        let make_pool = Arc::new(move |mt: &str, capacity: usize| {
            let factory = Arc::clone(&factory);
            MessagePool::<M>::new(mt, capacity, move || factory(), None)
                .expect("unaccounted pool creation cannot fail")
                .as_any_pool()
        });
        self.message_bindings.insert(
            name.to_string(),
            MessageBinding {
                type_id: TypeId::of::<M>(),
                rust_type: std::any::type_name::<M>(),
                make_pool,
            },
        );
        self
    }

    /// Registers the factory for a CDL component class.
    pub fn register_component(
        mut self,
        class: &str,
        factory: impl Fn() -> Box<dyn Component> + Send + Sync + 'static,
    ) -> Self {
        self.component_factories
            .insert(class.to_string(), Arc::new(factory));
        self
    }

    /// Registers the message handler for `class`'s in-port `port`.
    /// `factory` is invoked at every activation of an instance of `class`.
    pub fn register_handler<M, H>(
        mut self,
        class: &str,
        port: &str,
        factory: impl Fn() -> H + Send + Sync + 'static,
    ) -> Self
    where
        M: Message,
        H: MessageHandler<M> + 'static,
    {
        // Every activation record's slot for this port shares `factory`.
        let factory: Arc<dyn Fn() -> H + Send + Sync> = Arc::new(factory);
        let erased = Arc::new(move || {
            Box::new(TypedHandler::new(Arc::clone(&factory))) as Box<dyn ErasedHandler>
        });
        self.handler_factories.insert(
            (class.to_string(), port.to_string()),
            RegisteredHandler {
                factory: erased,
                message_type_id: TypeId::of::<M>(),
            },
        );
        self
    }

    /// Registers an **adapter** handler for `class`'s in-port `in_port`:
    /// every incoming `A` is converted by `convert` and forwarded through
    /// `out_port` as a `B` at the same priority.
    ///
    /// This is the paper's mechanism for joining ports of non-matching
    /// message types (§2.2: "adapter components may be introduced to
    /// connect two non-matching types"): declare an adapter component in
    /// the CDL with an `A`-typed in-port and a `B`-typed out-port, place
    /// it between the two components in the CCL, and register the
    /// conversion here.
    pub fn register_adapter<A, B>(
        self,
        class: &str,
        in_port: &str,
        out_port: &str,
        convert: impl Fn(&A) -> B + Send + Sync + Clone + 'static,
    ) -> Self
    where
        A: Message,
        B: Message,
    {
        let out_port = out_port.to_string();
        self.register_handler(class, in_port, move || {
            let out_port = out_port.clone();
            let convert = convert.clone();
            move |msg: &mut A, ctx: &mut crate::runtime::HandlerCtx<'_>| {
                let mut converted = ctx.get_message::<B>(&out_port)?;
                *converted = convert(msg);
                ctx.send(&out_port, converted, ctx.priority())
            }
        })
    }

    /// Sets the priority-band admission policy of one asynchronous
    /// in-port (`instance`.`port`). Under overload, occupancy above a
    /// band's watermark sheds that band ([`CompadresError::Shed`]) while
    /// slots stay reserved for higher-priority traffic. A port without a
    /// policy admits every band to full capacity
    /// ([`AdmissionPolicy::disabled`]).
    pub fn port_admission(mut self, instance: &str, port: &str, policy: AdmissionPolicy) -> Self {
        self.port_admission
            .insert((instance.to_string(), port.to_string()), policy);
        self
    }

    /// Validates the composition and constructs the application: memory
    /// regions and scope pools, message pools in the common-ancestor
    /// areas, port buffers, thread pools and the wiring table.
    ///
    /// # Errors
    ///
    /// * [`CompadresError::Validation`] — the composition violates a rule.
    /// * [`CompadresError::MissingFactory`] — a connected in-port has no
    ///   registered handler, or a message type on a connection is unbound.
    /// * [`CompadresError::MessageTypeMismatch`] — a registered handler's
    ///   Rust message type disagrees with the port's bound type.
    pub fn build(self) -> Result<App> {
        let vapp: ValidatedApp = validate(&self.cdl, &self.ccl)?;
        let model = MemoryModel::with_sizes(HEAP_SIZE, vapp.rtsj.immortal_size.max(64 << 10));

        // One observability domain for the whole app. The memory model
        // must carry it *before* scope pools are created: pools resolve
        // their observer hook at construction.
        let obs = Observer::new();
        model.set_observer(&obs);

        // Scope pools per level (CCL RTSJAttributes).
        let mut scope_pools = HashMap::new();
        for cfg in &vapp.rtsj.scoped_pools {
            scope_pools.insert(
                cfg.level,
                ScopePool::new(&model, cfg.level, cfg.scope_size, cfg.pool_size)?,
            );
        }

        // One runtime record per instance, carrying what activation
        // needs: component factory and the level's scope pool.
        let null_component: ComponentFactory = Arc::new(|| Box::new(NullComponent));
        let mut instances: Vec<InstanceRuntime> = Vec::with_capacity(vapp.instances.len());
        let mut by_name = HashMap::new();
        for vi in &vapp.instances {
            by_name.insert(vi.name.clone(), vi.id);
            let component = self.component_factories.get(&vi.class);
            let scope_pool = match vi.kind {
                ComponentKind::Scoped { level } => scope_pools.get(&level).cloned(),
                ComponentKind::Immortal => None,
            };
            instances.push(InstanceRuntime::new(
                Arc::clone(component.unwrap_or(&null_component)),
                scope_pool,
            ));
        }

        // Wire every in-port that can receive messages: connected ports
        // must have a handler; unconnected ports are wired too when a
        // handler is registered (they may be fed externally, e.g. through
        // a remote port exporter or `App::send_to`). Fan-in needs nothing
        // special: several connections name the one in-port.
        let new_pool = |attrs: PortAttrs, label: &str| {
            let m = model.clone();
            let cfg = PoolConfig {
                min_threads: attrs.min_threads.max(1),
                max_threads: attrs.max_threads.max(1),
                ..PoolConfig::default()
            };
            let pool = Arc::new(ThreadPool::new(cfg, move || rtmem::Ctx::no_heap(&m)));
            pool.set_observer(&obs, &metric_safe(label));
            pool
        };
        let connected_in: HashSet<_> = vapp
            .connections
            .iter()
            .map(|c| (c.to.0, c.to.1.as_str()))
            .collect();
        let mut in_ports: Vec<InPort> = Vec::new();
        for vi in &vapp.instances {
            let class = self.cdl.component(&vi.class).expect("validated");
            // A "Shared" pool serves all such ports of one instance;
            // "Dedicated" ports get their own.
            let mut shared_pool = None;
            let instance_name: Arc<str> = vi.name.as_str().into();
            for (port, &attrs) in &vi.port_attrs {
                let port_def = class.port(port).expect("validated");
                debug_assert_eq!(port_def.direction, PortDirection::In);
                let registered = self
                    .handler_factories
                    .get(&(vi.class.clone(), port.clone()));
                let reg = match (registered, connected_in.contains(&(vi.id, port.as_str()))) {
                    (Some(reg), _) => reg,
                    // Connected ports must have a handler…
                    (None, true) => {
                        return Err(CompadresError::MissingFactory {
                            class: vi.class.clone(),
                            port: Some(port.clone()),
                        })
                    }
                    // …unconnected, unhandled ports stay unwired (warned).
                    (None, false) => continue,
                };
                let binding = self
                    .message_bindings
                    .get(&port_def.message_type)
                    .ok_or_else(|| {
                        CompadresError::Validation(format!(
                            "message type {:?} used by {}.{} has no Rust binding; \
                             call bind_message_type",
                            port_def.message_type, vi.name, port
                        ))
                    })?;
                if reg.message_type_id != binding.type_id {
                    return Err(CompadresError::MessageTypeMismatch {
                        port: format!("{}.{}", vi.name, port),
                        expected: format!(
                            "{} (bound to {})",
                            port_def.message_type, binding.rust_type
                        ),
                    });
                }

                let qualified = format!("{}.{}", vi.name, port);
                let metric = metric_safe(&qualified);
                let dispatch = if attrs.is_synchronous() {
                    Dispatch::Synchronous
                } else {
                    let pool = match attrs.strategy {
                        ThreadpoolStrategy::Dedicated => new_pool(attrs, &qualified),
                        _ => {
                            Arc::clone(shared_pool.get_or_insert_with(|| new_pool(attrs, &vi.name)))
                        }
                    };
                    let admission = self.port_admission.get(&(vi.name.clone(), port.clone()));
                    Dispatch::Async {
                        pool,
                        admission: admission.copied().unwrap_or(AdmissionPolicy::disabled()),
                    }
                };
                let wired = &mut instances[vi.id.0].in_ports;
                wired.push((port.clone(), PortId(in_ports.len())));
                in_ports.push(InPort {
                    name: port.as_str().into(),
                    instance_name: Arc::clone(&instance_name),
                    instance: vi.id,
                    slot: wired.len() - 1,
                    handler: Arc::clone(&reg.factory),
                    message_type: port_def.message_type.clone(),
                    type_id: binding.type_id,
                    inject_pool: OnceLock::new(),
                    make_pool: Arc::clone(&binding.make_pool),
                    dispatch,
                    inflight: AtomicUsize::new(0),
                    attrs,
                    entity: obs.register_entity(&qualified),
                    deadline_miss: obs.counter(&format!("compadres_deadline_miss_{metric}_total")),
                    shed: obs.counter(&format!("compadres_shed_{metric}_total")),
                    undeliverable: obs.counter(&format!("compadres_undeliverable_{metric}_total")),
                });
            }
        }

        // Out-port routing + message pools in the common-ancestor area.
        for conn in &vapp.connections {
            let target = *by_port_name(&instances[conn.to.0 .0].in_ports, &conn.to.1)
                .expect("connected in-ports are wired");
            let outs = &mut instances[conn.from.0 .0].out_ports;
            if let Some((_, out)) = outs.iter_mut().find(|(name, _)| *name == conn.from.1) {
                out.targets.push(target);
                continue;
            }
            let binding = self
                .message_bindings
                .get(&conn.message_type)
                .ok_or_else(|| {
                    CompadresError::Validation(format!(
                        "message type {:?} on connection has no Rust binding",
                        conn.message_type
                    ))
                })?;
            // Pool capacity: enough for every target buffer plus
            // slack for in-preparation messages.
            let cap: usize = vapp
                .connections
                .iter()
                .filter(|c| c.from == conn.from)
                .map(|c| vapp.instances[c.to.0 .0].port_attrs[&c.to.1].buffer_size)
                .sum::<usize>()
                .max(4)
                + 2;
            outs.push((
                conn.from.1.clone(),
                OutPort {
                    message_type: conn.message_type.clone(),
                    type_id: binding.type_id,
                    pool: (binding.make_pool)(&conn.message_type, cap),
                    targets: vec![target],
                },
            ));
        }

        let core = AppCore {
            model,
            instances,
            by_name,
            in_ports,
            stats: CoreObs::new(obs),
            shutdown: AtomicBool::new(false),
            validated: vapp,
        };
        Ok(App {
            core: Arc::new(core),
        })
    }

    /// Validates without building; returns warnings.
    ///
    /// # Errors
    ///
    /// Same as [`AppBuilder::build`]'s validation stage.
    pub fn check(&self) -> Result<Vec<String>> {
        Ok(validate(&self.cdl, &self.ccl)?.warnings)
    }
}
