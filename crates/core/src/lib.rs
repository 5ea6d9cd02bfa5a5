//! # compadres-core — the Compadres component framework in Rust
//!
//! A faithful reproduction of the component model from *"Compadres: A
//! Lightweight Component Middleware Framework for Composing Distributed
//! Real-time Embedded Systems with Real-time Java"* (Hu, Gorappa,
//! Colmenares, Klefstad — MIDDLEWARE 2007), with the RTSJ replaced by the
//! [`rtmem`] scoped-memory model and [`rtsched`] threading substrate.
//!
//! ## Development flow (paper Fig. 1)
//!
//! 1. **Component definition** — write a CDL file declaring components and
//!    their typed ports ([`parse_cdl`]). The `compadres-compiler` crate
//!    generates Rust skeletons from it.
//! 2. **Component composition** — write a CCL file wiring instances
//!    together with buffer sizes, threadpools, scope levels and scope
//!    pools ([`parse_ccl`]).
//! 3. Implement components ([`Component`]) and per-in-port message
//!    handlers ([`MessageHandler`]) in plain Rust — no memory-model code.
//! 4. [`AppBuilder`] validates the composition (port directions, exact
//!    message-type matches, no loops, scope legality — [`validate`]) and
//!    assembles the runtime: the equivalent of the generated RTSJ glue.
//!
//! ## Memory architecture
//!
//! Each component instance lives in its own memory area: immortal
//! components in immortal memory, scoped components in a pooled
//! linear-time scope at their declared level. Messages are pooled,
//! strongly typed objects allocated in the **common ancestor's** area (the
//! shared-object pattern) so both endpoints may legally reference them;
//! scoped components are materialized by their parent's scoped-memory
//! manager when messages arrive and reclaimed when idle, unless kept alive
//! via `connect()` ([`HandlerCtx::connect`] / [`App::connect`]).
//!
//! ## Example — the paper's co-located client–server (Fig. 6)
//!
//! ```
//! use compadres_core::{AppBuilder, Priority};
//! use std::sync::mpsc;
//!
//! #[derive(Debug, Default, Clone)]
//! struct MyInteger { value: i32 }
//!
//! let cdl = r#"
//! <Components>
//!   <Component>
//!     <ComponentName>Client</ComponentName>
//!     <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
//!     <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
//!   </Component>
//!   <Component>
//!     <ComponentName>Server</ComponentName>
//!     <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
//!   </Component>
//! </Components>"#;
//!
//! let ccl = r#"
//! <Application>
//!   <ApplicationName>PingApp</ApplicationName>
//!   <Component>
//!     <InstanceName>Root</InstanceName>
//!     <ClassName>Client</ClassName>
//!     <ComponentType>Immortal</ComponentType>
//!     <Component>
//!       <InstanceName>MyClient</InstanceName>
//!       <ClassName>Client</ClassName>
//!       <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
//!       <Connection>
//!         <Port><PortName>P3</PortName>
//!           <Link><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
//!         </Port>
//!         <Port><PortName>P2</PortName>
//!           <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
//!         </Port>
//!       </Connection>
//!     </Component>
//!     <Component>
//!       <InstanceName>MyServer</InstanceName>
//!       <ClassName>Server</ClassName>
//!       <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
//!       <Connection>
//!         <Port><PortName>P4</PortName>
//!           <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
//!         </Port>
//!       </Connection>
//!     </Component>
//!   </Component>
//! </Application>"#;
//!
//! let (tx, rx) = mpsc::channel();
//! let app = AppBuilder::from_xml(cdl, ccl)?
//!     .bind_message_type::<MyInteger>("MyInteger")
//!     .register_handler("Client", "P2", || {
//!         |_msg: &mut MyInteger, _ctx: &mut compadres_core::HandlerCtx<'_>| Ok(())
//!     })
//!     .register_handler("Server", "P4", move || {
//!         let tx = tx.clone();
//!         move |msg: &mut MyInteger, _ctx: &mut compadres_core::HandlerCtx<'_>| {
//!             tx.send(msg.value).unwrap();
//!             Ok(())
//!         }
//!     })
//!     .build()?;
//! app.start()?;
//!
//! // The client sends a request; the server's handler observes it.
//! app.with_component("MyClient", |ctx| {
//!     let mut m = ctx.get_message::<MyInteger>("P3")?;
//!     m.value = 3;
//!     ctx.send("P3", m, Priority::new(3))
//! })??;
//! assert_eq!(rx.recv()?, 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod component;
mod error;
pub mod link;
pub mod membership;
mod message;
mod model;
mod parse;
pub mod remote;
mod runtime;
pub mod smm;
mod validate;
mod write;

pub use builder::AppBuilder;
pub use component::{Component, MessageHandler, NullComponent};
pub use error::{CompadresError, Result};
pub use message::{Message, MessagePool, PooledMsg};
pub use model::{
    Ccl, Cdl, ComponentDef, ComponentKind, InstanceDecl, LinkDecl, LinkKind, PortAttrs, PortDef,
    PortDirection, RtsjAttributes, ScopedPoolCfg, ThreadpoolStrategy,
};
pub use parse::{parse_ccl, parse_cdl};
pub use runtime::{
    App, AppStats, ChildHandle, HandlerCtx, InstanceMemory, MemoryReport, DEFAULT_SCOPE_SIZE,
};
pub use validate::{validate, Connection, InstanceId, ValidatedApp, ValidatedInstance};
pub use write::{write_ccl, write_cdl};

// Re-export the priorities users need for send().
pub use rtsched::Priority;

// Re-export the overload-control knob the builder accepts, so
// applications don't need a direct rtplatform dependency.
pub use rtplatform::fault::AdmissionPolicy;
