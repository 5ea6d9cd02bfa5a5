//! Steady-state allocation guard for synchronous local dispatch
//! (ROADMAP aim 3): once the paper's Fig. 6 assembly is built, started
//! and connected, a round trip — IMC → Client → Server → Client, three
//! deliveries — pays the heap only for the two scope-stack tails its
//! handoffs park, and `compadres_core` itself for nothing.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

mod common;

use compadres_core::{AppBuilder, HandlerCtx, Priority};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[derive(Debug, Default, Clone)]
struct MyInteger {
    value: i32,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>ImmortalComponent</ComponentName>
    <Port><PortName>P1</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Client</ComponentName>
    <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P6</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P5</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
</Components>"#;

/// Fig. 6 with every in-port synchronous (`Min=Max=0`).
fn ccl() -> String {
    const SYNC: &str =
        "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";
    format!(
        r#"
<Application>
  <ApplicationName>Fig6</ApplicationName>
  <Component>
    <InstanceName>IMC</InstanceName><ClassName>ImmortalComponent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>P1</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyClient</ToComponent><ToPort>P2</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyClient</InstanceName><ClassName>Client</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P2</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port><PortName>P6</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName><ClassName>Server</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P4</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P5</PortName>
          <Link><PortType>External</PortType><ToComponent>MyClient</ToComponent><ToPort>P6</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>200000</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    )
}

/// Forwards `value` through `port` of the component being executed.
fn forward(ctx: &mut HandlerCtx<'_>, port: &str, value: i32) -> compadres_core::Result<()> {
    let mut m = ctx.get_message::<MyInteger>(port)?;
    m.value = value;
    ctx.send(port, m, Priority::new(5))
}

#[test]
fn a_sync_round_trip_allocates_only_its_two_handoff_tails() {
    const WARM_UP: u64 = 100;
    const ROUND_TRIPS: u64 = 1_000;
    /// Measured: exactly 2, both `rtmem::Ctx::execute_in` moving the
    /// scopes a handoff hides into a fresh `Vec` (`split_off`): Client →
    /// Server parks the client's scope, Server → Client the server's.
    /// IMC → Client hides nothing and allocates nothing.
    /// `compadres_core` allocates nothing per delivery — a hold clones
    /// one `Arc`, the message objects are pooled, the journal is a
    /// preallocated ring — so the budget is the measurement, no slack.
    /// ROADMAP item 1 says what these two wait for.
    const BUDGET_PER_ROUND_TRIP: u64 = 2;

    let replies = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&replies);
    let app = AppBuilder::from_xml(CDL, &ccl())
        .unwrap()
        .bind_message_type::<MyInteger>("MyInteger")
        .register_handler("Client", "P2", || {
            |_m: &mut MyInteger, ctx: &mut HandlerCtx<'_>| forward(ctx, "P3", 3)
        })
        .register_handler("Server", "P4", || {
            |_m: &mut MyInteger, ctx: &mut HandlerCtx<'_>| forward(ctx, "P5", 4)
        })
        .register_handler("Client", "P6", move || {
            let seen = Arc::clone(&seen);
            move |m: &mut MyInteger, _c: &mut HandlerCtx<'_>| {
                assert_eq!(m.value, 4);
                seen.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let _keep = [
        app.connect("MyClient").unwrap(),
        app.connect("MyServer").unwrap(),
    ];

    let allocated = app
        .with_component("IMC", |ctx| {
            for _ in 0..WARM_UP {
                forward(ctx, "P1", 1).unwrap();
            }
            let before = common::allocations();
            for _ in 0..ROUND_TRIPS {
                forward(ctx, "P1", 1).unwrap();
            }
            common::allocations() - before
        })
        .unwrap();

    assert_eq!(replies.load(Ordering::Relaxed), WARM_UP + ROUND_TRIPS);
    assert_eq!(app.stats().messages_processed, 3 * (WARM_UP + ROUND_TRIPS));
    common::assert_budget(
        allocated as i64,
        ROUND_TRIPS,
        BUDGET_PER_ROUND_TRIP,
        "round trip",
    );
}
