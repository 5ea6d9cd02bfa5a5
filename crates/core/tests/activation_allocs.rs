//! Allocation guard for the activation slow path (ROADMAP aim 3): what
//! one activation of a scoped component costs on the heap, beyond the
//! message that triggered it.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

mod common;

use compadres_core::{AppBuilder, HandlerCtx, Priority};

#[derive(Debug, Default, Clone)]
struct Num {
    value: i64,
}

const CDL: &str = r#"
<Components>
  <Component><ComponentName>Shell</ComponentName></Component>
  <Component>
    <ComponentName>Leaf</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
  </Component>
</Components>"#;

/// Root (immortal) → Mid (scoped, level 1) → Leaf (scoped, level 2):
/// Leaf sits at depth 3 and its one in-port is connected to nothing.
const CCL: &str = r#"
<Application>
  <ApplicationName>Depth3</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName><ClassName>Shell</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>Mid</InstanceName><ClassName>Shell</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Component>
        <InstanceName>Leaf</InstanceName><ClassName>Leaf</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
        <Connection>
          <Port><PortName>In</PortName>
            <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
          </Port>
        </Connection>
      </Component>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>65536</ScopeSize><PoolSize>1</PoolSize></ScopedPool>
    <ScopedPool><ScopeLevel>2</ScopeLevel><ScopeSize>65536</ScopeSize><PoolSize>1</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

#[test]
fn an_activation_allocates_within_its_budget() {
    const WARM_UP: u64 = 50;
    const MESSAGES: u64 = 500;
    /// Measured: exactly 3 (the parent commit: 8), by call site —
    /// `AppCore::hold`: the one `Arc<Activation>` the record lives in;
    /// `AppCore::materialize`: the handler table (one `Vec`) and, per
    /// wired in-port, the boxed handler (1 for Leaf's one port).
    /// `Box<dyn Component>` is free here because `NullComponent` is
    /// zero-sized — a component with state adds one. What went: the
    /// region chain (inline in the record to four levels), the two
    /// names `TypedHandler` kept a copy of for its mismatch error (now
    /// shared with the factory), and the `rtmem::Ctx` `start()` ran on —
    /// its scope stack and that stack's first growth — since `start()`
    /// now runs on the delivering thread's context.
    const BUDGET_PER_ACTIVATION: u64 = 3;

    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Leaf", "In", || {
            |m: &mut Num, _c: &mut HandlerCtx<'_>| {
                assert_eq!(m.value, 7);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let _mid = app.connect("Mid").unwrap();

    // Allocations of `n` messages into Leaf from outside the assembly.
    let send = |n: u64| {
        let before = common::allocations();
        for _ in 0..n {
            app.send_to("Leaf", "In", Num { value: 7 }, Priority::new(5))
                .unwrap();
        }
        common::allocations() - before
    };

    // Kept alive, a message activates nothing: this is what `send_to`
    // itself costs (the boxed payload, the sender's `Ctx`).
    let leaf = app.connect("Leaf").unwrap();
    send(WARM_UP);
    let resident = send(MESSAGES);
    assert_eq!(app.activations_of("Leaf").unwrap(), 1);
    drop(leaf);

    // Let go, every message activates and deactivates Leaf.
    send(WARM_UP);
    let ephemeral = send(MESSAGES);
    assert_eq!(
        app.activations_of("Leaf").unwrap(),
        1 + WARM_UP + MESSAGES,
        "one activation per message"
    );

    assert!(
        ephemeral - resident <= BUDGET_PER_ACTIVATION * MESSAGES,
        "{:.2} allocations per activation ({ephemeral} ephemeral - {resident} resident over \
         {MESSAGES} messages), budget {BUDGET_PER_ACTIVATION}",
        (ephemeral - resident) as f64 / MESSAGES as f64
    );
}
