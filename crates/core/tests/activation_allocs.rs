//! Allocation guard for the activation slow path (ROADMAP aim 3): what
//! one activation of a scoped component costs on the heap, beyond the
//! message that triggered it, and what a failed activation leaves
//! behind.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

mod common;

use compadres_core::{AppBuilder, CompadresError, HandlerCtx, Priority};
use rtmem::RtmemError;

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

/// Root (immortal) → Mid (scoped, level 1) → {Leaf, Leaf2} (scoped,
/// level 2): Leaf sits at depth 3 and its one in-port is connected to
/// nothing; Leaf2 shares level 2's one pooled scope with it.
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
      <Component>
        <InstanceName>Leaf2</InstanceName><ClassName>Shell</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
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
    /// Measured: exactly 0 (3 while every activation built its record:
    /// the `Arc<Activation>`, its handler table and the boxed handler).
    /// Leaf keeps one record from its first activation on; an
    /// activation refills its handler slot and component in place and a
    /// deactivation empties them, swapping in a `NullComponent`, which
    /// is zero-sized. What the user's factories build is theirs: a
    /// component with state, or a handler that boxes, adds its own.
    const BUDGET_PER_ACTIVATION: u64 = 0;

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
    common::assert_budget(
        ephemeral as i64 - resident as i64,
        MESSAGES,
        BUDGET_PER_ACTIVATION,
        "activation",
    );

    // Leaf2 holds level 2's one scope, so Leaf cannot activate: the
    // failure gives back what it took and leaves Leaf's record to it.
    let leaf2 = app.connect("Leaf2").unwrap();
    for _ in 0..3 {
        let err = app
            .send_to("Leaf", "In", Num { value: 7 }, Priority::new(5))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompadresError::Memory(RtmemError::PoolExhausted { level: 2 })
            ),
            "{err}"
        );
        assert!(!app.is_active("Leaf").unwrap());
    }
    drop(leaf2);
    assert_eq!(app.activations_of("Leaf").unwrap(), 1 + WARM_UP + MESSAGES);

    // With the scope back, Leaf activates on the record it kept.
    let recovered = send(MESSAGES);
    common::assert_budget(
        recovered as i64 - resident as i64,
        MESSAGES,
        BUDGET_PER_ACTIVATION,
        "activation after a failed one",
    );
    let stats = app.stats();
    assert_eq!(stats.messages_processed, 2 * WARM_UP + 3 * MESSAGES);
    assert_eq!((stats.handler_errors, stats.handler_panics), (0, 0));
}
