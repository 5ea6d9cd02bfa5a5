//! A message accepted by an asynchronous port whose target cannot be
//! activated on the worker thread must leave a counter and a journal
//! event behind (ROADMAP aim 4): the sender is long gone, so nobody is
//! left to hand the error to.

use std::time::Duration;

use compadres_core::{AppBuilder, HandlerCtx, Priority};
use rtobs::EventKind;

#[derive(Debug, Default, Clone)]
struct Tick;

const CDL: &str = r#"
<Components>
  <Component><ComponentName>Root</ComponentName></Component>
  <Component>
    <ComponentName>Node</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Tick</MessageType></Port>
  </Component>
</Components>"#;

/// Two scoped siblings at level 1 and a level-1 pool of exactly one
/// scope: whichever is active starves the other.
const CCL: &str = r#"
<Application>
  <ApplicationName>Starved</ApplicationName>
  <Component>
    <InstanceName>R</InstanceName><ClassName>Root</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>A</InstanceName><ClassName>Node</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
    </Component>
    <Component>
      <InstanceName>B</InstanceName><ClassName>Node</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>4</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>65536</ScopeSize><PoolSize>1</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

#[test]
fn a_message_dropped_on_the_worker_is_counted_and_journalled() {
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Tick>("Tick")
        .register_handler("Node", "In", || {
            |_m: &mut Tick, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();

    // A holds the level's only scope, so B cannot be materialized.
    let keep_a = app.connect("A").unwrap();
    app.send_to("B", "In", Tick, Priority::NORM)
        .expect("the buffer has room: the send itself is accepted");
    assert!(app.wait_quiescent(Duration::from_secs(10)));

    let stats = app.stats();
    assert_eq!(stats.messages_sent, 1);
    assert_eq!(stats.messages_processed, 0);
    assert_eq!(stats.messages_undeliverable, 1);
    let metrics = app.metrics_text();
    assert!(
        metrics.contains("compadres_undeliverable_total 1")
            && metrics.contains("compadres_undeliverable_b_in_total 1"),
        "global or per-port undeliverable counter missing or wrong:\n{metrics}"
    );
    // "Accepted, then lost" is its own kind: a journal reader must not
    // mistake it for a full-buffer refusal at admission.
    let obs = app.observer();
    let events = obs.events();
    let lost: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Undeliverable)
        .collect();
    assert_eq!(lost.len(), 1, "exactly one journal event: {lost:?}");
    assert_eq!(obs.entity_name(lost[0].subject), "B.In");
    assert!(
        events.iter().all(|e| e.kind != EventKind::BufferDrop),
        "nothing was refused at admission: {events:?}"
    );

    // Once A lets go of the scope the same port delivers again, and the
    // books balance: every accepted message is processed or counted.
    drop(keep_a);
    app.send_to("B", "In", Tick, Priority::NORM).unwrap();
    assert!(app.wait_quiescent(Duration::from_secs(10)));
    let stats = app.stats();
    assert_eq!(stats.messages_processed, 1);
    assert_eq!(
        stats.messages_sent,
        stats.messages_processed + stats.messages_undeliverable
    );
}
