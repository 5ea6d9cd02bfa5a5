//! Routing cases the wiring table must get right that the other suites
//! (`fanout`, `threadpools`, `runtime_behaviour`, `admission`,
//! `topology_fuzz`) do not pin: fan-in onto one in-port, fan-out order,
//! unconnected in-ports at the `send_to` edge, and per-activation
//! handler slots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use compadres_core::{AppBuilder, CompadresError, HandlerCtx, Priority};
use rtobs::EventKind;

#[derive(Debug, Default, Clone)]
struct Note {
    id: u64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Note</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Note</MessageType></Port>
    <Port><PortName>Idle</PortName><PortType>In</PortType><MessageType>Note</MessageType></Port>
  </Component>
</Components>"#;

const SYNC: &str =
    "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";

fn send_from(ctx: &mut HandlerCtx<'_>, id: u64) -> compadres_core::Result<()> {
    let mut m = ctx.get_message::<Note>("Out")?;
    m.id = id;
    ctx.send("Out", m, Priority::NORM)
}

/// Two sources feed `K.In`, an asynchronous port with one worker and a
/// two-slot buffer. With the worker parked in the handler, one send from
/// each source fills the buffer and the next — from either — is refused:
/// the two connections claim slots of one buffer, journal under one port
/// entity, and reach one handler object.
#[test]
fn fan_in_shares_one_port() {
    const CCL: &str = r#"
<Application>
  <ApplicationName>FanIn</ApplicationName>
  <Component>
    <InstanceName>A</InstanceName><ClassName>Source</ClassName><ComponentType>Immortal</ComponentType>
    <Connection><Port><PortName>Out</PortName>
      <Link><ToComponent>K</ToComponent><ToPort>In</ToPort></Link>
    </Port></Connection>
  </Component>
  <Component>
    <InstanceName>B</InstanceName><ClassName>Source</ClassName><ComponentType>Immortal</ComponentType>
    <Connection><Port><PortName>Out</PortName>
      <Link><ToComponent>K</ToComponent><ToPort>In</ToPort></Link>
    </Port></Connection>
  </Component>
  <Component>
    <InstanceName>K</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
    <Connection><Port><PortName>In</PortName>
      <PortAttributes>
        <BufferSize>2</BufferSize>
        <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
      </PortAttributes>
    </Port></Connection>
  </Component>
</Application>"#;
    let (entered_tx, entered) = mpsc::channel();
    let (release, gate) = mpsc::channel::<()>();
    let gate = Arc::new(Mutex::new(gate));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let seen_by_handler = Arc::clone(&seen);
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Note>("Note")
        .register_handler("Sink", "In", move || {
            let (entered_tx, gate) = (entered_tx.clone(), Arc::clone(&gate));
            let seen = Arc::clone(&seen_by_handler);
            // Per-handler-object count: it only reaches 3 if every
            // message ran on the same slot of the same activation.
            let mut handled = 0;
            move |m: &mut Note, _c: &mut HandlerCtx<'_>| {
                handled += 1;
                seen.lock().unwrap().push((m.id, handled));
                if m.id == 0 {
                    entered_tx.send(()).unwrap();
                    let _ = gate.lock().unwrap().recv();
                }
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();

    app.with_component("A", |ctx| send_from(ctx, 0))
        .unwrap()
        .unwrap();
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    app.with_component("A", |ctx| send_from(ctx, 1))
        .unwrap()
        .unwrap();
    app.with_component("B", |ctx| send_from(ctx, 2))
        .unwrap()
        .unwrap();
    for source in ["A", "B"] {
        let refused = app.with_component(source, |ctx| send_from(ctx, 9)).unwrap();
        assert_eq!(
            refused,
            Err(CompadresError::BufferFull {
                instance: "K".into(),
                port: "In".into(),
            })
        );
    }
    release.send(()).unwrap();
    assert!(app.wait_quiescent(Duration::from_secs(10)));

    assert_eq!(*seen.lock().unwrap(), vec![(0, 1), (1, 2), (2, 3)]);
    let stats = app.stats();
    assert_eq!(stats.messages_processed, 3);
    assert_eq!(stats.buffer_rejections, 2);
    let obs = app.observer();
    let enqueued: Vec<String> = obs
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::PortEnqueue)
        .map(|e| obs.entity_name(e.subject))
        .collect();
    assert_eq!(enqueued, vec!["K.In"; 5], "one entity for both connections");
}

/// `send_cloned` visits the targets in the order the CCL links declare
/// them (here deliberately not the instances' order), which synchronous
/// ports make directly observable.
#[test]
fn send_cloned_delivers_in_declaration_order() {
    let sink = |name: &str| {
        format!(
            r#"<Component><InstanceName>{name}</InstanceName><ClassName>Sink</ClassName>
               <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
               <Connection><Port><PortName>In</PortName><PortAttributes>{SYNC}</PortAttributes></Port></Connection>
               </Component>"#
        )
    };
    let ccl = format!(
        r#"<Application><ApplicationName>Order</ApplicationName>
        <Component><InstanceName>H</InstanceName><ClassName>Source</ClassName><ComponentType>Immortal</ComponentType>
          <Connection><Port><PortName>Out</PortName>
            <Link><ToComponent>S2</ToComponent><ToPort>In</ToPort></Link>
            <Link><ToComponent>S0</ToComponent><ToPort>In</ToPort></Link>
            <Link><ToComponent>S1</ToComponent><ToPort>In</ToPort></Link>
          </Port></Connection>
          {}{}{}
        </Component></Application>"#,
        sink("S0"),
        sink("S1"),
        sink("S2")
    );
    let order = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&order);
    let app = AppBuilder::from_xml(CDL, &ccl)
        .unwrap()
        .bind_message_type::<Note>("Note")
        .register_handler("Sink", "In", move || {
            let log = Arc::clone(&log);
            move |_m: &mut Note, ctx: &mut HandlerCtx<'_>| {
                log.lock().unwrap().push(ctx.instance_name().to_string());
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let delivered = app
        .with_component("H", |ctx| {
            ctx.send_cloned("Out", &Note { id: 1 }, Priority::NORM)
        })
        .unwrap();
    assert_eq!(delivered, Ok(3));
    assert_eq!(*order.lock().unwrap(), ["S2", "S0", "S1"]);
}

/// An in-port nothing connects to is wired iff a handler is registered
/// for it: `send_to` reaches `K.In`, and answers `NotFound` for the
/// handler-less `K.Idle` with the text it has always had.
#[test]
fn unconnected_in_ports_at_the_send_to_edge() {
    let ccl = format!(
        r#"<Application><ApplicationName>Edge</ApplicationName>
        <Component><InstanceName>K</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
          <Connection><Port><PortName>In</PortName><PortAttributes>{SYNC}</PortAttributes></Port></Connection>
        </Component></Application>"#
    );
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl)
        .unwrap()
        .bind_message_type::<Note>("Note")
        .register_handler("Sink", "In", move || {
            let tx = tx.clone();
            move |m: &mut Note, _c: &mut HandlerCtx<'_>| {
                tx.send(m.id).unwrap();
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();

    app.send_to("K", "In", Note { id: 5 }, Priority::NORM)
        .unwrap();
    assert_eq!(rx.try_recv(), Ok(5));
    assert!(app.port_attrs("K", "In").unwrap().is_synchronous());

    let err = app
        .send_to("K", "Idle", Note { id: 6 }, Priority::NORM)
        .unwrap_err();
    assert_eq!(
        err,
        CompadresError::NotFound {
            kind: "in-port",
            name: "K.Idle".into(),
        }
    );
    assert_eq!(err.to_string(), r#"in-port "K.Idle" not found"#);
    assert_eq!(app.port_attrs("K", "Idle"), Err(err));
}

/// A scoped component that nobody keeps connected is torn down after
/// every message, so each delivery runs on a handler the factory has
/// just built: no handler object ever sees a second message.
#[test]
fn an_ephemeral_component_gets_fresh_handlers_on_every_activation() {
    let ccl = format!(
        r#"<Application><ApplicationName>Ephemeral</ApplicationName>
        <Component><InstanceName>R</InstanceName><ClassName>Source</ClassName><ComponentType>Immortal</ComponentType>
          <Component><InstanceName>E</InstanceName><ClassName>Sink</ClassName>
            <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
            <Connection><Port><PortName>In</PortName><PortAttributes>{SYNC}</PortAttributes></Port></Connection>
          </Component>
        </Component></Application>"#
    );
    let built = Arc::new(AtomicUsize::new(0));
    let factory_calls = Arc::clone(&built);
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl)
        .unwrap()
        .bind_message_type::<Note>("Note")
        .register_handler("Sink", "In", move || {
            factory_calls.fetch_add(1, Ordering::SeqCst);
            let tx = tx.clone();
            let mut handled = 0;
            move |_m: &mut Note, _c: &mut HandlerCtx<'_>| {
                handled += 1;
                tx.send(handled).unwrap();
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();

    for id in 0..3 {
        app.send_to("E", "In", Note { id }, Priority::NORM).unwrap();
        assert!(!app.is_active("E").unwrap(), "reclaimed after the message");
    }
    assert_eq!(rx.try_iter().collect::<Vec<_>>(), [1, 1, 1]);
    assert_eq!(built.load(Ordering::SeqCst), 3);
    assert_eq!(app.activations_of("E").unwrap(), 3);

    // Kept connected, the one activation's handler sees every message.
    let keep = app.connect("E").unwrap();
    for id in 0..3 {
        app.send_to("E", "In", Note { id }, Priority::NORM).unwrap();
    }
    drop(keep);
    assert_eq!(rx.try_iter().collect::<Vec<_>>(), [1, 2, 3]);
    assert_eq!(built.load(Ordering::SeqCst), 4);
}
