//! Behavioral tests of the Compadres runtime: activation lifecycle,
//! connect/disconnect, synchronous and asynchronous dispatch, priorities,
//! failure containment and shutdown.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use compadres_core::{App, AppBuilder, CompadresError, HandlerCtx, Message, Priority};
use rtplatform::sync::Mutex;

#[derive(Debug, Default, Clone, PartialEq)]
struct Num {
    value: i64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Pinger</ComponentName>
    <Port><PortName>Reply</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
    <Port><PortName>Request</PortName><PortType>Out</PortType><MessageType>Num</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Ponger</ComponentName>
    <Port><PortName>Request</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
    <Port><PortName>Reply</PortName><PortType>Out</PortType><MessageType>Num</MessageType></Port>
  </Component>
</Components>"#;

/// CCL with configurable port attributes for the two in-ports.
fn ccl(ping_attrs: &str, pong_attrs: &str) -> String {
    format!(
        r#"
<Application>
  <ApplicationName>PingPong</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName>
    <ClassName>Pinger</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>Ping</InstanceName>
      <ClassName>Pinger</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Request</PortName>
          <Link><ToComponent>Pong</ToComponent><ToPort>Request</ToPort></Link>
        </Port>
        <Port><PortName>Reply</PortName>
          <PortAttributes>{ping_attrs}</PortAttributes>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>Pong</InstanceName>
      <ClassName>Ponger</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Request</PortName>
          <PortAttributes>{pong_attrs}</PortAttributes>
        </Port>
        <Port><PortName>Reply</PortName>
          <Link><ToComponent>Ping</ToComponent><ToPort>Reply</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>4000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>65536</ScopeSize><PoolSize>4</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    )
}

const SYNC: &str =
    "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";

/// Builds the ping-pong app where Pong echoes value+1 and Ping records
/// replies into a channel.
fn build_ping_pong(ping_attrs: &str, pong_attrs: &str) -> (App, mpsc::Receiver<i64>) {
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl(ping_attrs, pong_attrs))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", || {
            |msg: &mut Num, ctx: &mut HandlerCtx<'_>| {
                let mut reply = ctx.get_message::<Num>("Reply")?;
                reply.value = msg.value + 1;
                ctx.send("Reply", reply, Priority::new(3))
            }
        })
        .register_handler("Pinger", "Reply", move || {
            let tx = tx.clone();
            move |msg: &mut Num, _ctx: &mut HandlerCtx<'_>| {
                tx.send(msg.value).unwrap();
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    (app, rx)
}

fn ping_once(app: &App, value: i64) {
    app.with_component("Ping", |ctx| {
        let mut m = ctx.get_message::<Num>("Request").unwrap();
        m.value = value;
        ctx.send("Request", m, Priority::new(3)).unwrap();
    })
    .unwrap();
}

#[test]
fn synchronous_round_trip() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    ping_once(&app, 41);
    assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), 42);
    let stats = app.stats();
    assert_eq!(stats.messages_sent, 2);
    assert_eq!(stats.messages_processed, 2);
    assert_eq!(stats.handler_panics, 0);
}

#[test]
fn asynchronous_round_trip() {
    let attrs = "<BufferSize>8</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize>";
    let (app, rx) = build_ping_pong(attrs, attrs);
    for i in 0..5 {
        ping_once(&app, i * 10);
    }
    let mut got: Vec<i64> = (0..5)
        .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
        .collect();
    got.sort_unstable();
    assert_eq!(got, vec![1, 11, 21, 31, 41]);
    assert!(app.wait_quiescent(Duration::from_secs(5)));
}

#[test]
fn ephemeral_components_reclaim_between_messages() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    assert!(
        !app.is_active("Pong").unwrap(),
        "scoped components start inactive"
    );
    ping_once(&app, 1);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    assert!(
        !app.is_active("Pong").unwrap(),
        "deactivated after processing"
    );
    assert!(!app.is_active("Ping").unwrap());
    ping_once(&app, 2);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    // Each round trip re-activates both scoped components.
    assert!(app.activations_of("Pong").unwrap() >= 2);
    let stats = app.stats();
    assert!(stats.deactivations >= stats.activations - 2);
}

#[test]
fn connect_keeps_component_alive() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    let handle = app.connect("Pong").unwrap();
    assert!(app.is_active("Pong").unwrap());
    let region_before = app.region_of("Pong").unwrap();
    ping_once(&app, 1);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    ping_once(&app, 2);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    assert_eq!(
        app.region_of("Pong").unwrap(),
        region_before,
        "same scope across messages"
    );
    assert_eq!(
        app.activations_of("Pong").unwrap(),
        1,
        "no re-activation while connected"
    );
    handle.disconnect();
    assert!(
        !app.is_active("Pong").unwrap(),
        "disconnect reclaims the scope"
    );
}

#[test]
fn parent_connects_child_from_handler() {
    // Root (immortal) connects its child Ping from within its context.
    let (app, _rx) = build_ping_pong(SYNC, SYNC);
    let handle = app
        .with_component("Root", |ctx| ctx.connect("Ping"))
        .unwrap()
        .unwrap();
    assert!(app.is_active("Ping").unwrap());
    drop(handle);
    assert!(!app.is_active("Ping").unwrap());
}

#[test]
fn connect_non_child_rejected_from_handler() {
    let (app, _rx) = build_ping_pong(SYNC, SYNC);
    let err = app
        .with_component("Ping", |ctx| ctx.connect("Pong"))
        .unwrap()
        .unwrap_err();
    assert!(matches!(err, CompadresError::NotFound { .. }));
}

#[test]
fn scope_pool_reuse_across_activations() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    ping_once(&app, 1);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    ping_once(&app, 2);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    // Pool has 4 scopes; with sequential activations regions are recycled.
    let model = app.model();
    assert!(
        model.live_regions() <= 2 + 4,
        "no region leak: only pool regions exist"
    );
}

#[test]
fn buffer_full_reports_rejection() {
    // Async port with buffer 1 and a handler that blocks only on the
    // sentinel message (value -1), so exactly one worker parks and is
    // released exactly once.
    let slow_attrs = "<BufferSize>1</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>";
    let gate = Arc::new(std::sync::Barrier::new(2));
    let gate2 = Arc::clone(&gate);
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, slow_attrs))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", move || {
            let gate = Arc::clone(&gate2);
            move |msg: &mut Num, _ctx: &mut HandlerCtx<'_>| {
                if msg.value == -1 {
                    gate.wait();
                }
                Ok(())
            }
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();

    // The sentinel occupies the single worker…
    app.send_to("Pong", "Request", Num { value: -1 }, Priority::NORM)
        .unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the worker park
                                                    // …then one message fills the buffer and further ones are rejected.
    let mut rejected = 0;
    app.with_component("Ping", |ctx| {
        for i in 0..8 {
            let mut m = ctx.get_message::<Num>("Request").unwrap();
            m.value = i;
            match ctx.send("Request", m, Priority::NORM) {
                Ok(()) => {}
                Err(CompadresError::BufferFull { .. }) => rejected += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
    })
    .unwrap();
    assert_eq!(rejected, 7, "one buffered, seven rejected");
    assert_eq!(app.stats().buffer_rejections, 7);
    gate.wait(); // release the worker
    assert!(app.wait_quiescent(Duration::from_secs(5)));
}

#[test]
fn handler_panic_is_contained() {
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", || {
            |msg: &mut Num, _ctx: &mut HandlerCtx<'_>| {
                if msg.value == 13 {
                    panic!("unlucky");
                }
                Ok(())
            }
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();
    app.with_component("Ping", |ctx| {
        let mut m = ctx.get_message::<Num>("Request").unwrap();
        m.value = 13;
        ctx.send("Request", m, Priority::NORM).unwrap();
        // The framework survives; the next message processes normally.
        let mut m = ctx.get_message::<Num>("Request").unwrap();
        m.value = 1;
        ctx.send("Request", m, Priority::NORM).unwrap();
    })
    .unwrap();
    let stats = app.stats();
    assert_eq!(stats.handler_panics, 1);
    assert_eq!(stats.messages_processed, 1);
    assert!(
        !app.is_active("Pong").unwrap(),
        "scope reclaimed despite panic"
    );
}

#[test]
fn handler_error_counted() {
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", || {
            |_msg: &mut Num, _ctx: &mut HandlerCtx<'_>| Err(CompadresError::ShutDown)
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();
    app.send_to("Pong", "Request", Num { value: 1 }, Priority::NORM)
        .unwrap();
    assert_eq!(app.stats().handler_errors, 1);
}

#[test]
fn message_pool_recycled_across_round_trips() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    for i in 0..100 {
        ping_once(&app, i);
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), i + 1);
    }
    // No pool exhaustion across 100 round trips proves recycling works.
    let stats = app.stats();
    assert_eq!(stats.messages_processed, 200);
}

/// A message that resets itself: the buffers are emptied, not dropped.
struct Blob {
    bytes: Vec<u8>,
    tag: String,
}

impl Message for Blob {
    fn reset(&mut self) {
        self.bytes.clear();
        self.tag.clear();
    }
}

#[test]
fn self_resetting_messages_keep_capacity_and_leak_nothing_through_a_swap_relay() {
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type_with("Num", || Blob {
            bytes: Vec::new(),
            tag: String::new(),
        })
        // The relay trades its message for the next pool's, so the two
        // pools' buffers change places on every hop.
        .register_handler("Ponger", "Request", || {
            |msg: &mut Blob, ctx: &mut HandlerCtx<'_>| {
                let mut fwd = ctx.get_message::<Blob>("Reply")?;
                assert!(
                    fwd.bytes.is_empty() && fwd.tag.is_empty(),
                    "handed out reset"
                );
                std::mem::swap(&mut *fwd, msg);
                ctx.send("Reply", fwd, Priority::new(3))
            }
        })
        .register_handler("Pinger", "Reply", move || {
            let tx = tx.clone();
            move |msg: &mut Blob, _ctx: &mut HandlerCtx<'_>| {
                tx.send((msg.bytes.clone(), msg.tag.clone())).unwrap();
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();

    // Each send sees a reset message — nothing of the longer request
    // before it — and says how much room the message came with.
    let send = |bytes: &[u8], tag: &str| {
        app.with_component("Ping", |ctx| {
            let mut m = ctx.get_message::<Blob>("Request").unwrap();
            assert!(m.bytes.is_empty() && m.tag.is_empty(), "handed out reset");
            let room = m.bytes.capacity();
            m.bytes.extend_from_slice(bytes);
            m.tag.push_str(tag);
            ctx.send("Request", m, Priority::new(3)).unwrap();
            room
        })
        .unwrap()
    };
    let long = vec![0xAA; 1000];
    let mut rooms = Vec::new();
    for (bytes, tag) in [
        (&long[..], "a-long-operation-name"),
        (b"BBB", "b"),
        (b"", ""),
    ] {
        rooms.push(send(bytes, tag));
        let (got, got_tag) = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(
            (&got[..], &got_tag[..]),
            (bytes, tag),
            "exactly what was sent"
        );
    }
    // By the third send the long request's buffer has been through the
    // relay's pool and is back: emptied, but as large as it grew.
    assert!(
        rooms[2] >= 1000,
        "reset kept the buffer's capacity: {rooms:?}"
    );
}

#[test]
fn priority_order_respected_under_single_worker() {
    // One worker, blocked; then three queued messages must be processed
    // highest priority first.
    let order = Arc::new(Mutex::new(Vec::new()));
    let order2 = Arc::clone(&order);
    let gate = Arc::new(std::sync::Barrier::new(2));
    let gate2 = Arc::clone(&gate);
    let attrs = "<BufferSize>10</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>";
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, attrs))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", move || {
            let order = Arc::clone(&order2);
            let gate = Arc::clone(&gate2);
            move |msg: &mut Num, _ctx: &mut HandlerCtx<'_>| {
                if msg.value == -1 {
                    gate.wait();
                } else {
                    order.lock().push((msg.value, rtsched::current_priority()));
                }
                Ok(())
            }
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();

    app.send_to("Pong", "Request", Num { value: -1 }, Priority::MAX)
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the worker block
    app.send_to("Pong", "Request", Num { value: 1 }, Priority::new(10))
        .unwrap();
    app.send_to("Pong", "Request", Num { value: 2 }, Priority::new(90))
        .unwrap();
    app.send_to("Pong", "Request", Num { value: 3 }, Priority::new(50))
        .unwrap();
    gate.wait();
    assert!(app.wait_quiescent(Duration::from_secs(5)));
    let seen = order.lock().clone();
    assert_eq!(
        seen.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
        vec![2, 3, 1],
        "higher priority messages processed first"
    );
    // Priority inheritance: the worker ran at each message's priority.
    assert_eq!(seen[0].1, Priority::new(90));
    assert_eq!(seen[2].1, Priority::new(10));
}

#[test]
fn send_wrong_type_rejected() {
    let (app, _rx) = build_ping_pong(SYNC, SYNC);
    let err = app
        .send_to("Pong", "Request", String::from("nope"), Priority::NORM)
        .unwrap_err();
    assert!(matches!(err, CompadresError::MessageTypeMismatch { .. }));
    let err = app
        .with_component("Ping", |ctx| {
            ctx.get_message::<String>("Request").unwrap_err()
        })
        .unwrap();
    assert!(matches!(err, CompadresError::MessageTypeMismatch { .. }));
}

#[test]
fn unknown_ports_and_instances_reported() {
    let (app, _rx) = build_ping_pong(SYNC, SYNC);
    assert!(matches!(
        app.send_to("Nobody", "Request", Num::default(), Priority::NORM),
        Err(CompadresError::NotFound { .. })
    ));
    assert!(matches!(
        app.send_to("Pong", "Bogus", Num::default(), Priority::NORM),
        Err(CompadresError::NotFound { .. })
    ));
}

#[test]
fn shutdown_rejects_sends_and_deactivates() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    let _keep = app.connect("Pong").unwrap();
    ping_once(&app, 1);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    app.shutdown();
    assert!(matches!(
        app.send_to("Pong", "Request", Num::default(), Priority::NORM),
        Err(CompadresError::ShutDown)
    ));
    assert!(
        !app.is_active("Pong").unwrap(),
        "shutdown deactivates connected components"
    );
}

#[test]
fn missing_handler_rejected_at_build() {
    let err = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, CompadresError::MissingFactory { .. }));
}

#[test]
fn unbound_message_type_rejected_at_build() {
    let err = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .register_handler("Ponger", "Request", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("no Rust binding"), "{err}");
}

#[test]
fn handler_bound_to_wrong_type_rejected_at_build() {
    let err = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_handler("Ponger", "Request", || {
            |_m: &mut String, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, CompadresError::MessageTypeMismatch { .. }));
}

#[test]
fn component_start_and_stop_lifecycle() {
    // A component whose start()/stop() are observable.
    struct Lifecycle {
        counter: Arc<AtomicU32>,
    }
    impl compadres_core::Component for Lifecycle {
        fn start(&mut self, _ctx: &mut HandlerCtx<'_>) -> compadres_core::Result<()> {
            self.counter.fetch_add(1, Ordering::SeqCst);
            Ok(())
        }
        fn stop(&mut self) {
            self.counter.fetch_add(100, Ordering::SeqCst);
        }
    }
    let counter = Arc::new(AtomicU32::new(0));
    let c2 = Arc::clone(&counter);
    let app = AppBuilder::from_xml(CDL, &ccl(SYNC, SYNC))
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_component("Ponger", move || {
            Box::new(Lifecycle {
                counter: Arc::clone(&c2),
            })
        })
        .register_handler("Ponger", "Request", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .register_handler("Pinger", "Reply", || {
            |_m: &mut Num, _c: &mut HandlerCtx<'_>| Ok(())
        })
        .build()
        .unwrap();
    app.start().unwrap();
    app.send_to("Pong", "Request", Num { value: 1 }, Priority::NORM)
        .unwrap();
    // One activation: start (+1) then deactivate: stop (+100).
    assert_eq!(counter.load(Ordering::SeqCst), 101);
    app.send_to("Pong", "Request", Num { value: 2 }, Priority::NORM)
        .unwrap();
    assert_eq!(
        counter.load(Ordering::SeqCst),
        202,
        "fresh component per activation"
    );
}

#[test]
fn with_component_runs_inside_scope() {
    let (app, _rx) = build_ping_pong(SYNC, SYNC);
    let (name, region_kind_scoped) = app
        .with_component("Ping", |ctx| {
            let region = ctx.region();
            let snap = ctx.mem.stack().len();
            (ctx.instance_name().to_string(), (region, snap))
        })
        .unwrap();
    assert_eq!(name, "Ping");
    // Stack: immortal base + the Ping scope.
    assert_eq!(region_kind_scoped.1, 2);
}

#[test]
fn memory_report_reflects_activation_state() {
    let (app, rx) = build_ping_pong(SYNC, SYNC);
    let report = app.memory_report();
    assert!(report.immortal_size > 0);
    let ping = report.instances.iter().find(|i| i.name == "Ping").unwrap();
    assert!(!ping.is_active());
    assert_eq!(ping.activations, 0);
    let text = report.to_string();
    assert!(text.contains("immortal:"), "{text}");
    assert!(text.contains("inactive, 0 activations"), "{text}");
    let keep = app.connect("Pong").unwrap();
    let report = app.memory_report();
    let pong = report.instances.iter().find(|i| i.name == "Pong").unwrap();
    assert!(pong.is_active());
    assert!(pong.size > 0, "active instance reports its region size");
    assert!(report.to_string().contains("active in"), "{report}");
    ping_once(&app, 1);
    rx.recv_timeout(Duration::from_secs(2)).unwrap();
    drop(keep);
    let report = app.memory_report();
    let pong = report.instances.iter().find(|i| i.name == "Pong").unwrap();
    assert!(!pong.is_active());
    assert!(pong.activations >= 1);
    assert!(
        report.to_string().contains("activations so far"),
        "{report}"
    );
}

const TREE_CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Node</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
  </Component>
</Components>"#;

/// An all-scoped tree, Top → {Mid → Leaf, Sib}, every `In` port
/// synchronous: nothing in it is alive unless a message or a handle
/// keeps it so.
fn tree_ccl() -> String {
    let node = |name: &str, level: u32, children: &str| {
        format!(
            r#"
    <Component>
      <InstanceName>{name}</InstanceName><ClassName>Node</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>{level}</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
      </Connection>{children}
    </Component>"#
        )
    };
    let pools: String = (1..=3)
        .map(|level| {
            format!(
                "<ScopedPool><ScopeLevel>{level}</ScopeLevel><ScopeSize>65536</ScopeSize>\
                 <PoolSize>8</PoolSize></ScopedPool>"
            )
        })
        .collect();
    let mid = node("Mid", 2, &node("Leaf", 3, ""));
    let top = node("Top", 1, &(mid + &node("Sib", 2, "")));
    format!(
        "<Application><ApplicationName>Tree</ApplicationName>{top}\
         <RTSJAttributes>{pools}</RTSJAttributes></Application>"
    )
}

/// Builds the tree with every component logging `start:<instance>` and
/// `stop:<instance>`, and every `In` port counting what it handles.
fn build_tree() -> (App, Arc<Mutex<Vec<String>>>, Arc<AtomicU32>) {
    struct Logged {
        name: String,
        log: Arc<Mutex<Vec<String>>>,
    }
    impl compadres_core::Component for Logged {
        fn start(&mut self, ctx: &mut HandlerCtx<'_>) -> compadres_core::Result<()> {
            self.name = ctx.instance_name().to_string();
            self.log.lock().push(format!("start:{}", self.name));
            Ok(())
        }
        fn stop(&mut self) {
            self.log.lock().push(format!("stop:{}", self.name));
        }
    }
    let log = Arc::new(Mutex::new(Vec::new()));
    let handled = Arc::new(AtomicU32::new(0));
    let (log2, handled2) = (Arc::clone(&log), Arc::clone(&handled));
    let app = AppBuilder::from_xml(TREE_CDL, &tree_ccl())
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_component("Node", move || {
            Box::new(Logged {
                name: String::new(),
                log: Arc::clone(&log2),
            })
        })
        .register_handler("Node", "In", move || {
            let handled = Arc::clone(&handled2);
            move |_m: &mut Num, _c: &mut HandlerCtx<'_>| {
                handled.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    (app, log, handled)
}

#[test]
fn grandchild_handle_keeps_its_ancestors_and_releases_child_first() {
    let (app, log, _handled) = build_tree();
    let handle = app.connect("Leaf").unwrap();
    for name in ["Top", "Mid", "Leaf"] {
        assert!(app.is_active(name).unwrap(), "{name} kept by the handle");
    }
    assert!(!app.is_active("Sib").unwrap());
    assert_eq!(
        *log.lock(),
        ["start:Top", "start:Mid", "start:Leaf"],
        "parents are started before their children"
    );
    // Deliveries anywhere in the kept chain activate nothing new, and a
    // sibling coming and going leaves the chain alone.
    for name in ["Leaf", "Mid", "Top", "Sib"] {
        app.send_to(name, "In", Num { value: 1 }, Priority::NORM)
            .unwrap();
    }
    for name in ["Top", "Mid", "Leaf"] {
        assert_eq!(app.activations_of(name).unwrap(), 1, "{name}");
        assert!(app.is_active(name).unwrap(), "{name}");
    }
    assert!(!app.is_active("Sib").unwrap());

    log.lock().clear();
    drop(handle);
    assert_eq!(
        *log.lock(),
        ["stop:Leaf", "stop:Mid", "stop:Top"],
        "a child is stopped before its parent"
    );
    for name in ["Top", "Mid", "Leaf"] {
        assert!(!app.is_active(name).unwrap(), "{name} reclaimed");
    }
    let stats = app.stats();
    assert_eq!(stats.activations, 4);
    assert_eq!(stats.deactivations, 4);
}

#[test]
fn shutdown_with_a_live_grandchild_handle_deactivates_once() {
    let (app, log, _handled) = build_tree();
    let handle = app.connect("Leaf").unwrap();
    log.lock().clear();
    app.shutdown();
    assert_eq!(*log.lock(), ["stop:Leaf", "stop:Mid", "stop:Top"]);
    for name in ["Top", "Mid", "Leaf"] {
        assert!(!app.is_active(name).unwrap(), "{name}");
    }
    let at_shutdown = app.stats();
    assert_eq!(at_shutdown.activations, 3);
    assert_eq!(at_shutdown.deactivations, 3);
    // The handle outlives the teardown; letting go of it later finds
    // nothing left to do.
    drop(handle);
    assert_eq!(app.stats(), at_shutdown);
    assert_eq!(log.lock().len(), 3, "nobody is stopped twice");
}

#[test]
fn concurrent_deliveries_to_ephemeral_siblings_balance() {
    const THREADS: u32 = 4;
    const MESSAGES: u32 = 300;
    let (app, _log, handled) = build_tree();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let app = &app;
            s.spawn(move || {
                // Mid and Sib share the ephemeral parent Top: every
                // message may find any of the three inactive, active or
                // mid-activation on another thread.
                let target = if t % 2 == 0 { "Mid" } else { "Sib" };
                for i in 0..MESSAGES {
                    app.send_to(target, "In", Num { value: i.into() }, Priority::NORM)
                        .unwrap();
                }
            });
        }
    });
    assert_eq!(handled.load(Ordering::SeqCst), THREADS * MESSAGES);
    for name in ["Top", "Mid", "Sib"] {
        assert!(!app.is_active(name).unwrap(), "{name} still held");
    }
    let stats = app.stats();
    assert_eq!(stats.activations, stats.deactivations);
    assert_eq!(stats.handler_panics, 0);
    // No hold leaked in either direction: the next message activates the
    // chain afresh and lets it go again.
    let before = app.activations_of("Mid").unwrap();
    let top_before = app.activations_of("Top").unwrap();
    app.send_to("Mid", "In", Num { value: 0 }, Priority::NORM)
        .unwrap();
    assert_eq!(app.activations_of("Mid").unwrap(), before + 1);
    assert_eq!(app.activations_of("Top").unwrap(), top_before + 1);
    assert!(!app.is_active("Mid").unwrap());
    assert!(!app.is_active("Top").unwrap());
}
