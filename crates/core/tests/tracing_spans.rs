//! End-to-end causal tracing through local ports (DESIGN.md §5g): span
//! minting at the ingress port, queue-wait vs handler-run split on
//! asynchronous ports, deadline-budget accounting, the per-hop
//! deadline-miss counters, and the journal records one hop costs.

use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use compadres_core::{AppBuilder, HandlerCtx, Priority};
use rtobs::{span, EventKind, SpanForest};

#[derive(Debug, Default, Clone)]
struct Ping {
    tag: u64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Stage</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Ping</MessageType></Port>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Ping</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Ping</MessageType></Port>
  </Component>
</Components>"#;

/// `pool`: threadpool attrs for the Sink's in-port; the Stage is always
/// synchronous so the two-hop chain stays on the caller's thread up to
/// the port under test.
fn ccl(pool: &str) -> String {
    format!(
        r#"
<Application>
  <ApplicationName>Traced</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName>
    <ClassName>Stage</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>In</PortName>
        <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
      </Port>
      <Port><PortName>Out</PortName>
        <Link><ToComponent>S</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>S</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName><PortAttributes>{pool}</PortAttributes></Port>
      </Connection>
    </Component>
  </Component>
</Application>"#
    )
}

fn build(pool: &str, sink_sleep: Duration) -> (compadres_core::App, mpsc::Receiver<u64>) {
    build_with(pool, move |_| {
        if !sink_sleep.is_zero() {
            std::thread::sleep(sink_sleep);
        }
    })
}

/// Like [`build`], with `sink` run on every tag the Sink receives
/// before the tag is passed on to the returned channel.
fn build_with(
    pool: &str,
    sink: impl Fn(u64) + Clone + Send + Sync + 'static,
) -> (compadres_core::App, mpsc::Receiver<u64>) {
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl(pool))
        .unwrap()
        .bind_message_type::<Ping>("Ping")
        .register_handler("Stage", "In", || {
            |msg: &mut Ping, ctx: &mut HandlerCtx<'_>| {
                let mut fwd = ctx.get_message::<Ping>("Out")?;
                fwd.tag = msg.tag;
                ctx.send("Out", fwd, ctx.priority())
            }
        })
        .register_handler("Sink", "In", move || {
            let tx = tx.clone();
            let sink = sink.clone();
            move |msg: &mut Ping, _ctx: &mut HandlerCtx<'_>| {
                sink(msg.tag);
                let _ = tx.send(msg.tag);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    (app, rx)
}

const SYNC: &str =
    "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";
const ASYNC_ONE: &str = "<BufferSize>16</BufferSize>\
     <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>";

/// Waits until `n` SpanEnd events are visible (async hops publish them
/// slightly after the handler's channel send).
fn await_span_ends(obs: &rtobs::Observer, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .count()
        < n
    {
        assert!(Instant::now() < deadline, "SpanEnd events never appeared");
        std::thread::yield_now();
    }
}

#[test]
fn each_ingress_message_roots_a_trace_and_hops_chain() {
    let (app, rx) = build(SYNC, Duration::ZERO);
    app.send_to("Root", "In", Ping { tag: 1 }, Priority::new(20))
        .unwrap();
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    let obs = app.observer();
    await_span_ends(obs, 2);

    let forest = SpanForest::from_observer(obs);
    // One root (the ingress hop), whose child is the Sink hop.
    let roots: Vec<_> = forest.nodes().iter().filter(|n| n.parent == 0).collect();
    assert_eq!(roots.len(), 1, "one trace per ingress message");
    assert_eq!(roots[0].children.len(), 1, "second hop is a child span");
    let child = &forest.nodes()[roots[0].children[0]];
    assert_eq!(child.trace_id, roots[0].trace_id);
    assert_eq!(
        (roots[0].entity.as_str(), child.entity.as_str()),
        ("Root.In", "S.In"),
        "each hop is named by its own port"
    );
    // Synchronous hops skip PortDequeue: no queue wait is recorded.
    assert!(child.wait_ns.is_none());
    assert!(child.duration_ns().is_some(), "begin/end recorded");
    // A clean trace: a hop's own lifecycle is its structure, not notes.
    for n in forest.nodes() {
        assert!(
            n.notes.is_empty(),
            "{} carries notes {:?}",
            n.entity,
            n.notes
        );
    }
    let path = forest.critical_path(roots[0].trace_id);
    assert_eq!(path.len(), 2, "critical path spans both hops");
}

#[test]
fn ambient_span_is_inherited_not_reminted() {
    let (app, rx) = build(SYNC, Duration::ZERO);
    let obs = app.observer();
    let root = obs.new_trace(None);
    span::with_span(root, || {
        app.send_to("Root", "In", Ping { tag: 2 }, Priority::new(20))
            .unwrap();
    });
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    await_span_ends(obs, 2);
    let in_trace = |e: &rtobs::Event| (e.span >> 32) as u32 == root.trace_id;
    let evs = obs.events();
    assert!(
        evs.iter()
            .filter(|e| e.kind == EventKind::PortEnqueue)
            .all(in_trace),
        "hops join the caller's trace instead of starting their own"
    );
}

#[test]
fn async_hop_records_queue_wait_vs_run_split() {
    // One worker, slow handler: the second message queues behind the
    // first, so its hop carries a visible queue wait.
    let (app, rx) = build(ASYNC_ONE, Duration::from_millis(20));
    for tag in 0..2 {
        app.send_to("Root", "In", Ping { tag }, Priority::new(20))
            .unwrap();
    }
    for _ in 0..2 {
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }
    let obs = app.observer();
    await_span_ends(obs, 4);

    let evs = obs.events();
    assert!(
        evs.iter().any(|e| e.kind == EventKind::PortDequeue),
        "async hops record the dequeue edge"
    );
    let forest = SpanForest::from_observer(obs);
    let waits: Vec<u64> = forest.nodes().iter().filter_map(|n| n.wait_ns).collect();
    assert!(!waits.is_empty(), "queue wait split recorded");
    assert!(
        waits.iter().any(|&w| w >= 10_000_000),
        "second message waited behind the 20 ms handler, waits: {waits:?}"
    );
}

#[test]
fn blown_budget_is_flagged_and_counted_per_hop() {
    let (app, rx) = build(SYNC, Duration::from_millis(15));
    let obs = app.observer();
    // 1 ms budget against a 15 ms handler: guaranteed overrun.
    let root = obs.new_trace(Some(1_000_000));
    span::with_span(root, || {
        app.send_to("Root", "In", Ping { tag: 3 }, Priority::new(20))
            .unwrap();
    });
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    await_span_ends(obs, 2);

    let forest = SpanForest::from_observer(obs);
    assert_eq!(
        forest.overrun_traces(),
        vec![root.trace_id],
        "the blown trace is flagged"
    );
    let dominant = forest.dominant_hop(root.trace_id).expect("dominant hop");
    assert!(
        forest.nodes()[dominant].duration_ns().unwrap() >= 10_000_000,
        "the slow Sink hop dominates the critical path"
    );
    let rendered = forest.render();
    assert!(rendered.contains("OVERRUN"), "render flags it:\n{rendered}");

    // Both hops end after the slow handler (the Root hop's end covers
    // its nested synchronous send), so both overrun.
    let metrics = app.metrics_text();
    assert!(
        metrics.contains("compadres_deadline_miss_total 2"),
        "global miss counter:\n{metrics}"
    );
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("compadres_deadline_miss_s_in_total") && l.ends_with(" 1")),
        "per-hop miss counter names the port:\n{metrics}"
    );
}

#[test]
fn a_disabled_observer_traces_nothing() {
    let (app, rx) = build(SYNC, Duration::ZERO);
    let obs = app.observer();
    obs.set_enabled(false);
    app.send_to("Root", "In", Ping { tag: 4 }, Priority::new(20))
        .unwrap();
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    app.wait_quiescent(Duration::from_secs(2));
    assert!(obs.events().is_empty(), "no journal records when disabled");
    assert!(SpanForest::from_observer(obs).is_empty());
}

#[test]
fn a_panicking_handler_leaves_a_note_on_its_own_hop() {
    let (app, _rx) = build_with(SYNC, |tag| assert_ne!(tag, 13, "sink refuses 13"));
    app.send_to("Root", "In", Ping { tag: 13 }, Priority::new(20))
        .unwrap();
    let obs = app.observer();
    await_span_ends(obs, 2);
    let forest = SpanForest::from_observer(obs);
    let notes = |entity: &str| -> Vec<String> {
        let n = forest.nodes().iter().find(|n| n.entity == entity);
        n.expect("hop recorded").notes.clone()
    };
    assert!(
        notes("S.In").iter().any(|n| n.starts_with("handler.panic")),
        "{}",
        forest.render()
    );
    assert!(notes("Root.In").is_empty(), "{}", forest.render());
}

/// The records one message adds to the journal, with both components
/// kept connected so no scope lease or reclaim falls in the window.
fn records_per_message(pool: &str, priority: Priority) -> u64 {
    let (app, rx) = build(pool, Duration::ZERO);
    let _keep = app.connect("S").unwrap();
    let obs = app.observer();
    let before = obs.journal().recorded();
    app.send_to("Root", "In", Ping { tag: 5 }, priority)
        .unwrap();
    rx.recv_timeout(Duration::from_secs(5)).unwrap();
    await_span_ends(obs, 2);
    assert!(app.wait_quiescent(Duration::from_secs(2)));
    obs.journal().recorded() - before
}

#[test]
fn a_hop_is_journaled_once() {
    // A synchronous hop: port.enqueue (admission, the hop's start),
    // handler.start (after the hold and the scope entry) and span.end
    // (budget left). Root.In and S.In are both synchronous here.
    assert_eq!(records_per_message(SYNC, Priority::new(20)), 2 * 3);
    // An asynchronous hop adds port.dequeue (the queue wait) when a
    // worker picks it up. At the pool's idle priority no prio.inherit
    // is written, so Root.In's 3 plus S.In's 4 are all there is.
    assert_eq!(records_per_message(ASYNC_ONE, Priority::MIN), 3 + 4);
}

#[test]
fn a_message_admitted_while_disabled_records_no_queue_wait() {
    // The Sink's one worker holds the first message until the gate
    // opens, so the messages behind it are admitted while the observer
    // is off and picked up after it is back on.
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let held = Arc::clone(&gate);
    let (app, rx) = build_with(ASYNC_ONE, move |tag| {
        if tag == 0 {
            let (open, cv) = &*held;
            let _g = cv.wait_while(open.lock().unwrap(), |o| !*o).unwrap();
        }
    });
    let obs = app.observer();
    let send = |tag| {
        app.send_to("Root", "In", Ping { tag }, Priority::new(20))
            .unwrap()
    };
    send(0);
    obs.set_enabled(false);
    for tag in 1..4 {
        send(tag);
    }
    obs.set_enabled(true);
    send(4);
    let (open, cv) = &*gate;
    *open.lock().unwrap() = true;
    cv.notify_all();
    for _ in 0..5 {
        rx.recv_timeout(Duration::from_secs(5)).unwrap();
    }
    assert!(app.wait_quiescent(Duration::from_secs(2)));
    // Two messages were admitted while enabled, each at Root.In and at
    // S.In; the three admitted while disabled report no wait at all.
    let metrics = app.metrics_text();
    assert!(
        metrics
            .lines()
            .any(|l| l == "compadres_queue_wait_ns_count 4"),
        "{metrics}"
    );
}
