//! Injection from outside the component graph (`App::send_to`) moves
//! each message into a box its in-port's pool lends. A pool with every
//! box out must not refuse: the message is boxed afresh, counted, and
//! delivered like the rest.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use compadres_core::{AppBuilder, HandlerCtx, Priority};

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
  </Component>
</Components>"#;

/// Buffer 4 and four workers: the pool lends `4.max(4) + 2` = 6 boxes,
/// while four taken messages and a full buffer keep 8 out. (The
/// instance runs one handler at a time; the other three workers wait
/// for it, each holding the message it took.)
const CCL: &str = r#"
<Application>
  <ApplicationName>Injected</ApplicationName>
  <Component>
    <InstanceName>TheSink</InstanceName><ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>In</PortName>
        <PortAttributes>
          <BufferSize>4</BufferSize>
          <MinThreadpoolSize>4</MinThreadpoolSize><MaxThreadpoolSize>4</MaxThreadpoolSize>
        </PortAttributes>
      </Port>
    </Connection>
  </Component>
</Application>"#;

/// Handlers wait until the gate opens.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
    seen: Mutex<Vec<u32>>,
}

/// Opens the gate when dropped: on a failed assertion too, so that the
/// held workers let the app shut down.
struct Release<'a>(&'a Gate);

impl Drop for Release<'_> {
    fn drop(&mut self) {
        *self.0.open.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.0.opened.notify_all();
    }
}

fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::yield_now();
    }
}

#[test]
fn an_exhausted_injection_pool_boxes_afresh_and_delivers_every_message() {
    let gate = Arc::new(Gate::default());
    let g = Arc::clone(&gate);
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<u32>("Num")
        .register_handler("Sink", "In", move || {
            let g = Arc::clone(&g);
            move |m: &mut u32, _c: &mut HandlerCtx<'_>| {
                let mut open = g.open.lock().unwrap();
                while !*open {
                    open = g.opened.wait(open).unwrap();
                }
                g.seen.lock().unwrap().push(*m);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let release = Release(&gate);
    let obs = app.observer();
    let fallbacks = obs.counter("compadres_inject_fallbacks_total");
    let busy = obs.gauge("rtsched_thesink_busy_workers");

    // One at a time, so that each lands on an idle worker: four taken.
    for n in 0..4u32 {
        app.send_to("TheSink", "In", n, Priority::NORM).unwrap();
        wait_for("a worker to take it", || {
            obs.gauge_value(busy) == u64::from(n) + 1
        });
    }
    assert_eq!(obs.counter_value(fallbacks), 0);
    // Four more fill the buffer; the pool has two boxes left for them.
    for n in 4..8u32 {
        app.send_to("TheSink", "In", n, Priority::NORM).unwrap();
    }
    assert_eq!(obs.counter_value(fallbacks), 2, "the 7th and the 8th");

    drop(release);
    assert!(app.wait_quiescent(Duration::from_secs(10)));
    let mut seen = gate.seen.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..8).collect::<Vec<u32>>(),
        "none refused, none lost"
    );
    assert_eq!(app.stats().messages_processed, 8);

    // With every box back, injection borrows again.
    app.send_to("TheSink", "In", 8u32, Priority::NORM).unwrap();
    assert!(app.wait_quiescent(Duration::from_secs(10)));
    assert_eq!(obs.counter_value(fallbacks), 2);
}
