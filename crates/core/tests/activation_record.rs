//! An instance keeps one activation record and reuses it: these tests
//! hold the reuse to the lifecycle a fresh record per activation had —
//! teardown order, fresh handler and component state per activation,
//! and balanced counts when several threads race to activate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use compadres_core::{App, AppBuilder, Component, HandlerCtx, Priority};
use rtplatform::sync::Mutex;

#[derive(Debug, Default, Clone)]
struct Num;

const CDL: &str = r#"
<Components>
  <Component><ComponentName>Shell</ComponentName></Component>
  <Component>
    <ComponentName>Probe</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Num</MessageType></Port>
  </Component>
</Components>"#;

/// Root (immortal) → P (scoped, level 1) with one synchronous in-port:
/// nothing keeps P alive between messages.
const CCL: &str = r#"
<Application>
  <ApplicationName>Reuse</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName><ClassName>Shell</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>P</InstanceName><ClassName>Probe</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>65536</ScopeSize><PoolSize>8</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

type Log = Arc<Mutex<Vec<&'static str>>>;

/// Logs `what` when dropped.
struct DropProbe {
    log: Log,
    what: &'static str,
}

impl Drop for DropProbe {
    fn drop(&mut self) {
        self.log.lock().push(self.what);
    }
}

struct Probed {
    probe: DropProbe,
}

impl Component for Probed {
    fn start(&mut self, _ctx: &mut HandlerCtx<'_>) -> compadres_core::Result<()> {
        self.probe.log.lock().push("start");
        Ok(())
    }
    fn stop(&mut self) {
        self.probe.log.lock().push("stop");
    }
}

/// What the app's factories and handlers have done so far.
#[derive(Default)]
struct Counts {
    components_built: AtomicU64,
    handlers_built: AtomicU64,
    processed: AtomicU64,
}

/// Builds the app: P's component and handler each carry a drop probe
/// into `log`, a handler logs whether it has run before, and every
/// factory call and message is counted.
fn build(log: &Log, counts: &Arc<Counts>) -> App {
    let (log_c, counts_c) = (Arc::clone(log), Arc::clone(counts));
    let (log_h, counts_h) = (Arc::clone(log), Arc::clone(counts));
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Num>("Num")
        .register_component("Probe", move || {
            counts_c.components_built.fetch_add(1, Ordering::SeqCst);
            Box::new(Probed {
                probe: DropProbe {
                    log: Arc::clone(&log_c),
                    what: "component dropped",
                },
            })
        })
        .register_handler("Probe", "In", move || {
            counts_h.handlers_built.fetch_add(1, Ordering::SeqCst);
            let counts = Arc::clone(&counts_h);
            let probe = DropProbe {
                log: Arc::clone(&log_h),
                what: "handler dropped",
            };
            let mut first = true;
            move |_m: &mut Num, _c: &mut HandlerCtx<'_>| {
                let what = if first { "process" } else { "process again" };
                first = false;
                probe.log.lock().push(what);
                counts.processed.fetch_add(1, Ordering::SeqCst);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    app
}

#[test]
fn every_deactivation_stops_then_drops_handlers_then_the_component() {
    let log = Log::default();
    let counts = Arc::new(Counts::default());
    let app = build(&log, &counts);

    for round in 1..=3 {
        app.send_to("P", "In", Num, Priority::NORM).unwrap();
        assert_eq!(
            std::mem::take(&mut *log.lock()),
            [
                "start",
                "process",
                "stop",
                "handler dropped",
                "component dropped"
            ],
            "delivery {round}"
        );
        assert!(!app.is_active("P").unwrap());
    }

    // Kept connected, one activation's handler sees every message and
    // nothing is dropped until the handle lets go.
    let keep = app.connect("P").unwrap();
    for _ in 0..2 {
        app.send_to("P", "In", Num, Priority::NORM).unwrap();
    }
    assert_eq!(
        std::mem::take(&mut *log.lock()),
        ["start", "process", "process again"]
    );
    drop(keep);
    assert_eq!(
        *log.lock(),
        ["stop", "handler dropped", "component dropped"]
    );

    assert_eq!(app.activations_of("P").unwrap(), 4);
    assert_eq!(counts.components_built.load(Ordering::SeqCst), 4);
    assert_eq!(counts.handlers_built.load(Ordering::SeqCst), 4);
    assert_eq!(app.stats().handler_panics, 0);
}

#[test]
fn racing_activations_balance_and_each_builds_fresh_state() {
    const THREADS: u64 = 4;
    const MESSAGES: u64 = 500;
    let log = Log::default();
    let counts = Arc::new(Counts::default());
    let app = build(&log, &counts);

    // Every message may find P inactive, active, mid-activation or
    // mid-teardown on another thread; the barrier lines the threads up.
    let go = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                go.wait();
                for _ in 0..MESSAGES {
                    app.send_to("P", "In", Num, Priority::NORM)
                        .unwrap_or_else(|e| panic!("delivery failed: {e}"));
                }
            });
        }
    });

    let activations = app.activations_of("P").unwrap();
    let stats = app.stats();
    assert!(!app.is_active("P").unwrap());
    assert_eq!(counts.processed.load(Ordering::SeqCst), THREADS * MESSAGES);
    assert_eq!(stats.deactivations, activations);
    assert_eq!(counts.components_built.load(Ordering::SeqCst), activations);
    assert_eq!(counts.handlers_built.load(Ordering::SeqCst), activations);
    assert_eq!(stats.handler_panics, 0);
}
