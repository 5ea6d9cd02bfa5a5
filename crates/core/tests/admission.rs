//! Priority-band admission control on local in-port queues: under
//! overload the low bands shed first at their exact watermarks while
//! capacity stays reserved for high-priority traffic (DESIGN.md §5j).
//!
//! The tests are deterministic: a "plug" message parks the single
//! worker inside its handler, so subsequent sends hit a queue whose
//! occupancy is known exactly and every shed/full decision is forced.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use compadres_core::{AdmissionPolicy, App, AppBuilder, CompadresError, HandlerCtx, Priority};

/// `seq` identifies the message in the processed log; `plug` parks the
/// worker until the test releases it.
#[derive(Debug, Default, Clone)]
struct Job {
    seq: u64,
    plug: bool,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Job</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Job</MessageType></Port>
  </Component>
</Components>"#;

/// One async worker, 8-deep buffer: with `banded(10, 40)` the
/// watermarks land on whole slots — low 4, mid 6, high 8.
const CCL: &str = r#"
<Application>
  <ApplicationName>AdmissionTest</ApplicationName>
  <Component>
    <InstanceName>S</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><ToComponent>K</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>K</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>8</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
</Application>"#;

struct Fixture {
    /// Releases the parked worker. Declared (and therefore dropped)
    /// before `app`: if a test panics with the worker still parked,
    /// dropping the sender unblocks the handler's `recv()` so the
    /// `App` drop can join its workers instead of deadlocking.
    release: mpsc::Sender<()>,
    app: Arc<App>,
    /// (handler priority, seq) in processing order.
    processed: Arc<Mutex<Vec<(u8, u64)>>>,
    /// Fires once the plug handler has entered (worker parked, queue empty).
    started: mpsc::Receiver<()>,
}

fn build(policy: AdmissionPolicy) -> Fixture {
    let processed = Arc::new(Mutex::new(Vec::new()));
    let (started_tx, started) = mpsc::channel();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let log = Arc::clone(&processed);
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Job>("Job")
        .port_admission("K", "In", policy)
        .register_handler("Sink", "In", move || {
            let log = Arc::clone(&log);
            let started = started_tx.clone();
            let release = Arc::clone(&release_rx);
            move |msg: &mut Job, ctx: &mut HandlerCtx<'_>| {
                log.lock().unwrap().push((ctx.priority().value(), msg.seq));
                if msg.plug {
                    let _ = started.send(());
                    let _ = release.lock().unwrap().recv();
                }
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    Fixture {
        release,
        app: Arc::new(app),
        processed,
        started,
    }
}

/// Sends one `Job` from the source at `prio`; returns the send verdict
/// (`Ok`, `Shed` or `BufferFull`).
fn send(app: &App, seq: u64, prio: u8, plug: bool) -> compadres_core::Result<()> {
    app.with_component("S", |ctx| {
        let mut msg = ctx.get_message::<Job>("Out")?;
        msg.seq = seq;
        msg.plug = plug;
        ctx.send("Out", msg, Priority::new(prio))
    })
    .expect("source instance exists")
}

fn shed(priority: u8) -> CompadresError {
    CompadresError::Shed {
        instance: "K".into(),
        port: "In".into(),
        priority,
    }
}

/// Parks the worker inside the plug handler so the queue occupancy is
/// exactly zero when the test starts filling it.
fn plug_worker(fx: &Fixture) {
    send(&fx.app, 0, 50, true).unwrap();
    fx.started
        .recv_timeout(Duration::from_secs(5))
        .expect("plug handler entered");
}

/// With BufferSize 8 and `banded(10, 40)` the bands stop admitting at
/// occupancy 4 (low), 6 (mid) and 8 (high = hard capacity): the queue
/// fills bottom-up and every rejection is attributable — `Shed` below
/// capacity, `BufferFull` only at it — with the counters matching the
/// rejections one for one.
#[test]
fn low_bands_shed_first_at_exact_watermarks() {
    let fx = build(AdmissionPolicy::banded(10, 40));
    let _keep = fx.app.connect("K").unwrap();
    plug_worker(&fx);

    // Low band (p < 10): watermark 8 * 500‰ = 4 slots. Priority 1 is
    // the floor — `Priority::new` clamps into [1, 99].
    for seq in 1..=4 {
        assert_eq!(send(&fx.app, seq, 1, false), Ok(()), "low slot {seq}");
    }
    assert_eq!(send(&fx.app, 99, 1, false), Err(shed(1)));
    assert_eq!(send(&fx.app, 99, 9, false), Err(shed(9)));

    // Mid band (10 <= p < 40): watermark 8 * 750‰ = 6 slots.
    assert_eq!(send(&fx.app, 5, 25, false), Ok(()));
    assert_eq!(send(&fx.app, 6, 10, false), Ok(()));
    assert_eq!(send(&fx.app, 99, 39, false), Err(shed(39)));

    // High band (p >= 40): full capacity, and the only band that can
    // see a hard BufferFull.
    assert_eq!(send(&fx.app, 7, 45, false), Ok(()));
    assert_eq!(send(&fx.app, 8, 40, false), Ok(()));
    assert_eq!(
        send(&fx.app, 99, 50, false),
        Err(CompadresError::BufferFull {
            instance: "K".into(),
            port: "In".into(),
        })
    );

    // Counters match the rejections exactly: three sheds (two low, one
    // mid), one hard full — globally and on the per-port counter.
    let stats = fx.app.stats();
    assert_eq!(stats.messages_shed, 3);
    assert_eq!(stats.buffer_rejections, 1);
    let metrics = fx.app.metrics_text();
    assert!(
        metrics.contains("compadres_shed_k_in_total 3"),
        "per-port shed counter missing or wrong:\n{metrics}"
    );

    // Drain: strict band order, high to low. Distinct priorities inside
    // a band pop highest-first (45 before 40, 25 before 10).
    fx.release.send(()).unwrap();
    assert!(fx.app.wait_quiescent(Duration::from_secs(10)));
    let order = fx.processed.lock().unwrap().clone();
    assert_eq!(
        order,
        vec![
            (50, 0), // the plug itself
            (45, 7),
            (40, 8),
            (25, 5),
            (10, 6),
            (1, 1),
            (1, 2),
            (1, 3),
            (1, 4),
        ]
    );
}

/// Messages at the same high priority drain in send (FIFO) order even
/// when low-priority traffic is interleaved between them: admission
/// control sheds, it never reorders.
#[test]
fn high_band_fifo_order_survives_interleaved_overload() {
    let fx = build(AdmissionPolicy::banded(10, 40));
    let _keep = fx.app.connect("K").unwrap();
    plug_worker(&fx);

    // Interleave highs (all priority 40) with lows; occupancy never
    // reaches a watermark, so everything is admitted.
    for (seq, prio) in [(1, 1), (2, 40), (3, 1), (4, 40), (5, 40)] {
        assert_eq!(send(&fx.app, seq, prio, false), Ok(()));
    }

    fx.release.send(()).unwrap();
    assert!(fx.app.wait_quiescent(Duration::from_secs(10)));
    let order = fx.processed.lock().unwrap().clone();
    assert_eq!(
        order,
        vec![(50, 0), (40, 2), (40, 4), (40, 5), (1, 1), (1, 3)],
        "high band must drain before low and stay FIFO within the band"
    );
}

/// Negative control: a band configured with a zero permille has a
/// watermark of zero — every message in it is shed even with the queue
/// completely empty, while other bands flow untouched. This is the
/// misconfiguration `rtcheck`'s admission model flags; here the real
/// runtime is shown to actually behave that way.
#[test]
fn zero_permille_band_is_fully_starved() {
    let fx = build(AdmissionPolicy {
        high_floor: 40,
        mid_floor: 10,
        mid_permille: 750,
        low_permille: 0,
    });
    let _keep = fx.app.connect("K").unwrap();

    for attempt in 0..5 {
        assert_eq!(
            send(&fx.app, attempt, 1, false),
            Err(shed(1)),
            "starved band must shed on an empty queue (attempt {attempt})"
        );
    }
    // The other bands are unaffected.
    assert_eq!(send(&fx.app, 100, 10, false), Ok(()));
    assert_eq!(send(&fx.app, 101, 40, false), Ok(()));

    assert!(fx.app.wait_quiescent(Duration::from_secs(10)));
    assert_eq!(fx.app.stats().messages_shed, 5);
    let order = fx.processed.lock().unwrap().clone();
    let seqs: Vec<u64> = order.iter().map(|&(_, s)| s).collect();
    assert!(
        seqs.contains(&100) && seqs.contains(&101) && seqs.iter().all(|&s| s >= 100),
        "only the non-starved bands may be processed: {order:?}"
    );
}

/// `send`, again while the out-port's message pool is empty: the pool
/// holds two messages more than the buffer, so with the buffer nearly
/// full a few concurrent senders can exhaust it before admission is
/// even asked. That is the pool's own back-pressure, not a verdict.
fn send_when_pooled(app: &App, seq: u64, prio: u8) -> compadres_core::Result<()> {
    loop {
        match send(app, seq, prio, false) {
            Err(CompadresError::MessagePoolExhausted { .. }) => std::thread::yield_now(),
            verdict => return verdict,
        }
    }
}

/// A refused sender claims nothing, not even for an instant: with the
/// buffer one slot under capacity, low-band senders hammering the port
/// (every one of them shed) never cost a concurrent high-band message
/// its slot. The same claim rule `rtcheck`'s concurrent admission case
/// checks on a bare counter, here through `deliver()`.
#[test]
fn refused_low_band_senders_never_cost_the_high_band_its_slot() {
    const ROUNDS: u64 = 200;
    const LOW_SENDERS: u64 = 3;
    const LOW_SENDS: u64 = 100;
    let fx = build(AdmissionPolicy::banded(10, 40));
    let _keep = fx.app.connect("K").unwrap();

    for round in 0..ROUNDS {
        plug_worker(&fx);
        // Capacity − 1: low 4, mid 2, high 1.
        for (seq, prio) in [(1, 1), (2, 1), (3, 1), (4, 1), (5, 25), (6, 25), (7, 40)] {
            assert_eq!(send(&fx.app, seq, prio, false), Ok(()));
        }
        let go = Arc::new(std::sync::Barrier::new(LOW_SENDERS as usize + 1));
        let lows: Vec<_> = (0..LOW_SENDERS)
            .map(|_| {
                let (app, go) = (Arc::clone(&fx.app), Arc::clone(&go));
                std::thread::spawn(move || {
                    go.wait();
                    for _ in 0..LOW_SENDS {
                        assert_eq!(send_when_pooled(&app, 99, 1), Err(shed(1)));
                    }
                })
            })
            .collect();
        go.wait();
        std::thread::yield_now();
        assert_eq!(
            send_when_pooled(&fx.app, 8, 45),
            Ok(()),
            "round {round}: the last slot is the high band's"
        );
        for low in lows {
            low.join().unwrap();
        }
        fx.release.send(()).unwrap();
        assert!(fx.app.wait_quiescent(Duration::from_secs(10)));
    }
    let stats = fx.app.stats();
    assert_eq!(stats.messages_shed, ROUNDS * LOW_SENDERS * LOW_SENDS);
    assert_eq!(stats.buffer_rejections, 0);
    assert_eq!(stats.messages_processed, ROUNDS * 9);
}
