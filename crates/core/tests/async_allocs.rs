//! Allocation guard for asynchronous local dispatch (ROADMAP aim 3): an
//! accepted message reaches its worker as a queued value, and a refused
//! one costs nothing at all.
//!
//! Source → Stage → Sink, both hops asynchronous with one worker each.
//! Stage's in-port has a buffer of 8 and banded admission, so with its
//! worker plugged a low-priority send is shed and a high one finds the
//! buffer full.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use compadres_core::{AdmissionPolicy, AppBuilder, CompadresError, HandlerCtx, Priority};

/// `plug` parks Stage's worker until the test releases it.
#[derive(Debug, Default, Clone)]
struct Msg {
    plug: bool,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Msg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Stage</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Msg</MessageType></Port>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Msg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Msg</MessageType></Port>
  </Component>
</Components>"#;

/// Sink's buffer holds everything Stage forwards after the plug lifts.
const CCL: &str = r#"
<Application>
  <ApplicationName>AsyncAllocs</ApplicationName>
  <Component>
    <InstanceName>Src</InstanceName><ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><PortType>Internal</PortType><ToComponent>St</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>St</InstanceName><ClassName>Stage</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>8</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
        <Port><PortName>Out</PortName>
          <Link><PortType>External</PortType><ToComponent>Sk</ToComponent><ToPort>In</ToPort></Link>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>Sk</InstanceName><ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>16</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>200000</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

fn send(ctx: &mut HandlerCtx<'_>, port: &str, plug: bool, prio: u8) -> compadres_core::Result<()> {
    let mut m = ctx.get_message::<Msg>(port)?;
    m.plug = plug;
    ctx.send(port, m, Priority::new(prio))
}

#[test]
fn an_async_hop_allocates_one_batch_and_a_refusal_nothing() {
    const WARM_UP: u64 = 100;
    const ROUND_TRIPS: u64 = 1_000;
    /// Measured: exactly 1 per hop, `PriorityFifo::pop_batch`'s `Vec`,
    /// one per worker wake-up; one message per quiescent round trip
    /// wakes each worker once. The hand-off itself queues a `Delivery`
    /// value and allocates nothing. ROADMAP item 2(c) says what the
    /// batch buffer waits for.
    const BUDGET_PER_HOP: u64 = 1;
    /// A `Shed` or `BufferFull` names its port with two reference
    /// counts, and the journal and counters are preallocated.
    const BUDGET_PER_REFUSAL: u64 = 0;
    const REFUSALS: u64 = 200;
    const HIGH: u8 = 50;
    const LOW: u8 = 1;

    let (started_tx, started) = mpsc::channel::<()>();
    let (release, release_rx) = mpsc::channel::<()>();
    let release_rx = Arc::new(Mutex::new(release_rx));
    let delivered = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&delivered);
    let app = AppBuilder::from_xml(CDL, CCL)
        .unwrap()
        .bind_message_type::<Msg>("Msg")
        .port_admission("St", "In", AdmissionPolicy::banded(10, 40))
        .register_handler("Stage", "In", move || {
            let started = started_tx.clone();
            let release = Arc::clone(&release_rx);
            move |m: &mut Msg, ctx: &mut HandlerCtx<'_>| {
                if m.plug {
                    let _ = started.send(());
                    let _ = release.lock().unwrap().recv();
                }
                send(ctx, "Out", false, HIGH)
            }
        })
        .register_handler("Sink", "In", move || {
            let seen = Arc::clone(&seen);
            move |_m: &mut Msg, _c: &mut HandlerCtx<'_>| {
                seen.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    // Rebound after `app`, so it drops first: a failed assertion with
    // the worker plugged unblocks it instead of hanging `app`'s drop.
    let release = release;
    let _keep = [app.connect("St").unwrap(), app.connect("Sk").unwrap()];
    let settle = || assert!(app.wait_quiescent(Duration::from_secs(10)));

    // (a) One message per quiescent round trip: each hop is one wake-up.
    let allocated = app
        .with_component("Src", |ctx| {
            for _ in 0..WARM_UP {
                send(ctx, "Out", false, HIGH).unwrap();
                settle();
            }
            let before = common::allocations();
            for _ in 0..ROUND_TRIPS {
                send(ctx, "Out", false, HIGH).unwrap();
                settle();
            }
            common::allocations() - before
        })
        .unwrap();
    assert_eq!(delivered.load(Ordering::Relaxed), WARM_UP + ROUND_TRIPS);
    common::assert_budget(allocated as i64, 2 * ROUND_TRIPS, BUDGET_PER_HOP, "hop");

    // (b) Worker plugged, buffer full: low bands are shed, high ones
    // find the buffer full.
    let allocated = app
        .with_component("Src", |ctx| {
            send(ctx, "Out", true, HIGH).unwrap();
            started
                .recv_timeout(Duration::from_secs(5))
                .expect("plug handler entered");
            for _ in 0..8 {
                send(ctx, "Out", false, HIGH).unwrap();
            }
            let mut refuse = || {
                let shed = send(ctx, "Out", false, LOW);
                assert!(matches!(shed, Err(CompadresError::Shed { .. })), "{shed:?}");
                let full = send(ctx, "Out", false, HIGH);
                assert!(
                    matches!(full, Err(CompadresError::BufferFull { .. })),
                    "{full:?}"
                );
            };
            // The first refused send checks out the message pool's last
            // never-used message, which the pool builds then.
            refuse();
            let before = common::allocations();
            for _ in 0..REFUSALS {
                refuse();
            }
            common::allocations() - before
        })
        .unwrap();
    release.send(()).unwrap();
    settle();
    let stats = app.stats();
    assert_eq!(stats.messages_shed, REFUSALS + 1);
    assert_eq!(stats.buffer_rejections, REFUSALS + 1);
    assert_eq!(delivered.load(Ordering::Relaxed), WARM_UP + ROUND_TRIPS + 9);
    common::assert_budget(
        allocated as i64,
        2 * REFUSALS,
        BUDGET_PER_REFUSAL,
        "refusal",
    );
}
