//! Steady-state allocation guard for a remote port (ROADMAP aim 3):
//! what one message from a `RemotePort` over TCP loopback into a
//! `PortExporter` and on to a synchronous in-port takes from the heap
//! once the link is up, sender and exporter threads together.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

mod common;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use compadres_core::remote::{PortExporter, RemotePort};
use compadres_core::{AppBuilder, HandlerCtx};

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Reading</MessageType></Port>
  </Component>
</Components>"#;

const CCL: &str = r#"
<Application>
  <ApplicationName>RemoteSink</ApplicationName>
  <Component>
    <InstanceName>TheSink</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>In</PortName>
        <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
      </Port>
    </Connection>
  </Component>
</Application>"#;

#[test]
fn a_remote_message_allocates_within_its_budget() {
    const WARM_UP: u64 = 100;
    const MESSAGES: u64 = 1_000;
    /// Measured: exactly 0 (2 while the exporter boxed every injection
    /// and made a memory context for each). The sender encodes into its
    /// kept body buffer and a one-segment frame of its pool; the
    /// exporter reads into its connection's kept buffer, decodes a
    /// `u64`, and injects it on its connection's kept context into a
    /// box the in-port's pool lends. An asynchronous sink would add its
    /// pool worker's batch (`async_allocs.rs`).
    const BUDGET_PER_MESSAGE: u64 = 0;

    let handled = Arc::new(AtomicU64::new(0));
    let seen = Arc::clone(&handled);
    let app = Arc::new(
        AppBuilder::from_xml(CDL, CCL)
            .unwrap()
            .bind_message_type::<u64>("Reading")
            .register_handler("Sink", "In", move || {
                let seen = Arc::clone(&seen);
                move |m: &mut u64, _c: &mut HandlerCtx<'_>| {
                    assert_eq!(*m, seen.fetch_add(1, Ordering::Relaxed));
                    Ok(())
                }
            })
            .build()
            .unwrap(),
    );
    app.start().unwrap();
    let exporter = PortExporter::bind::<u64>(&app, "TheSink", "In").unwrap();
    let port = RemotePort::<u64>::connect(exporter.local_addr()).unwrap();

    let mut next = 0;
    let mut send = |n: u64| {
        let before = common::allocations();
        for _ in 0..n {
            port.send(&next, 5).unwrap();
            next += 1;
        }
        // Oneway: wait until the exporter has handed every one over.
        let deadline = Instant::now() + Duration::from_secs(10);
        while handled.load(Ordering::Relaxed) < next {
            assert!(Instant::now() < deadline, "messages lost");
            std::thread::yield_now();
        }
        common::allocations() - before
    };

    send(WARM_UP);
    let allocated = send(MESSAGES);
    assert_eq!(exporter.received(), WARM_UP + MESSAGES);
    common::assert_budget(
        allocated as i64,
        MESSAGES,
        BUDGET_PER_MESSAGE,
        "remote message",
    );
}
