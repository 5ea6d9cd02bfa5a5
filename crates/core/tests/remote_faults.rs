//! Fault-tolerance behaviour of the remote layer: degradation modes,
//! reconnects, deadline handling, and exporter thread hygiene.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use compadres_core::remote::{PortExporter, RemotePort};
use compadres_core::smm::BytesCodec;
use compadres_core::{App, AppBuilder, HandlerCtx};
use rtplatform::fault::{DegradeMode, FaultPolicy};
use rtsched::Priority;

#[derive(Debug, Default, Clone, PartialEq)]
struct Ping {
    n: u32,
}

impl BytesCodec for Ping {
    fn encode(&self, out: &mut Vec<u8>) {
        self.n.encode(out);
    }
    fn decode(bytes: &[u8]) -> Self {
        Ping {
            n: u32::decode(bytes),
        }
    }
}

/// One worker on the sink port, so the order messages reach `rx` is the
/// order they arrived in (a second worker could overtake the first).
fn sink_app() -> (Arc<App>, mpsc::Receiver<u32>) {
    let cdl = r#"
      <Component><ComponentName>Sink</ComponentName>
        <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Ping</MessageType></Port>
      </Component>"#;
    let ccl = r#"
      <Application><ApplicationName>FaultSink</ApplicationName>
        <Component><InstanceName>S</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
          <Connection><Port><PortName>In</PortName>
            <PortAttributes><BufferSize>64</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize></PortAttributes>
          </Port></Connection>
        </Component>
      </Application>"#;
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(cdl, ccl)
        .unwrap()
        .bind_message_type::<Ping>("Ping")
        .register_handler("Sink", "In", move || {
            let tx = tx.clone();
            move |msg: &mut Ping, _ctx: &mut HandlerCtx<'_>| {
                let _ = tx.send(msg.n);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    (Arc::new(app), rx)
}

/// A fast-failing policy so tests do not sit out multi-second deadlines.
fn quick(degrade: DegradeMode) -> FaultPolicy {
    let mut p = FaultPolicy::tight();
    p.degrade = degrade;
    p.pending_cap = 4;
    p
}

/// Threads named by `PortExporter` (acceptor + per-connection workers).
/// Linux truncates `comm` to 15 chars, so both names collapse to the
/// same prefix. Counting by name keeps the leak check immune to the
/// process-wide thread churn of concurrently running tests.
fn export_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with("compadres-expor"))
        .count()
}

#[test]
fn fail_mode_errors_after_retry_budget() {
    let (app, _rx) = sink_app();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let addr = exporter.local_addr();
    let sender = RemotePort::<Ping>::connect_with(addr, quick(DegradeMode::Fail)).unwrap();
    sender.send(&Ping { n: 1 }, Priority::NORM).unwrap();
    drop(exporter); // closes all connections and frees the port

    // The link is dead; retries are bounded, then the caller sees it.
    let mut failed = false;
    for n in 2..10 {
        if sender.send(&Ping { n }, Priority::NORM).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "Fail mode must surface the outage to the caller");
    assert!(sender.retries() > 0, "retry budget must be spent first");
}

#[test]
fn shed_mode_swallows_loss_and_counts_it() {
    let (app, _rx) = sink_app();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let addr = exporter.local_addr();
    let sender = RemotePort::<Ping>::connect_with(addr, quick(DegradeMode::Shed)).unwrap();
    sender.send(&Ping { n: 1 }, Priority::NORM).unwrap();
    drop(exporter);

    for n in 2..6 {
        sender
            .send(&Ping { n }, Priority::NORM)
            .expect("Shed mode never fails the caller");
    }
    assert!(sender.sheds() > 0, "shed losses must be counted");
}

#[test]
fn drop_oldest_queues_bounded_and_flushes_on_reconnect() {
    let (app, rx) = sink_app();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let addr = exporter.local_addr();
    let sender = RemotePort::<Ping>::connect_with(addr, quick(DegradeMode::DropOldest)).unwrap();
    sender.send(&Ping { n: 0 }, Priority::NORM).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 0);
    drop(exporter);
    // Give the OS a moment to tear the listener down.
    std::thread::sleep(Duration::from_millis(50));

    // Link is down: sends queue instead of blocking, cap sheds oldest.
    // (The first couple of writes may still land in the dead socket's
    // buffer before the RST arrives — that's TCP, not the queue.)
    for n in 1..=12 {
        sender.send(&Ping { n }, Priority::NORM).unwrap();
    }
    assert!(sender.pending() <= 4, "queue must respect pending_cap");
    assert!(sender.sheds() >= 1, "overflow must shed the oldest");

    // Restart the exporter at the same address; let the backoff window
    // lapse, then the next send reconnects and flushes the backlog.
    let exporter =
        PortExporter::bind_to::<Ping>(&app, "S", "In", Some(addr), FaultPolicy::default()).unwrap();
    let mut delivered = Vec::new();
    for _ in 0..200 {
        std::thread::sleep(Duration::from_millis(25));
        let _ = sender.send(&Ping { n: 99 }, Priority::NORM);
        while let Ok(n) = rx.try_recv() {
            delivered.push(n);
        }
        if delivered.contains(&99) {
            break;
        }
    }
    assert!(
        delivered.contains(&99),
        "sender must reconnect and deliver, got {delivered:?}"
    );
    // Backlog flushes in order, before newer messages.
    let queued: Vec<_> = delivered.iter().copied().filter(|n| *n < 99).collect();
    let mut sorted = queued.clone();
    sorted.sort_unstable();
    assert_eq!(queued, sorted, "backlog must flush oldest-first");
    assert!(sender.reconnects() >= 1);
    assert!(exporter.received() > 0);
}

#[test]
fn exporter_shutdown_joins_connection_threads() {
    let (app, rx) = sink_app();
    {
        let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
        let addr = exporter.local_addr();
        // Open several connections that then sit idle: these are exactly
        // the threads the old implementation leaked on shutdown.
        let senders: Vec<_> = (0..4)
            .map(|_| RemotePort::<Ping>::connect(addr).unwrap())
            .collect();
        for (i, s) in senders.iter().enumerate() {
            s.send(&Ping { n: i as u32 }, Priority::NORM).unwrap();
        }
        for _ in 0..4 {
            rx.recv_timeout(Duration::from_secs(5)).unwrap();
        }
        assert!(
            export_threads() >= 5,
            "1 acceptor + 4 connection threads must be live"
        );
        // Drop runs shutdown(): severs conns, joins acceptor + workers.
    }
    // Our exporter's threads are joined; any still counted belong to
    // concurrently running tests, whose exporters drop when they finish,
    // so poll briefly instead of asserting an instantaneous zero.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while export_threads() > 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "exporter threads leaked past shutdown"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn stalled_sender_is_dropped_not_wedged() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let (app, rx) = sink_app();
    let policy = FaultPolicy {
        recv_timeout: Duration::from_millis(100),
        ..FaultPolicy::default()
    };
    let exporter = PortExporter::bind_with::<Ping>(&app, "S", "In", policy).unwrap();
    let addr = exporter.local_addr();

    // A raw socket that sends half a GIOP header and then stalls forever.
    let mut stall = TcpStream::connect(addr).unwrap();
    stall.write_all(b"GIOP\x01\x00").unwrap(); // 6 of 12 header bytes
    stall.flush().unwrap();

    // The exporter must notice the stall within the recv deadline...
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while exporter.deadline_misses() == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "stalled connection never timed out"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // ...and keep serving well-behaved senders.
    let sender = RemotePort::<Ping>::connect(addr).unwrap();
    sender.send(&Ping { n: 7 }, Priority::NORM).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 7);
    // The dropped connection is closed, not held open: the staller
    // reads end of stream instead of waiting on a socket nobody serves.
    stall
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    assert_eq!(stall.read(&mut [0u8; 1]).unwrap(), 0, "EOF");
}

#[test]
fn remote_metrics_surface_in_observer() {
    let (app, _rx) = sink_app();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let addr = exporter.local_addr();
    let sender = RemotePort::<Ping>::connect_with(addr, quick(DegradeMode::Shed)).unwrap();
    sender.set_observer(app.observer());
    sender.send(&Ping { n: 1 }, Priority::NORM).unwrap();
    drop(exporter);
    for n in 2..5 {
        sender.send(&Ping { n }, Priority::NORM).unwrap();
    }
    let text = app.metrics_text();
    for metric in [
        "remote_retries_total",
        "remote_sheds_total",
        "remote_retry_backoff_ns",
        "remote_rx_frames_total",
    ] {
        assert!(text.contains(metric), "missing {metric} in:\n{text}");
    }
}
