//! Failure injection on the remote-port layer: malformed frames,
//! oversized claims and abrupt disconnects must never take the receiving
//! application down.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use compadres_core::remote::{PortExporter, RemotePort};
use compadres_core::smm::BytesCodec;
use compadres_core::{App, AppBuilder, HandlerCtx, Priority};
use rtplatform::fault::{DegradeMode, FaultPolicy};
use rtplatform::giop;

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

/// A sender-side message of any size; four bytes of it decode as a
/// [`Ping`] on the other end.
#[derive(Debug, Default)]
struct Blob(Vec<u8>);

impl BytesCodec for Blob {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn decode(bytes: &[u8]) -> Self {
        Blob(bytes.to_vec())
    }
}

fn app_with_sink() -> (Arc<App>, mpsc::Receiver<u32>) {
    let cdl = r#"
      <Component><ComponentName>Sink</ComponentName>
        <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Ping</MessageType></Port>
      </Component>"#;
    let ccl = r#"
      <Application><ApplicationName>Robust</ApplicationName>
        <Component><InstanceName>S</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
          <Connection><Port><PortName>In</PortName>
            <PortAttributes><BufferSize>16</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize></PortAttributes>
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

#[test]
fn oversized_frame_claim_drops_connection_not_app() {
    let (app, rx) = app_with_sink();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();

    // A hostile sender claims a 1 GiB GIOP request.
    let mut evil = TcpStream::connect(exporter.local_addr()).unwrap();
    let mut frame = b"GIOP\x01\x00\x00\x00".to_vec(); // 1.0, big-endian, Request
    frame.extend_from_slice(&(1u32 << 30).to_be_bytes());
    frame.extend_from_slice(&[0u8; 64]);
    evil.write_all(&frame).unwrap();
    drop(evil);

    // The app is still alive: a well-behaved sender gets through.
    let sender = RemotePort::<Ping>::connect(exporter.local_addr()).unwrap();
    sender.send(&Ping { n: 77 }, Priority::NORM).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 77);
    assert_eq!(
        exporter.received(),
        1,
        "the hostile frame was never accepted"
    );
}

/// The sender's side of the same limit: a message the exporter would
/// drop the connection on is refused up front, so it neither burns the
/// retry budget killing the link (`Fail`) nor wedges the resend queue
/// from its head (`DropOldest`).
#[test]
fn oversized_message_is_refused_before_it_reaches_the_link() {
    let (app, rx) = app_with_sink();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let poison = Blob(vec![0; giop::MAX_BODY + 1]);
    for degrade in [DegradeMode::Fail, DegradeMode::DropOldest] {
        let policy = FaultPolicy {
            degrade,
            ..FaultPolicy::tight()
        };
        let sender = RemotePort::<Blob>::connect_with(exporter.local_addr(), policy).unwrap();
        assert!(
            sender.send(&poison, Priority::NORM).is_err(),
            "{degrade:?} must refuse it"
        );
        assert_eq!(
            (sender.retries(), sender.sheds(), sender.pending()),
            (0, 0, 0),
            "{degrade:?}: the link and the queue never saw it"
        );
        let n = degrade as u32 + 40;
        sender
            .send(&Blob(n.to_le_bytes().to_vec()), Priority::NORM)
            .unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), n);
        assert_eq!((sender.sent(), sender.reconnects()), (1, 0));
    }
}

#[test]
fn truncated_stream_is_harmless() {
    let (app, rx) = app_with_sink();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();

    // Half a GIOP header, then hang up.
    let mut flaky = TcpStream::connect(exporter.local_addr()).unwrap();
    flaky.write_all(b"GIOP\x01\x00").unwrap();
    drop(flaky);

    let sender = RemotePort::<Ping>::connect(exporter.local_addr()).unwrap();
    sender.send(&Ping { n: 1 }, Priority::NORM).unwrap();
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);
}

#[test]
fn exporter_shutdown_stops_accepting() {
    let (app, _rx) = app_with_sink();
    let exporter = PortExporter::bind::<Ping>(&app, "S", "In").unwrap();
    let addr = exporter.local_addr();
    exporter.shutdown();
    // Give the acceptor a moment to wind down, then connects must fail or
    // be immediately useless (no panic either way).
    std::thread::sleep(Duration::from_millis(100));
    if let Ok(port) = RemotePort::<Ping>::connect(addr) {
        // The accept loop is gone; the send may succeed into a dead socket
        // buffer but must not panic, and nothing is delivered.
        let _ = port.send(&Ping { n: 9 }, Priority::NORM);
    }
    assert_eq!(exporter.received(), 0);
}
