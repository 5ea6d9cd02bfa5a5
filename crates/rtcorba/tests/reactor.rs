//! Integration tests for the Compadres server's event-driven reactor
//! transport against a real TCP socket: partial-frame reassembly across
//! many readiness events, fault injection reused from `chaos`, the
//! server's health after misbehaving peers disconnect mid-frame, and the
//! per-connection inbox valve.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rtcorba::cdr::Endian;
use rtcorba::chaos::{FaultPlan, FaultyConn};
use rtcorba::corb::CompadresServer;
use rtcorba::giop::{
    self, parse_header, trace_slot, GiopError, Message, ReplyStatus, RequestMessage, HEADER_LEN,
    TRACE_CONTEXT_SLOT,
};
use rtcorba::reactor::ReactorConfig;
use rtcorba::service::{ObjectRegistry, Servant};
use rtcorba::transport::{Connection, TcpConn};
use rtplatform::bufchain::SegPool;

fn reactor_server() -> CompadresServer {
    rtcorba::ServerBuilder::new(ObjectRegistry::with_echo())
        .serve()
        .expect("spawn reactor server")
}

fn encode(req: &RequestMessage) -> Vec<u8> {
    req.encode_chain(Endian::Big, &SegPool::new(2, 1024))
        .to_vec()
}

fn decode(frame: &[u8]) -> Result<Message, GiopError> {
    giop::decode_view(&[frame]).map(|v| v.to_message())
}

/// Reads exactly one GIOP frame from a raw stream.
fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header).expect("reply header");
    let (_, _, body) = parse_header(&header).expect("reply header parses");
    let mut frame = header.to_vec();
    frame.resize(HEADER_LEN + body, 0);
    stream
        .read_exact(&mut frame[HEADER_LEN..])
        .expect("reply body");
    frame
}

/// A request dripped one byte at a time — every byte its own TCP segment
/// and (on the server) its own readiness event — must produce exactly
/// one complete reply with the request's service contexts echoed back.
#[test]
fn dripped_request_yields_single_complete_reply() {
    let server = reactor_server();
    let req = RequestMessage {
        request_id: 77,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![0xAB; 100],
        service_context: vec![
            (TRACE_CONTEXT_SLOT, trace_slot(0x0DD_BA11, 3, 42).to_vec()),
            (0xBEEF, vec![1, 2, 3, 4, 5]),
        ],
    };
    let frame = encode(&req);

    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    for (i, byte) in frame.iter().enumerate() {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        // Pause long enough for the reactor to observe most bytes as
        // separate partial reads, without making the test crawl.
        if i % 4 == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    let reply_frame = read_frame(&mut stream);
    match decode(&reply_frame).expect("reply decodes") {
        Message::Reply(reply) => {
            assert_eq!(reply.request_id, 77);
            assert_eq!(reply.status, ReplyStatus::NoException);
            assert_eq!(reply.body, req.body, "echo must return the body");
            assert_eq!(
                reply.service_context, req.service_context,
                "contexts must survive reassembly from single-byte reads"
            );
        }
        other => panic!("expected a reply, got {other:?}"),
    }

    // Exactly one reply: nothing further arrives before a short timeout.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    let mut extra = [0u8; 1];
    match stream.read(&mut extra) {
        Ok(0) => {} // server closed cleanly
        Ok(n) => panic!("unexpected extra {n} byte(s) after the reply"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "unexpected error: {e}"
        ),
    }
    server.shutdown();
}

/// `chaos::FaultyConn` truncation, pointed at the reactor server: the
/// reply loses half its body in transit and must surface as the
/// documented `ShortBody` decode error — while the server keeps serving
/// untouched connections.
#[test]
fn truncated_reply_from_reactor_maps_to_short_body() {
    let server = reactor_server();
    let addr = server.addr().unwrap();

    let conn = FaultyConn::new(
        Arc::new(TcpConn::connect(addr).unwrap()),
        FaultPlan {
            truncate: 1.0,
            ..FaultPlan::quiet(11)
        },
    );
    let req = RequestMessage {
        request_id: 1,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![7; 64],
        service_context: Vec::new(),
    };
    conn.send_frame(&encode(&req)).unwrap();
    let frame = conn.recv_frame().unwrap();
    match decode(&frame) {
        Err(GiopError::ShortBody { declared, actual }) => {
            assert!(actual < declared, "truncation must shorten the body");
        }
        other => panic!("expected ShortBody from truncated reply, got {other:?}"),
    }
    assert_eq!(conn.injected().truncated, 1);

    // The fault was client-side: the reactor still answers cleanly.
    let client = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
    assert_eq!(client.invoke(b"echo", "echo", &[9, 9]).unwrap(), vec![9, 9]);
    server.shutdown();
}

/// A peer that declares a large body, sends half of it, and hangs up
/// must not wedge the reactor: its connection is reaped and concurrent
/// plus subsequent clients are unaffected.
#[test]
fn midframe_hangup_leaves_reactor_healthy() {
    let server = reactor_server();
    let addr = server.addr().unwrap();

    // A well-behaved client connected before the misbehaving one.
    let bystander = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();

    let req = RequestMessage {
        request_id: 5,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: vec![3; 400],
        service_context: Vec::new(),
    };
    let frame = encode(&req);
    {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(&frame[..frame.len() / 2]).unwrap();
        stream.flush().unwrap();
        // Dropped here: RST/FIN mid-frame while the reactor holds the
        // partial bytes in the connection's reassembly buffer.
    }

    // Both the pre-existing and a fresh connection still round-trip.
    assert_eq!(
        bystander.invoke(b"echo", "reverse", &[1, 2, 3]).unwrap(),
        vec![3, 2, 1]
    );
    let fresh = rtcorba::ClientBuilder::new().connect_zen(addr).unwrap();
    assert_eq!(fresh.invoke(b"echo", "echo", &[8]).unwrap(), vec![8]);
    server.shutdown();
}

/// A servant that reports each entry and then blocks until released.
struct GateServant {
    entered: Mutex<mpsc::Sender<()>>,
    open: Mutex<bool>,
    released: Condvar,
}

impl Servant for GateServant {
    fn invoke(&self, _operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        let _ = self.entered.lock().unwrap().send(());
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.released.wait(open).unwrap();
        }
        Ok(args.to_vec())
    }
}

/// The per-connection inbox valve: with the one worker held inside the
/// servant, a connection that pipelines more requests than its inbox
/// holds has the excess shed and counted — the reactor neither queues
/// without bound nor wedges, the connection stays usable, and other
/// connections are served.
#[test]
fn full_inbox_sheds_the_excess_and_keeps_serving() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let gate = Arc::new(GateServant {
        entered: Mutex::new(entered_tx),
        open: Mutex::new(false),
        released: Condvar::new(),
    });
    let registry = ObjectRegistry::with_echo();
    registry.register(b"gate".to_vec(), Arc::clone(&gate) as Arc<dyn Servant>);
    let server = rtcorba::ServerBuilder::new(registry)
        .reactor(ReactorConfig {
            workers: 1,
            inbox_capacity: 2,
        })
        .serve()
        .unwrap();
    let obs = server.app().observer();
    let shed = obs.counter("reactor_shed_total");

    let request = |id: u32| {
        encode(&RequestMessage {
            request_id: id,
            response_expected: true,
            object_key: b"gate".to_vec(),
            operation: "pass".into(),
            body: id.to_be_bytes().to_vec(),
            service_context: Vec::new(),
        })
    };
    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    let expect_reply = |stream: &mut TcpStream, id: u32| match decode(&read_frame(stream)) {
        Ok(Message::Reply(r)) => {
            assert_eq!(r.request_id, id, "replies stay in request order");
            assert_eq!(r.status, ReplyStatus::NoException);
            assert_eq!(r.body, id.to_be_bytes());
        }
        other => panic!("expected reply {id}, got {other:?}"),
    };

    // Hold the one worker inside the servant, its connection's inbox
    // empty behind it.
    stream.write_all(&request(0)).unwrap();
    entered_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the worker reached the servant");

    // Eight more, pipelined: the inbox holds two, six are shed.
    let pipelined: Vec<u8> = (1..=8).flat_map(request).collect();
    stream.write_all(&pipelined).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while obs.counter_value(shed) < 6 {
        assert!(
            Instant::now() < deadline,
            "only {} frames shed",
            obs.counter_value(shed)
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    *gate.open.lock().unwrap() = true;
    gate.released.notify_all();
    for id in 0..=2 {
        expect_reply(&mut stream, id);
    }
    assert_eq!(
        obs.counter_value(shed),
        6,
        "held and queued requests are not shed"
    );

    // The same connection after the burst: still served.
    stream.write_all(&request(100)).unwrap();
    expect_reply(&mut stream, 100);

    let other = rtcorba::ClientBuilder::new()
        .connect(server.addr().unwrap())
        .unwrap();
    assert_eq!(other.invoke(b"echo", "echo", &[4, 2]).unwrap(), vec![4, 2]);
    server.shutdown();
}
