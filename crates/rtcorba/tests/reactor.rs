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
use rtplatform::bufchain::{FrameBuf, SegPool};

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
    conn.send_chain(&FrameBuf::from_vec(encode(&req))).unwrap();
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

/// Two 64 KiB requests in one write: the first fills a receive segment
/// from its start, so the second starts mid-segment and runs on into
/// the next — a frame carved out as two parts whose body is copied
/// across the seam. Both replies come back byte-exact and in order.
#[test]
fn pipelined_64_kib_requests_reply_exactly_and_in_order() {
    let server = reactor_server();
    let request = |id: u32| RequestMessage {
        request_id: id,
        response_expected: true,
        object_key: b"echo".to_vec(),
        operation: "echo".into(),
        body: (0..64u32 << 10).map(|i| (i * id % 253) as u8).collect(),
        service_context: Vec::new(),
    };
    let (first, second) = (request(3), request(7));
    let mut wire = encode(&first);
    wire.extend(encode(&second));

    let mut stream = TcpStream::connect(server.addr().unwrap()).unwrap();
    stream.write_all(&wire).unwrap();
    for sent in [&first, &second] {
        match decode(&read_frame(&mut stream)) {
            Ok(Message::Reply(r)) => {
                assert_eq!(r.request_id, sent.request_id, "in request order");
                assert_eq!(r.status, ReplyStatus::NoException);
                assert!(r.body == sent.body, "reply {} differs", sent.request_id);
            }
            other => panic!("expected reply {}, got {other:?}", sent.request_id),
        }
    }
    server.shutdown();
}

/// A servant whose reply is 64 KiB whatever it is asked; counts calls.
#[derive(Default)]
struct BigReply {
    served: std::sync::atomic::AtomicU64,
}

impl Servant for BigReply {
    fn invoke(&self, _operation: &str, _args: &[u8]) -> Result<Vec<u8>, String> {
        self.served
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(vec![0xB1; 64 << 10])
    }
}

/// The outbox cap: a peer that pipelines requests and never reads its
/// replies fills the socket buffers and then the outbox. Its connection
/// is closed and counted once; the reactor's other connections go on.
#[test]
fn a_peer_that_never_reads_is_dropped_at_the_outbox_cap() {
    let big = Arc::new(BigReply::default());
    let registry = ObjectRegistry::with_echo();
    registry.register(b"big".to_vec(), Arc::clone(&big) as Arc<dyn Servant>);
    let server = rtcorba::ServerBuilder::new(registry)
        .reactor(ReactorConfig {
            workers: 2,
            inbox_capacity: 8,
        })
        .serve()
        .unwrap();
    let addr = server.addr().unwrap();
    let obs = server.app().observer();
    let full = obs.counter("reactor_outbox_full_total");
    let conns = obs.gauge("reactor_connections");

    let other = rtcorba::ClientBuilder::new().connect(addr).unwrap();
    assert_eq!(other.invoke(b"echo", "echo", &[1]).unwrap(), vec![1]);

    let request = encode(&RequestMessage {
        request_id: 1,
        response_expected: true,
        object_key: b"big".to_vec(),
        operation: "get".into(),
        body: Vec::new(),
        service_context: Vec::new(),
    });
    let mut peer = TcpStream::connect(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let served = || big.served.load(std::sync::atomic::Ordering::SeqCst);
    // One request at a time, each served before the next (none shed),
    // until a reply finds the outbox full; writes fail once the server
    // has hung up.
    let mut sent = 0;
    while obs.counter_value(full) == 0 && peer.write_all(&request).is_ok() {
        sent += 1;
        while served() < sent && obs.counter_value(full) == 0 {
            assert!(Instant::now() < deadline, "the outbox never filled");
            std::thread::yield_now();
        }
    }
    while obs.gauge_value(conns) > 1 {
        assert!(Instant::now() < deadline, "the peer was not dropped");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(obs.counter_value(full), 1, "counted once");
    assert!(obs
        .events()
        .iter()
        .any(|e| e.kind == rtobs::EventKind::OutboxFull));

    assert_eq!(other.invoke(b"echo", "echo", &[2, 3]).unwrap(), vec![2, 3]);
    drop(peer);
    server.shutdown();
}

/// A servant that records the length of every request it is given.
#[derive(Default)]
struct Recorder {
    seen: Mutex<Vec<usize>>,
}

impl Servant for Recorder {
    fn invoke(&self, _operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        self.seen.lock().unwrap().push(args.len());
        Ok(Vec::new())
    }
}

/// A peer that pipelines more oneway requests than one receive segment
/// holds and then shuts down its write side: the reactor reads the
/// socket to EOF before it hangs up, so every request sent before the
/// half-close reaches the servant — three 64 KiB ones and one of
/// 128 KiB, larger than a segment.
#[test]
fn a_half_closed_peer_has_every_request_served() {
    let recorder = Arc::new(Recorder::default());
    let registry = ObjectRegistry::with_echo();
    registry.register(b"rec".to_vec(), Arc::clone(&recorder) as Arc<dyn Servant>);
    let server = rtcorba::ServerBuilder::new(registry).serve().unwrap();
    let sizes = [64 << 10, 64 << 10, 64 << 10, 128 << 10];
    let mut wire = Vec::new();
    for (id, &size) in sizes.iter().enumerate() {
        wire.extend(encode(&RequestMessage {
            request_id: id as u32,
            response_expected: false,
            object_key: b"rec".to_vec(),
            operation: "put".into(),
            body: vec![id as u8; size],
            service_context: Vec::new(),
        }));
    }

    let mut peer = TcpStream::connect(server.addr().unwrap()).unwrap();
    peer.write_all(&wire).unwrap();
    peer.shutdown(std::net::Shutdown::Write).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while recorder.seen.lock().unwrap().len() < sizes.len() {
        assert!(
            Instant::now() < deadline,
            "served only {:?}",
            recorder.seen.lock().unwrap()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(*recorder.seen.lock().unwrap(), sizes, "all, in order");
    server.shutdown();
}

/// Bytes of one reply in the split-write tests: far more than a
/// loopback socket buffers for a peer that is not reading.
const SPLIT_REPLY: usize = 4 << 20;

/// The bytes of the split-write reply for request `id`.
fn split_reply(id: u8) -> Vec<u8> {
    (0..SPLIT_REPLY as u32)
        .map(|i| (i.wrapping_mul(u32::from(id) + 1) % 251) as u8)
        .collect()
}

/// A servant whose reply is [`SPLIT_REPLY`] bytes keyed by the request's
/// first byte; counts calls.
#[derive(Default)]
struct SplitReply {
    served: std::sync::atomic::AtomicU64,
}

impl Servant for SplitReply {
    fn invoke(&self, _operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        self.served
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(split_reply(args[0]))
    }
}

/// The split write path: a peer pipelines three requests for 4 MiB
/// replies and reads nothing until the one worker has answered all
/// three. The worker writes what the socket takes and moves on — it
/// serves another connection meanwhile — and the reactor finishes the
/// rest on `EPOLLOUT`, coalescing the replies queued behind the refused
/// write. All three arrive byte-exact and in order.
#[test]
fn replies_a_full_socket_refused_are_finished_by_the_reactor_in_order() {
    let big = Arc::new(SplitReply::default());
    let registry = ObjectRegistry::with_echo();
    registry.register(b"big".to_vec(), Arc::clone(&big) as Arc<dyn Servant>);
    let server = rtcorba::ServerBuilder::new(registry)
        .reactor(ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        })
        .serve()
        .unwrap();
    let addr = server.addr().unwrap();
    let obs = server.app().observer();
    let coalesced = obs.histogram("reactor_coalesced_writes");

    let ids = [1u8, 2, 3];
    let mut wire = Vec::new();
    for id in ids {
        wire.extend(encode(&RequestMessage {
            request_id: u32::from(id),
            response_expected: true,
            object_key: b"big".to_vec(),
            operation: "get".into(),
            body: vec![id],
            service_context: Vec::new(),
        }));
    }
    let mut peer = TcpStream::connect(addr).unwrap();
    peer.write_all(&wire).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while big.served.load(std::sync::atomic::Ordering::SeqCst) < 3 {
        assert!(Instant::now() < deadline, "the requests were not served");
        std::thread::sleep(Duration::from_millis(1));
    }

    // The one worker is free although 12 MiB of replies are unread: it
    // serves another connection, after it has handed over reply 3.
    let other = rtcorba::ClientBuilder::new().connect(addr).unwrap();
    assert_eq!(other.invoke(b"echo", "echo", &[5, 6]).unwrap(), vec![5, 6]);

    peer.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for id in ids {
        match decode(&read_frame(&mut peer)) {
            Ok(Message::Reply(r)) => {
                assert_eq!(r.request_id, u32::from(id), "in request order");
                assert_eq!(r.status, ReplyStatus::NoException);
                assert!(r.body == split_reply(id), "reply {id} differs");
            }
            other => panic!("expected reply {id}, got {other:?}"),
        }
    }
    assert!(
        obs.hist_snapshot(coalesced).max >= 2,
        "replies queued behind a refused write go out together"
    );
    server.shutdown();
}

/// `close()` on a connection whose outbox is blocked: the reactor
/// writes out every queued byte on `EPOLLOUT` first, and only then
/// does the peer see EOF.
#[test]
fn close_behind_a_blocked_outbox_delivers_every_queued_byte_before_eof() {
    let (closed_tx, closed_rx) = mpsc::channel();
    let make_handler = move || -> rtcorba::reactor::FrameFn {
        let closed = closed_tx.clone();
        let mut replied = 0u8;
        Box::new(move |conn, _frame| {
            replied += 1;
            conn.send_chain(&FrameBuf::from_vec(split_reply(replied)))
                .unwrap();
            if replied == 3 {
                conn.close();
                assert!(conn.send_chain(&FrameBuf::from_vec(vec![0; 8])).is_err());
                let _ = closed.send(());
            }
        })
    };
    let server = rtcorba::reactor::ReactorServer::spawn(
        make_handler,
        rtobs::Observer::new(),
        ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        },
    )
    .unwrap();

    let request = encode(&RequestMessage {
        request_id: 1,
        response_expected: true,
        object_key: b"any".to_vec(),
        operation: "get".into(),
        body: Vec::new(),
        service_context: Vec::new(),
    });
    let mut peer = TcpStream::connect(server.addr()).unwrap();
    peer.write_all(&request.repeat(3)).unwrap();
    closed_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the handler closed the connection");

    let mut received = Vec::new();
    peer.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    peer.read_to_end(&mut received).expect("EOF, not an error");
    assert_eq!(received.len(), 3 * SPLIT_REPLY, "every queued byte");
    for (id, reply) in (1..=3).zip(received.chunks(SPLIT_REPLY)) {
        assert!(reply == split_reply(id), "reply {id} differs");
    }
}
