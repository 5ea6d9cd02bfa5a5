//! One test per injected fault class, pinning the documented mapping to
//! `TransportError` variants (see the table on `TransportError`):
//!
//! | fault                       | expected error                      |
//! |-----------------------------|-------------------------------------|
//! | reply dropped               | `Deadline`                          |
//! | reply stalled (never sent)  | `Deadline`                          |
//! | mid-frame disconnect        | `Closed`                            |
//! | truncated frame             | `Protocol` (`GiopError::ShortBody`) |
//! | garbage header              | `Protocol`                          |
//! | oversize declaration        | `Protocol`, nothing allocated       |
//!
//! Dropped and stalled replies are indistinguishable by construction —
//! in both cases no byte arrives before the deadline — so both map to
//! `Deadline`.

use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

use rtcorba::cdr::Endian;
use rtcorba::chaos::{FaultPlan, FaultyConn};
use rtcorba::giop::{self, GiopError, ReplyMessage, ReplyStatus};
use rtcorba::service::ObjectRegistry;
use rtcorba::transport::{loopback_pair, Connection, TcpConn, TransportError};
use rtcorba::{ClientBuilder, OrbError, ServerBuilder};
use rtplatform::bufchain::{FrameBuf, SegPool};
use rtplatform::fault::FaultPolicy;

fn reply_frame() -> FrameBuf {
    ReplyMessage {
        request_id: 1,
        status: ReplyStatus::NoException,
        body: vec![1, 2, 3, 4, 5, 6, 7, 8],
        service_context: Vec::new(),
    }
    .encode_chain(Endian::Big, &SegPool::new(1, 64))
}

#[test]
fn dropped_reply_maps_to_deadline() {
    let (client, server) = loopback_pair();
    let client = FaultyConn::new(
        Arc::new(client),
        FaultPlan {
            drop: 1.0,
            ..FaultPlan::quiet(7)
        },
    );
    client
        .set_deadline(Some(Duration::from_millis(50)))
        .unwrap();
    server.send_chain(&reply_frame()).unwrap();
    match client.recv_frame() {
        Err(TransportError::Deadline) => {}
        other => panic!("dropped reply must map to Deadline, got {other:?}"),
    }
    assert_eq!(client.injected().dropped, 1);
}

#[test]
fn stalled_reply_maps_to_deadline() {
    // A raw listener that accepts and then never writes a byte.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let guard = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        std::thread::sleep(Duration::from_secs(2)); // outlive the client's deadline
        drop(stream);
    });
    let policy = FaultPolicy::tight(); // 100 ms deadlines
    let conn = TcpConn::connect_with(addr, &policy).unwrap();
    conn.send_chain(&reply_frame()).unwrap();
    match conn.recv_frame() {
        Err(TransportError::Deadline) => {}
        other => panic!("stalled reply must map to Deadline, got {other:?}"),
    }
    drop(conn);
    guard.join().unwrap();
}

#[test]
fn midframe_disconnect_maps_to_closed() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let guard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Half a GIOP header, then hang up.
        stream.write_all(b"GIOP\x01\x00").unwrap();
        stream.flush().unwrap();
    });
    let conn = TcpConn::connect(addr).unwrap();
    match conn.recv_frame() {
        Err(TransportError::Closed) => {}
        other => panic!("mid-frame disconnect must map to Closed, got {other:?}"),
    }
    guard.join().unwrap();
}

#[test]
fn injected_disconnect_maps_to_closed() {
    let (client, server) = loopback_pair();
    let client = FaultyConn::new(
        Arc::new(client),
        FaultPlan {
            disconnect: 1.0,
            ..FaultPlan::quiet(7)
        },
    );
    server.send_chain(&reply_frame()).unwrap();
    match client.recv_frame() {
        Err(TransportError::Closed) => {}
        other => panic!("injected disconnect must map to Closed, got {other:?}"),
    }
    assert_eq!(client.injected().disconnected, 1);
}

#[test]
fn truncated_frame_maps_to_short_body() {
    let (client, server) = loopback_pair();
    let client = FaultyConn::new(
        Arc::new(client),
        FaultPlan {
            truncate: 1.0,
            ..FaultPlan::quiet(7)
        },
    );
    server.send_chain(&reply_frame()).unwrap();
    // The truncated frame still arrives (bytes made it), but violates
    // the declared GIOP size — surfacing at decode as ShortBody, which
    // the ORB wraps in `TransportError::Protocol` semantics.
    let frame = client.recv_frame().unwrap();
    match giop::decode_view(&[&frame]) {
        Err(GiopError::ShortBody { declared, actual }) => {
            assert!(actual < declared, "truncation must shorten the body");
        }
        other => panic!("truncated frame must decode to ShortBody, got {other:?}"),
    }
    assert_eq!(client.injected().truncated, 1);
}

#[test]
fn garbage_header_maps_to_protocol() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let guard = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.write_all(&[0xde; 32]).unwrap(); // 12-byte header's worth of junk and change
        stream.flush().unwrap();
    });
    let conn = TcpConn::connect(addr).unwrap();
    match conn.recv_frame() {
        Err(TransportError::Protocol(_)) => {}
        other => panic!("garbage header must map to Protocol, got {other:?}"),
    }
    guard.join().unwrap();
}

/// A well-formed 12-byte header declaring a body just short of 4 GiB.
const OVERSIZE_HEADER: [u8; 12] = *b"GIOP\x01\x00\x00\x01\xFF\xFF\xFF\xF0";

#[test]
fn oversize_reply_declaration_fails_the_invocation_with_protocol() {
    // A server that answers any request with the oversize header.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let guard = std::thread::spawn(move || {
        let conn = TcpConn::new(listener.accept().unwrap().0).unwrap();
        conn.recv_frame().unwrap();
        let oversize = FrameBuf::from_vec(OVERSIZE_HEADER.to_vec());
        conn.send_chain(&oversize).unwrap();
        // Stay connected: the client must fail on the header alone, not
        // on the stream ending under a 4 GiB read.
        let _ = conn.recv_frame();
    });
    let client = ClientBuilder::new().connect(addr).unwrap();
    match client.invoke(b"echo", "echo", &[1, 2, 3]) {
        Err(OrbError::Transport(TransportError::Protocol(_))) => {}
        other => panic!("an oversize declaration must map to Protocol, got {other:?}"),
    }
    drop(client);
    guard.join().unwrap();
}

#[test]
fn oversize_request_declaration_is_refused_by_a_zen_connection() {
    let server = ServerBuilder::new(ObjectRegistry::with_echo())
        .serve_zen()
        .unwrap();
    let addr = server.addr().unwrap();
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(&OVERSIZE_HEADER).unwrap();
    // The connection thread refuses the header instead of allocating
    // for it and waiting on the body: it says MessageError or nothing,
    // and hangs up.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest)
        .expect("the server hangs up; it does not wait for 4 GiB");
    assert!(rest.len() <= giop::HEADER_LEN, "{rest:?}");
    // And it still serves the next connection.
    let client = ClientBuilder::new().connect_zen(addr).unwrap();
    assert_eq!(client.invoke(b"echo", "echo", &[7]).unwrap(), vec![7]);
}
