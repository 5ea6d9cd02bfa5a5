//! Oneway (no-reply) invocations through both ORBs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcorba::corb::CompadresClient;
use rtcorba::service::{CountingServant, ObjectRegistry};
use rtcorba::zen::ZenClient;

fn registry_with_counter() -> (Arc<ObjectRegistry>, Arc<CountingServant>) {
    let counter = Arc::new(CountingServant::default());
    let reg = ObjectRegistry::with_echo();
    reg.register(
        b"count".to_vec(),
        Arc::clone(&counter) as Arc<dyn rtcorba::service::Servant>,
    );
    (reg, counter)
}

fn wait_for(counter: &CountingServant, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while counter.count() < n {
        assert!(
            Instant::now() < deadline,
            "servant saw {} of {n}",
            counter.count()
        );
        std::thread::yield_now();
    }
}

#[test]
fn zen_oneway_reaches_servant_without_reply() {
    let (reg, counter) = registry_with_counter();
    let server = rtcorba::ServerBuilder::new(reg).serve_zen().unwrap();
    let client = rtcorba::ClientBuilder::new()
        .connect_zen(server.addr().unwrap())
        .unwrap();
    for _ in 0..10 {
        client.invoke_oneway(b"count", "bump", &[1, 2]).unwrap();
    }
    wait_for(&counter, 10);
    // The connection still works for twoway afterwards (no stray replies
    // were queued for the oneways).
    let reply = client.invoke(b"count", "bump", &[]).unwrap();
    assert_eq!(u64::from_be_bytes(reply.try_into().unwrap()), 11);
    server.shutdown();
}

#[test]
fn compadres_oneway_reaches_servant_without_reply() {
    let (reg, counter) = registry_with_counter();
    let server = rtcorba::ServerBuilder::new(reg).serve().unwrap();
    let client = rtcorba::ClientBuilder::new()
        .connect(server.addr().unwrap())
        .unwrap();
    for _ in 0..10 {
        client.invoke_oneway(b"count", "bump", &[]).unwrap();
    }
    wait_for(&counter, 10);
    let reply = client.invoke(b"count", "bump", &[]).unwrap();
    assert_eq!(u64::from_be_bytes(reply.try_into().unwrap()), 11);
    server.shutdown();
}

/// A servant whose every invocation takes a tangible amount of time.
struct SlowServant(Duration);

impl rtcorba::service::Servant for SlowServant {
    fn invoke(&self, _operation: &str, _args: &[u8]) -> Result<Vec<u8>, String> {
        std::thread::sleep(self.0);
        Ok(Vec::new())
    }
}

#[test]
fn oneway_does_not_wait_for_the_servant() {
    // Not a benchmark: racing 50 oneways against 50 twoways is pure
    // noise on a loaded test host. Instead make each invocation cost an
    // unmistakable 100 ms at the servant — a oneway that secretly waited
    // for its reply would pay it, a real oneway returns immediately.
    let step = Duration::from_millis(100);
    let reg = ObjectRegistry::with_echo();
    reg.register(b"slow".to_vec(), Arc::new(SlowServant(step)));
    let server = rtcorba::ServerBuilder::new(reg).serve().unwrap();
    let client = rtcorba::ClientBuilder::new()
        .connect(server.addr().unwrap())
        .unwrap();

    let t = Instant::now();
    for _ in 0..5 {
        client.invoke_oneway(b"slow", "nap", &[]).unwrap();
    }
    let oneway_elapsed = t.elapsed();
    assert!(
        oneway_elapsed < step * 5,
        "5 oneways took {oneway_elapsed:?}: the client is waiting on the servant"
    );

    // Sanity: a twoway on the same servant really does pay the nap.
    let t = Instant::now();
    client.invoke(b"slow", "nap", &[]).unwrap();
    assert!(t.elapsed() >= step, "twoway must wait for the servant");
    server.shutdown();
}

#[test]
fn corbaloc_reference_end_to_end() {
    // The server publishes a stringified reference; the client resolves
    // and invokes through it.
    let server = rtcorba::ServerBuilder::new(ObjectRegistry::with_echo())
        .serve()
        .unwrap();
    let reference = server.object_ref(b"echo").unwrap();
    assert!(reference.starts_with("corbaloc::"));
    let (client, key) = CompadresClient::connect_ref(&reference).unwrap();
    assert_eq!(
        client.invoke(&key, "echo", &[4, 5, 6]).unwrap(),
        vec![4, 5, 6]
    );
    // The Zen client resolves the very same reference (wire compat).
    let (zen, key) = ZenClient::connect_ref(&reference).unwrap();
    assert_eq!(
        zen.invoke(&key, "reverse", &[1, 2, 3]).unwrap(),
        vec![3, 2, 1]
    );
    server.shutdown();
}

#[test]
fn framing_survives_byte_by_byte_writes() {
    // A pathological client that trickles a GIOP request one byte at a
    // time; the server's framed reader must reassemble it correctly.
    use rtcorba::cdr::Endian;
    use rtcorba::giop::{decode_view, encode_request_chain, MessageView};
    use rtplatform::bufchain::SegPool;
    use std::io::{Read, Write};

    let server = rtcorba::ServerBuilder::new(ObjectRegistry::with_echo())
        .serve()
        .unwrap();
    let mut raw = std::net::TcpStream::connect(server.addr().unwrap()).unwrap();
    raw.set_nodelay(true).unwrap();
    let pool = SegPool::new(1, 256);
    let frame = encode_request_chain(
        77,
        true,
        b"echo",
        "echo",
        &[0xAB; 33],
        &[],
        Endian::Big,
        &pool,
    )
    .to_vec();
    for b in &frame {
        raw.write_all(&[*b]).unwrap();
        raw.flush().unwrap();
    }
    // Read the reply (header, then declared body).
    let mut header = [0u8; 12];
    raw.read_exact(&mut header).unwrap();
    let (_, _, body_len) = rtcorba::giop::parse_header(&header).unwrap();
    let mut reply = vec![0u8; 12 + body_len];
    reply[..12].copy_from_slice(&header);
    raw.read_exact(&mut reply[12..]).unwrap();
    match decode_view(&[&reply]).unwrap() {
        MessageView::Reply(r) => {
            assert_eq!(r.request_id, 77);
            assert_eq!(r.body[..], [0xAB; 33]);
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}
