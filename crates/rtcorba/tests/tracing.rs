//! Cross-ORB causal tracing: an `invoke_with_budget` call roots a trace
//! whose context rides the GIOP `TRACE_CONTEXT_SLOT` to the server, so
//! stitching the two journals yields one span tree that crosses the ORB
//! boundary — the client's wire span is the parent of the server-side
//! POA/handler spans — with the deadline budget counting down on both
//! clocks and overruns attributed to the hop that spent the budget.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rtcorba::corb::{loopback_echo_pair, CompadresClient};
use rtcorba::service::{ObjectRegistry, Servant};
use rtobs::{EventKind, Observer, SpanForest};

/// Polls until the server journal holds `n` SpanEnd events (the reply
/// reaches the client slightly before the server finishes journalling).
fn await_span_ends(obs: &Observer, n: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while obs
        .events()
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd)
        .count()
        < n
    {
        assert!(Instant::now() < deadline, "server SpanEnd never appeared");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Asserts the stitched forest has a client-rooted trace whose subtree
/// reaches server-side hops, and returns that trace id.
fn assert_cross_orb_tree(client: &CompadresClient, server_obs: &Observer) -> u32 {
    let forest =
        SpanForest::from_journals(&[("client", client.app().observer()), ("server", server_obs)]);
    let client_src = 0;
    let server_src = 1;
    // Find a server-side hop whose tree root lives in the client
    // journal: the ORB boundary crossed inside one tree.
    let nodes = forest.nodes();
    let mut found = None;
    for (idx, n) in nodes.iter().enumerate() {
        if n.source != server_src {
            continue;
        }
        let mut cur = idx;
        let mut hops = 0;
        while let Some(p) = nodes.iter().position(|c| c.children.contains(&cur)) {
            cur = p;
            hops += 1;
            assert!(hops < 64, "cycle while walking to root");
        }
        if nodes[cur].source == client_src {
            found = Some(nodes[cur].trace_id);
            break;
        }
    }
    let trace_id = found.expect("a server-side hop must hang off a client-rooted trace");
    let path = forest.critical_path(trace_id);
    let crossed: Vec<usize> = path.iter().map(|&i| forest.nodes()[i].source).collect();
    assert!(
        crossed.contains(&client_src) && crossed.contains(&server_src),
        "critical path must cross the ORB boundary, sources: {crossed:?}"
    );
    let rendered = forest.render();
    assert!(
        rendered.contains("[client]") && rendered.contains("[server]"),
        "render labels both sources:\n{rendered}"
    );
    trace_id
}

#[test]
fn loopback_invocation_stitches_into_one_tree() {
    let (server, client) = loopback_echo_pair().unwrap();
    let payload = vec![0x5Au8; 256];
    let out = client
        .invoke_with_budget(b"echo", "echo", &payload, Some(Duration::from_secs(5)))
        .unwrap();
    assert_eq!(out, payload);
    // Server pipeline: Poa → STransport → RequestProcessing = 3 hops.
    await_span_ends(server.app().observer(), 3);

    let sobs = server.app().observer();
    assert!(
        sobs.events()
            .iter()
            .any(|e| e.kind == EventKind::SpanRemoteRecv),
        "server adopted the wire context"
    );
    let cobs = client.app().observer();
    assert!(
        cobs.events()
            .iter()
            .any(|e| e.kind == EventKind::SpanRemoteSend),
        "client recorded the wire handoff"
    );
    assert_cross_orb_tree(&client, sobs);
}

/// A servant that sleeps long enough to blow any small budget.
struct SlowServant(Duration);

impl Servant for SlowServant {
    fn invoke(&self, _operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        std::thread::sleep(self.0);
        Ok(args.to_vec())
    }
}

#[test]
fn blown_budget_is_flagged_on_the_server_hop() {
    let registry = ObjectRegistry::new();
    registry.register(
        b"slow".to_vec(),
        Arc::new(SlowServant(Duration::from_millis(25))),
    );
    let server = rtcorba::ServerBuilder::new(Arc::new(registry))
        .serve()
        .unwrap();
    let client = rtcorba::ClientBuilder::new()
        .connect(server.addr().unwrap())
        .unwrap();

    // 2 ms budget against a 25 ms servant: the call still succeeds (the
    // budget is accounting, not policy) but the overrun must be flagged.
    let out = client
        .invoke_with_budget(b"slow", "echo", &[9], Some(Duration::from_millis(2)))
        .unwrap();
    assert_eq!(out, vec![9]);
    await_span_ends(server.app().observer(), 3);

    let trace_id = assert_cross_orb_tree(&client, server.app().observer());
    let forest = SpanForest::from_journals(&[
        ("client", client.app().observer()),
        ("server", server.app().observer()),
    ]);
    assert!(
        forest.overrun_traces().contains(&trace_id),
        "the blown trace is flagged"
    );
    // The dominant hop on the critical path is on the server, where the
    // budget actually went.
    let dominant = forest.dominant_hop(trace_id).expect("dominant hop");
    assert_eq!(
        forest.sources[forest.nodes()[dominant].source],
        "server",
        "overrun attributed to the server-side hop"
    );
    assert!(
        forest.nodes()[dominant].duration_ns().unwrap() >= 20_000_000,
        "dominant hop carries the servant's sleep"
    );
    assert!(forest.render().contains("OVERRUN"));

    // The server's per-hop deadline-miss counters saw it too.
    let metrics = server.app().metrics_text();
    assert!(
        metrics
            .lines()
            .any(|l| l.starts_with("compadres_deadline_miss_") && !l.ends_with(" 0")),
        "server counted the miss:\n{metrics}"
    );
}

#[test]
fn untraced_invocations_cross_old_style() {
    // With the client's observer off, no span is minted, no context is
    // attached and the server adopts nothing — the wire format
    // degrades to the legacy frames.
    let (server, client) = loopback_echo_pair().unwrap();
    client.app().observer().set_enabled(false);
    assert_eq!(client.invoke(b"echo", "echo", &[4]).unwrap(), vec![4]);
    client.app().wait_quiescent(Duration::from_secs(2));
    assert!(
        !server
            .app()
            .observer()
            .events()
            .iter()
            .any(|e| e.kind == EventKind::SpanRemoteRecv),
        "no adoption without a trace slot"
    );
}
