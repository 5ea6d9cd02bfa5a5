//! `orb_echo_64` and `orb_echo_64k` — `CompadresClient` ↔
//! `CompadresServer` (default reactor transport) over TCP on the host
//! loopback, two connections on two threads, `echo` with a seeded
//! payload; paced per connection (2 000 req/s at 64 B, 1 000 req/s at
//! 64 KiB), then both connections closed-loop. The client's component
//! pipeline runs on the caller's thread, so the two generator threads
//! are the client half of the system.
//!
//! Why 64 B: the smallest message, so per-request fixed cost is
//! everything — syscalls, epoll wake, reassembly, worker handoff, POA
//! dispatch and the client/server component pipelines through three
//! and four scope levels — while payload-proportional work is
//! negligible.
//!
//! Why 64 KiB: the payload adds about as much again as the fixed cost,
//! so CDR copy, `BufChain`/`RecvChain` segment handling, multi-`read`
//! reassembly (frame > `read_chunk`) and the servant's `args.to_vec()`
//! do a third to a half of the work; a codec or zero-copy change shows
//! here and must leave `orb_echo_64` flat.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rtcorba::cdr::Endian;
use rtcorba::corb::{CompadresClient, CompadresServer};
use rtcorba::giop::{self, MessageView, ReplyStatus};
use rtcorba::service::{ObjectRegistry, Servant};
use rtcorba::transport::{Connection, TcpConn};
use rtcorba::{ClientBuilder, ServerBuilder};
use rtplatform::bufchain::{SegPool, DEFAULT_SEG_SIZE};
use rtplatform::rng::SplitMix64;

use super::{EndToEnd, GeneratorCpu, Plan, Saturation, Slice, SliceCost, SystemCpu, Traced};
use crate::cpus;
use crate::meter;
use crate::pacer::{self, now_ns, Schedule};
use crate::stats::{self, LatencySummary};
use crate::trace::{SpanSet, Stamps, UNTRACED};

/// Connections, one generator thread each (`nproc` on the reference box).
pub const CONNS: usize = 2;
const KEY: &[u8] = b"echo";

/// The two payload sizes and their paced per-connection rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    B64,
    K64,
}

impl Size {
    /// The payload size `orb_echo_64` or `orb_echo_64k` echoes.
    pub fn of(workload: &str) -> Size {
        if workload == "orb_echo_64" {
            Size::B64
        } else {
            Size::K64
        }
    }

    pub fn bytes(self) -> usize {
        match self {
            Size::B64 => 64,
            Size::K64 => 64 << 10,
        }
    }

    pub fn paced_hz(self) -> u64 {
        match self {
            Size::B64 => 2_000,
            Size::K64 => 1_000,
        }
    }
}

// Stamp columns of one traced op. A0..A4 are the caller's (wire client:
// encode start, encode end, send returned, reply frame received, reply
// decoded; full client: only A0 = invoke called and A4 = it returned).
const A0: usize = 0;
const A1: usize = 1;
const A2: usize = 2;
const A3: usize = 3;
const A4: usize = 4;
const SE: usize = 5; // servant entry
const SX: usize = 6; // servant exit
const COLS: usize = 7;

/// The benchmark's servant: `EchoServant`'s `echo` (the same
/// `args.to_vec()`), stamped. The first eight payload bytes carry the
/// op's trace row + 1, or 0 for an untraced op.
struct StampServant {
    stamps: Arc<Stamps>,
    served: AtomicU64,
}

fn row_of(payload: &[u8]) -> u32 {
    let id = u64::from_le_bytes(payload[..8].try_into().expect("payload holds an op id"));
    id.checked_sub(1).map_or(UNTRACED, |r| r as u32)
}

fn set_row(payload: &mut [u8], row: u32) {
    let id = if row == UNTRACED {
        0
    } else {
        u64::from(row) + 1
    };
    payload[..8].copy_from_slice(&id.to_le_bytes());
}

impl Servant for StampServant {
    fn invoke(&self, operation: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        if operation != "echo" || args.len() < 8 {
            return Err(format!(
                "unexpected {operation:?} with {} bytes",
                args.len()
            ));
        }
        let row = row_of(args);
        self.stamps.stamp(row, SE);
        let out = args.to_vec();
        self.stamps.stamp(row, SX);
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(out)
    }
}

pub struct Rig {
    size: Size,
    server: CompadresServer,
    servant: Arc<StampServant>,
    clients: Vec<CompadresClient>,
    /// One seeded payload per connection.
    payloads: Vec<Vec<u8>>,
    issued: u64,
}

/// Serves the registry on the reactor transport, connects both clients
/// and runs one verified echo on each.
pub fn setup(seed: u64, size: Size, trace_rows: usize) -> Rig {
    let servant = Arc::new(StampServant {
        stamps: Arc::new(Stamps::new(trace_rows, COLS)),
        served: AtomicU64::new(0),
    });
    let registry = Arc::new(ObjectRegistry::new());
    registry.register(KEY.to_vec(), Arc::clone(&servant) as Arc<dyn Servant>);
    let server = ServerBuilder::new(registry)
        .serve()
        .expect("reactor ORB server starts");
    let addr = server.addr().expect("server listens on TCP");
    let mut rng = SplitMix64::new(seed);
    let mut clients = Vec::with_capacity(CONNS);
    let mut payloads = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let client = ClientBuilder::new().connect(addr).expect("client connects");
        let mut payload: Vec<u8> = (0..size.bytes()).map(|_| rng.next_u64() as u8).collect();
        set_row(&mut payload, UNTRACED);
        let reply = client.invoke(KEY, "echo", &payload).expect("first echo");
        assert_eq!(reply, payload, "first op verifies");
        clients.push(client);
        payloads.push(payload);
    }
    Rig {
        size,
        server,
        servant,
        clients,
        payloads,
        issued: CONNS as u64,
    }
}

/// Counts of one generator thread.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    issued: u64,
    /// Invocations that returned an error.
    errors: u64,
    /// Replies that differed from the request.
    mismatched: u64,
}

/// One echo; the reply is compared after the stop stamp is taken.
fn echo(client: &CompadresClient, payload: &[u8], tally: &mut Tally) -> u64 {
    tally.issued += 1;
    let reply = client.invoke(KEY, "echo", payload);
    let done = now_ns();
    match reply {
        Ok(bytes) if bytes == payload => {}
        Ok(_) => tally.mismatched += 1,
        Err(_) => tally.errors += 1,
    }
    done
}

/// What one paced slice of both connections measured.
struct OrbPaced {
    /// Latencies (reply received − due) merged in due order.
    lat: Vec<u64>,
    /// CPU time of the whole process over the slice.
    process_ns: u64,
    generators: Vec<GeneratorCpu>,
}

impl Rig {
    /// Both connections paced open-loop for `secs`, connection 1 half
    /// an interval after connection 0.
    fn paced(&mut self, secs: f64, tally: &mut Tally) -> OrbPaced {
        let hz = self.size.paced_hz();
        let start = now_ns() + 1_000_000;
        let mut per_conn: Vec<(Vec<u64>, Tally, GeneratorCpu)> = Vec::with_capacity(CONNS);
        let process0 = meter::process_cpu_ns();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .zip(&self.payloads)
                .enumerate()
                .map(|(c, (client, payload))| {
                    scope.spawn(move || {
                        cpus::enter_generator();
                        let interval_ns = 1_000_000_000 / hz;
                        let sched = Schedule {
                            start_ns: start + c as u64 * interval_ns / CONNS as u64,
                            interval_ns,
                        };
                        let n = sched.ops_in(secs);
                        let mut lat = Vec::with_capacity(n as usize);
                        let mut lag = Vec::with_capacity(n as usize);
                        let mut tally = Tally::default();
                        let mut generator = GeneratorCpu::open();
                        pacer::open_loop(
                            &sched,
                            n,
                            now_ns,
                            pacer::wait_until,
                            &mut lag,
                            |i, due| {
                                let done = generator.issue(i, || echo(client, payload, &mut tally));
                                lat.push(done.saturating_sub(due));
                            },
                        );
                        (lat, tally, generator.close())
                    })
                })
                .collect();
            for h in handles {
                per_conn.push(h.join().expect("generator thread"));
            }
        });
        let process_ns = meter::process_cpu_ns() - process0;
        let n = per_conn.iter().map(|(l, ..)| l.len()).min().unwrap_or(0);
        let mut lat = Vec::with_capacity(n * CONNS);
        for i in 0..n {
            lat.extend(per_conn.iter().map(|(l, ..)| l[i]));
        }
        for (_, t, _) in &per_conn {
            tally.issued += t.issued;
            tally.errors += t.errors;
            tally.mismatched += t.mismatched;
        }
        OrbPaced {
            lat,
            process_ns,
            generators: per_conn.into_iter().map(|(.., g)| g).collect(),
        }
    }

    /// Both connections closed-loop for `secs`; connection 0's thread
    /// also opens and closes the slice on the shared completion count.
    fn saturate(&mut self, secs: f64, tally: &mut Tally) -> SliceCost {
        let completed = AtomicU64::new(0);
        let slice = Slice::open(secs, 0);
        let end = slice.end_ns();
        std::thread::scope(|scope| {
            let completed = &completed;
            let mut clients = self.clients.iter().zip(&self.payloads);
            let (client0, payload0) = clients.next().expect("connection 0");
            let others: Vec<_> = clients
                .map(|(client, payload)| {
                    scope.spawn(move || {
                        cpus::enter_generator();
                        let mut t = Tally::default();
                        while now_ns() < end {
                            echo(client, payload, &mut t);
                            completed.fetch_add(1, Ordering::Relaxed);
                        }
                        t
                    })
                })
                .collect();
            let cost = cpus::as_generator(|| loop {
                let done = echo(client0, payload0, tally);
                let count = completed.fetch_add(1, Ordering::Relaxed) + 1;
                if slice.over(done) {
                    break slice.close(done, count);
                }
            });
            for h in others {
                let t = h.join().expect("generator thread");
                tally.issued += t.issued;
                tally.errors += t.errors;
                tally.mismatched += t.mismatched;
            }
            cost
        })
    }

    /// Every reply equalled its request and the servant saw every op.
    fn checks(&self, tally: &Tally) -> Vec<(&'static str, bool)> {
        vec![
            ("no invocation failed", tally.errors == 0),
            ("reply bytes == request bytes", tally.mismatched == 0),
            (
                "servant served every request",
                self.servant.served.load(Ordering::Relaxed) == self.issued,
            ),
        ]
    }

    fn metrics_texts(&self) -> String {
        let mut text = self.server.app().metrics_text();
        for c in &self.clients {
            text.push_str(&c.app().metrics_text());
        }
        text
    }
}

/// `between_rounds` is called once before every round (for the set-ups
/// `setup_s` is made of, which are spread over the run this way).
pub fn run(rig: &mut Rig, plan: &Plan, between_rounds: &mut dyn FnMut()) -> EndToEnd {
    let mut tally = Tally::default();
    let mut windows = Vec::with_capacity(plan.rounds);
    let mut saturation = Saturation::with_capacity(plan.rounds);
    let mut cpu = SystemCpu::default();
    let before = rig.metrics_texts();
    rig.saturate(plan.warm_s / 2.0, &mut tally);
    rig.paced(plan.warm_s / 2.0, &mut tally);
    for _ in 0..plan.rounds {
        between_rounds();
        let mut paced = rig.paced(plan.paced_s, &mut tally);
        windows.push(stats::window_latency(&mut paced.lat));
        cpu.add(paced.process_ns, &paced.generators, paced.lat.len() as u64);
        saturation.push(rig.saturate(plan.sat_s, &mut tally));
    }
    rig.issued += tally.issued;
    EndToEnd {
        attempted: rig.issued,
        failed: tally.errors + tally.mismatched,
        checks: rig.checks(&tally),
        latency: LatencySummary::over(&windows),
        saturation,
        cpu,
        transitions_per_op: super::transitions_per_op(&before, &rig.metrics_texts(), tally.issued),
    }
}

/// Ops per untraced/traced block of the traced passes.
const BLOCK_OPS: u64 = 50;

/// A client made of public pieces — `giop::encode_request_chain` →
/// `TcpConn::send_chain` → `recv_frame` → `giop::decode_view` — so each
/// step of a request can be stamped from outside.
struct WireClient {
    conn: TcpConn,
    pool: SegPool,
    endian: Endian,
    next_id: u32,
}

impl WireClient {
    /// One echo, stamped into `row`; `Err` names what went wrong.
    fn echo(&mut self, payload: &[u8], row: u32, stamps: &Stamps) -> Result<(), &'static str> {
        self.next_id += 1;
        stamps.stamp(row, A0);
        let frame = giop::encode_request_chain(
            self.next_id,
            true,
            KEY,
            "echo",
            payload,
            &[],
            self.endian,
            &self.pool,
        );
        stamps.stamp(row, A1);
        self.conn.send_chain(&frame).map_err(|_| "send failed")?;
        stamps.stamp(row, A2);
        let reply = self.conn.recv_frame().map_err(|_| "receive failed")?;
        stamps.stamp(row, A3);
        let parts = [&reply[..]];
        let view = giop::decode_view(&parts).map_err(|_| "reply did not decode")?;
        stamps.stamp(row, A4);
        match view {
            MessageView::Reply(r)
                if r.request_id == self.next_id
                    && r.status == ReplyStatus::NoException
                    && r.body[..] == *payload =>
            {
                Ok(())
            }
            _ => Err("reply did not match the request"),
        }
    }
}

/// Traced passes against the rig's server: a wire-client pass, a
/// full-client pass and a closed loop of the hand-coded `ZenClient`.
pub fn trace(rig: &mut Rig, secs: f64) -> Traced {
    let stamps = Arc::clone(&rig.servant.stamps);
    let rows = stamps.rows();
    let wire_rows = rows / 2;
    let addr = rig.server.addr().expect("server listens on TCP");
    let hz = rig.size.paced_hz();
    let mut payload = rig.payloads[0].clone();
    let mut tally = Tally::default();
    let mut wire_failed = 0u64;
    let warm_s = secs / 8.0;
    rig.saturate(warm_s / 2.0, &mut tally);
    rig.paced(warm_s / 2.0, &mut tally);
    let secs = secs - warm_s;
    let before = rig.metrics_texts();

    // Pass 1: wire client, paced on one connection.
    let mut wire = WireClient {
        conn: TcpConn::connect(addr).expect("wire client connects"),
        pool: SegPool::new(16, DEFAULT_SEG_SIZE),
        endian: Endian::native(),
        next_id: 0,
    };
    let sched = Schedule::starting_now(hz, 1_000_000);
    let n = sched.ops_in(secs * 0.35);
    let mut lag = Vec::with_capacity(n as usize);
    let mut wire_plain = Vec::with_capacity(n as usize);
    let mut wire_ops: Vec<u64> = Vec::with_capacity(wire_rows);
    pacer::open_loop(&sched, n, now_ns, pacer::wait_until, &mut lag, |i, _| {
        let row = if (i / BLOCK_OPS) % 2 == 1 && wire_ops.len() < wire_rows {
            wire_ops.push(i);
            (wire_ops.len() - 1) as u32
        } else {
            UNTRACED
        };
        set_row(&mut payload, row);
        let t0 = now_ns();
        if wire.echo(&payload, row, &stamps).is_err() {
            wire_failed += 1;
        } else if row == UNTRACED {
            wire_plain.push(now_ns() - t0);
        }
    });
    wire.conn.close();
    let wire_issued = n;

    // Pass 2: the full client, paced on connection 0.
    let client = &rig.clients[0];
    let sched2 = Schedule::starting_now(hz, 1_000_000);
    let n2 = sched2.ops_in(secs * 0.45);
    lag.clear();
    lag.reserve(n2 as usize);
    let mut full_plain = Vec::with_capacity(n2 as usize);
    let mut full_plain_lat = Vec::with_capacity(n2 as usize);
    let mut full_ops: Vec<u64> = Vec::with_capacity(rows - wire_rows);
    pacer::open_loop(
        &sched2,
        n2,
        now_ns,
        pacer::wait_until,
        &mut lag,
        |i, due| {
            let row = if (i / BLOCK_OPS) % 2 == 1 && wire_rows + full_ops.len() < rows {
                full_ops.push(i);
                (wire_rows + full_ops.len() - 1) as u32
            } else {
                UNTRACED
            };
            set_row(&mut payload, row);
            stamps.stamp(row, A0);
            let t0 = now_ns();
            let done = echo(client, &payload, &mut tally);
            stamps.stamp(row, A4);
            if row == UNTRACED {
                full_plain.push(done - t0);
                full_plain_lat.push(done.saturating_sub(due));
            }
        },
    );

    // Pass 3: the paper's hand-coded comparator, closed loop.
    set_row(&mut payload, UNTRACED);
    let zen = ClientBuilder::new()
        .connect_zen(addr)
        .expect("zen client connects");
    let mut zen_rtt = Vec::with_capacity(1 << 16);
    let zen_end = now_ns() + (secs * 0.2e9) as u64;
    let mut zen_failed = 0u64;
    while now_ns() < zen_end && zen_rtt.len() < zen_rtt.capacity() {
        let t0 = now_ns();
        match zen.invoke(KEY, "echo", &payload) {
            Ok(reply) if reply == payload => zen_rtt.push(now_ns() - t0),
            _ => zen_failed += 1,
        }
    }
    let zen_issued = zen_rtt.len() as u64 + zen_failed;
    drop(zen);
    let after = rig.metrics_texts();
    rig.issued += tally.issued + wire_issued + zen_issued;

    // Spans of the wire-client pass. With client and server on one CPU
    // the server usually runs while the client is still inside
    // `send_chain`, so the server's ingress is counted from the moment
    // the client starts sending, and the send call is shown inside it.
    let mut spans = SpanSet::default();
    const WIRE_NAMES: [&str; 5] = [
        "rtcorba.encode",
        "rtcorba.server_ingress",
        "rtcorba.servant",
        "rtcorba.server_egress",
        "rtcorba.decode",
    ];
    let mut wire_tiles: [Vec<u64>; 5] = Default::default();
    for (r, &i) in wire_ops.iter().enumerate() {
        let Some(t) = stamps.row(r) else {
            continue;
        };
        let op = r as u64;
        let due = sched.due_ns(i).min(t[A0]);
        let cuts = [t[A0], t[A1], t[SE], t[SX], t[A3], t[A4]];
        let root = spans.push("wire.op", op, due, t[A4], None, 0);
        spans.push("bench.gen_lag", op, due, t[A0], Some(root), 0);
        for (k, w) in cuts.windows(2).enumerate() {
            let lane = if k == 2 { 1 } else { 0 };
            let span = spans.push(WIRE_NAMES[k], op, w[0].min(w[1]), w[1], Some(root), lane);
            if k == 1 {
                spans.push("rtcorba.send", op, t[A1], t[A2], Some(span), 0);
            }
            wire_tiles[k].push(w[1].saturating_sub(w[0]));
        }
    }
    // Spans of the full-client pass: `invoke` split at the servant.
    const FULL_NAMES: [&str; 3] = [
        "rtcorba.request_path",
        "rtcorba.servant",
        "rtcorba.reply_path",
    ];
    let mut full_tiles: [Vec<u64>; 4] = Default::default();
    let mut full_traced_lat = Vec::with_capacity(full_ops.len());
    for (k, &i) in full_ops.iter().enumerate() {
        let r = wire_rows + k;
        let t = [A0, SE, SX, A4].map(|c| stamps.get(r, c));
        if t.contains(&0) {
            continue;
        }
        let op = r as u64;
        let due = sched2.due_ns(i).min(t[0]);
        full_traced_lat.push(t[3] - due);
        full_tiles[0].push(t[0] - due);
        let root = spans.push("rtcorba.invoke", op, t[0], t[3], None, 0);
        for (j, w) in t.windows(2).enumerate() {
            let lane = if j == 1 { 1 } else { 0 };
            spans.push(FULL_NAMES[j], op, w[0].min(w[1]), w[1], Some(root), lane);
            full_tiles[j + 1].push(w[1].saturating_sub(w[0]));
        }
    }

    let failed = tally.errors + tally.mismatched + wire_failed + zen_failed;
    let mut checks = rig.checks(&tally);
    checks.push(("wire client: every reply matched", wire_failed == 0));
    checks.push(("zen client: every reply matched", zen_failed == 0));
    let mut out = Traced {
        attempted: tally.issued + wire_issued + zen_issued,
        failed,
        checks,
        ..Traced::default()
    };
    let us = |v: &mut Vec<u64>| stats::p50(v) / 1e3;
    if wire_tiles.iter().all(|t| !t.is_empty()) {
        out.layer
            .insert("rtcorba.server_ingress_us", us(&mut wire_tiles[1]));
        out.layer
            .insert("rtcorba.servant_us", us(&mut wire_tiles[2]));
        out.layer
            .insert("rtcorba.server_egress_us", us(&mut wire_tiles[3]));
    }
    if !full_plain.is_empty() && !wire_plain.is_empty() {
        out.layer.insert(
            "rtcorba.client_pipeline_us",
            us(&mut full_plain) - us(&mut wire_plain),
        );
    }
    if !zen_rtt.is_empty() {
        out.layer.insert("rtcorba.zen_rtt_us", us(&mut zen_rtt));
    }
    if !full_traced_lat.is_empty() && !full_plain_lat.is_empty() {
        let path = full_tiles.iter_mut().map(|t| stats::p50(t)).sum();
        out.insert_health(&mut full_plain_lat, &mut full_traced_lat, path);
    }
    out.layer
        .insert("bench.gen_lag_p99_us", super::lag_p99_us(&mut lag));
    out.insert_transitions(&before, &after, out.attempted);
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_round_trip_through_the_payload() {
        let mut p = vec![0xAAu8; 64];
        set_row(&mut p, UNTRACED);
        assert_eq!(row_of(&p), UNTRACED);
        set_row(&mut p, 0);
        assert_eq!(row_of(&p), 0);
        set_row(&mut p, 41);
        assert_eq!(row_of(&p), 41);
        assert_eq!(p[8], 0xAA, "only the first eight bytes carry the id");
    }
}
