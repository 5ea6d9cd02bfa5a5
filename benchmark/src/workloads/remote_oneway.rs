//! `remote_oneway` — one `RemotePort<M>` → TCP over the host loopback →
//! `PortExporter` → an asynchronous Sink (buffer 1024, one worker) in a
//! second `App` in the same process; 32-byte message, three seeded
//! priorities. Open loop at 5 000 msg/s, then saturation with a
//! 64-message window; latency runs from the due time to Sink's handler
//! entry.
//!
//! Why: the paper's *distributed* half and the substrate of multi-node
//! links; the only guard on `core::remote` framing when the wire paths
//! are folded together. The ORB layers do nothing here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::remote::{PortExporter, RemotePort};
use compadres_core::smm::BytesCodec;
use compadres_core::{App, AppBuilder, ChildHandle, HandlerCtx, Priority};
use rtplatform::rng::SplitMix64;

use super::{EndToEnd, GeneratorCpu, Paced, Plan, Saturation, Slice, SliceCost, SystemCpu, Traced};
use crate::cpus;
use crate::meter;
use crate::pacer::{self, now_ns, Schedule};
use crate::stats::{self, LatencySummary};
use crate::trace::{SpanSet, Stamps, UNTRACED};

/// Arrival rate of the latency phase, well under saturation.
pub const PACED_HZ: u64 = 5_000;
/// Messages in flight during the saturation phase (far below Sink's
/// buffer, so the exporter never has to reject).
const SAT_WINDOW: u64 = 64;
/// A `lat_base` no sequence number comes within a table's length of.
const NOT_RECORDING: u64 = 1 << 62;
const FILL_LEN: usize = 11;

/// The 32-byte message as it crosses the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Wire {
    pub seq: u64,
    pub due_ns: u64,
    pub row: u32,
    pub prio: u8,
    /// Seeded filler, checked on arrival.
    pub fill: [u8; FILL_LEN],
}

impl BytesCodec for Wire {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.due_ns.to_le_bytes());
        out.extend_from_slice(&self.row.to_le_bytes());
        out.push(self.prio);
        out.extend_from_slice(&self.fill);
    }

    fn decode(bytes: &[u8]) -> Self {
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        Wire {
            seq: word(0),
            due_ns: word(8),
            row: u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes")),
            prio: bytes[20],
            fill: bytes[21..21 + FILL_LEN].try_into().expect("filler"),
        }
    }
}

pub const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Wire</MessageType></Port>
  </Component>
</Components>"#;

pub const CCL: &str = r#"
<Application>
  <ApplicationName>RemoteSink</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName>
    <ClassName>Sink</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Component>
      <InstanceName>TheSink</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>1024</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

// Stamp columns of one traced op.
const R0: usize = 0; // before RemotePort::send
const R1: usize = 1; // send returned
const E1: usize = 2; // Sink handler entry
const X1: usize = 3; // Sink handler exit
const COLS: usize = 4;

struct Shared {
    handled: AtomicU64,
    checksum: AtomicU64,
    last: [AtomicU64; 3],
    disorder: AtomicU64,
    /// Messages whose filler did not match the seeded bytes.
    corrupt: AtomicU64,
    lat_base: AtomicU64,
    entered: Vec<AtomicU64>,
    stamps: Stamps,
}

pub struct Rig {
    app: Arc<App>,
    exporter: PortExporter,
    port: RemotePort<Wire>,
    shared: Arc<Shared>,
    prios: [u8; 3],
    fill: [u8; FILL_LEN],
    rng: SplitMix64,
    next_seq: u64,
    sum_sent: u64,
    failed: u64,
    _keep: ChildHandle,
}

/// Builds the receiving app, exports its port, connects the sending
/// stub and pushes one verified message across.
pub fn setup(seed: u64, lat_ops: usize, trace_rows: usize) -> Rig {
    let mut rng = SplitMix64::new(seed);
    let base = rng.range_usize(2, 20) as u8;
    let prios = [base, base + 10, base + 20];
    let fill = [0; FILL_LEN].map(|_| rng.next_u64() as u8);
    let shared = Arc::new(Shared {
        handled: AtomicU64::new(0),
        checksum: AtomicU64::new(0),
        last: [0; 3].map(|_| AtomicU64::new(0)),
        disorder: AtomicU64::new(0),
        corrupt: AtomicU64::new(0),
        lat_base: AtomicU64::new(NOT_RECORDING),
        entered: (0..lat_ops).map(|_| AtomicU64::new(0)).collect(),
        stamps: Stamps::new(trace_rows, COLS),
    });
    let sink = Arc::clone(&shared);
    let app = AppBuilder::from_xml(CDL, CCL)
        .expect("remote sink documents parse")
        .bind_message_type::<Wire>("Wire")
        .register_handler("Sink", "In", move || {
            let s = Arc::clone(&sink);
            move |msg: &mut Wire, _ctx: &mut HandlerCtx<'_>| {
                let now = now_ns();
                s.stamps.stamp(msg.row, E1);
                let slot = msg.seq.wrapping_sub(s.lat_base.load(Ordering::Relaxed));
                if let Some(cell) = s.entered.get(slot as usize) {
                    cell.store(now, Ordering::Relaxed);
                }
                if msg.fill != fill {
                    s.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                if s.last[(msg.prio % 3) as usize].swap(msg.seq, Ordering::Relaxed) > msg.seq {
                    s.disorder.fetch_add(1, Ordering::Relaxed);
                }
                s.checksum.fetch_add(msg.seq, Ordering::Relaxed);
                s.stamps.stamp(msg.row, X1);
                s.handled.fetch_add(1, Ordering::Release);
                Ok(())
            }
        })
        .build()
        .expect("remote sink composition is valid");
    app.start().expect("remote sink starts");
    let app = Arc::new(app);
    let keep = app.connect("TheSink").expect("sink stays connected");
    let exporter = PortExporter::bind::<Wire>(&app, "TheSink", "In").expect("exporter binds");
    let port = RemotePort::<Wire>::connect(exporter.local_addr()).expect("remote port connects");
    let mut rig = Rig {
        app,
        exporter,
        port,
        shared,
        prios,
        fill,
        rng,
        next_seq: 1,
        sum_sent: 0,
        failed: 0,
        _keep: keep,
    };
    rig.send(0, UNTRACED);
    rig.drain();
    assert_eq!(rig.handled(), 1, "first op verifies");
    rig
}

impl Rig {
    fn handled(&self) -> u64 {
        self.shared.handled.load(Ordering::Acquire)
    }

    fn send(&mut self, due_ns: u64, row: u32) {
        let prio = self.prios[self.rng.below(3)];
        let msg = Wire {
            seq: self.next_seq,
            due_ns,
            row,
            prio,
            fill: self.fill,
        };
        self.shared.stamps.stamp(row, R0);
        let sent = self.port.send(&msg, Priority::new(prio));
        self.shared.stamps.stamp(row, R1);
        if sent.is_err() {
            self.failed += 1;
        }
        self.sum_sent = self.sum_sent.wrapping_add(msg.seq);
        self.next_seq += 1;
    }

    fn drain(&self) {
        let sent = self.next_seq - 1;
        let give_up = now_ns() + 10_000_000_000;
        while self.handled() + self.failed < sent && now_ns() < give_up {
            std::thread::yield_now();
        }
    }

    fn paced(
        &mut self,
        secs: f64,
        lag: &mut Vec<u64>,
        mut row_of: impl FnMut(u64) -> u32,
    ) -> Paced {
        let sched = Schedule::starting_now(PACED_HZ, 200_000);
        let n = sched.ops_in(secs).min(self.shared.entered.len() as u64);
        self.shared.lat_base.store(self.next_seq, Ordering::Relaxed);
        let mut generator = GeneratorCpu::open();
        let process0 = meter::process_cpu_ns();
        pacer::open_loop(&sched, n, now_ns, pacer::wait_until, lag, |i, due| {
            let row = row_of(i);
            generator.issue(i, || self.send(due, row));
        });
        self.drain();
        let process_ns = meter::process_cpu_ns() - process0;
        let generator = generator.close();
        self.shared.lat_base.store(NOT_RECORDING, Ordering::Relaxed);
        Paced {
            sched,
            n,
            process_ns,
            generator,
        }
    }

    /// Saturation: sends as fast as a window of 64 in flight allows,
    /// for `secs`.
    fn saturate(&mut self, secs: f64) -> SliceCost {
        let slice = Slice::open(secs, self.handled());
        let (closed_at, handled) = loop {
            let handled = self.handled();
            if self.next_seq - 1 - handled < SAT_WINDOW {
                self.send(0, UNTRACED);
                if !self.next_seq.is_multiple_of(32) {
                    continue;
                }
            } else {
                std::thread::yield_now();
            }
            let now = now_ns();
            if slice.over(now) {
                break (now, self.handled());
            }
        };
        let cost = slice.close(closed_at, handled);
        self.drain();
        cost
    }

    fn take_entered(&self, n: u64) -> Vec<u64> {
        self.shared.entered[..n as usize]
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .collect()
    }

    /// Every sent sequence number handled exactly once, intact and in
    /// order within each priority; both ends of the link agree.
    fn checks(&self) -> Vec<(&'static str, bool)> {
        let s = &self.shared;
        let sent = self.next_seq - 1;
        vec![
            ("no send failed", self.failed == 0),
            (
                "every message handled exactly once (count)",
                self.handled() == sent,
            ),
            (
                "every message handled exactly once (checksum)",
                s.checksum.load(Ordering::Relaxed) == self.sum_sent,
            ),
            (
                "in order within each priority",
                s.disorder.load(Ordering::Relaxed) == 0,
            ),
            (
                "payload bytes intact",
                s.corrupt.load(Ordering::Relaxed) == 0,
            ),
            (
                "exporter received all and rejected none",
                self.exporter.received() == sent && self.exporter.rejected() == 0,
            ),
            (
                "sink app processed every message",
                self.app.stats().messages_processed == sent,
            ),
        ]
    }
}

pub fn paced_ops(secs: f64) -> usize {
    (secs * PACED_HZ as f64) as usize + 1
}

/// `between_rounds` is called once before every round (for the set-ups
/// `setup_s` is made of, which are spread over the run this way). The
/// exporter's reader and Sink's worker are spawned during set-up, so a
/// generator with a CPU of its own (see `cpus`) may leave at once.
pub fn run(rig: &mut Rig, plan: &Plan, between_rounds: &mut dyn FnMut()) -> EndToEnd {
    let mut lag = Vec::with_capacity(paced_ops(plan.paced_s.max(plan.warm_s)));
    let mut windows = Vec::with_capacity(plan.rounds);
    let mut saturation = Saturation::with_capacity(plan.rounds);
    let mut cpu = SystemCpu::default();
    let mut paced_ops = 0;
    let before = rig.app.metrics_text();
    cpus::as_generator(|| {
        rig.saturate(plan.warm_s / 2.0);
        rig.paced(plan.warm_s / 2.0, &mut lag, |_| UNTRACED);
        for _ in 0..plan.rounds {
            between_rounds();
            lag.clear();
            let paced = rig.paced(plan.paced_s, &mut lag, |_| UNTRACED);
            let mut lat = super::latencies(&rig.take_entered(paced.n), &paced.sched);
            windows.push(stats::window_latency(&mut lat));
            cpu.add(paced.process_ns, &[paced.generator], paced.n);
            paced_ops += paced.n as usize;
            saturation.push(rig.saturate(plan.sat_s));
        }
    });
    super::note_lag(&mut lag); // the last round's
    let latency = LatencySummary::over(&windows);
    let mut checks = rig.checks();
    checks.push(("every paced op has a latency", latency.samples == paced_ops));
    EndToEnd {
        attempted: rig.next_seq - 1,
        failed: rig.failed,
        checks,
        latency,
        saturation,
        cpu,
        transitions_per_op: super::transitions_per_op(
            &before,
            &rig.app.metrics_text(),
            rig.next_seq - 1,
        ),
    }
}

const BLOCK_OPS: u64 = 100;

pub fn trace(rig: &mut Rig, secs: f64) -> Traced {
    let rows = rig.shared.stamps.rows();
    let mut lag = Vec::with_capacity(paced_ops(secs));
    let mut op_of_row: Vec<u64> = Vec::with_capacity(rows);
    let seq0 = rig.next_seq;
    let before = rig.app.metrics_text();
    let warm_s = secs / 8.0;
    rig.saturate(warm_s / 2.0);
    rig.paced(warm_s / 2.0, &mut lag, |_| UNTRACED);
    lag.clear();
    let Paced { sched, n, .. } = rig.paced(secs - warm_s, &mut lag, |i| {
        if (i / BLOCK_OPS) % 2 == 1 && op_of_row.len() < rows {
            op_of_row.push(i);
            (op_of_row.len() - 1) as u32
        } else {
            UNTRACED
        }
    });
    let after = rig.app.metrics_text();
    let entered = rig.take_entered(n);
    let mut plain: Vec<u64> = (0..n)
        .filter(|i| (i / BLOCK_OPS).is_multiple_of(2) && entered[*i as usize] != 0)
        .map(|i| entered[i as usize].saturating_sub(sched.due_ns(i)))
        .collect();

    // Tiles of the blocking path, due time → Sink entry. The exporter
    // may deliver before `send` has returned to the caller.
    const TILES: usize = 3;
    let mut tiles: [Vec<u64>; TILES] = Default::default();
    let mut send_call = Vec::with_capacity(op_of_row.len());
    let mut spans = SpanSet::default();
    let mut traced = Vec::with_capacity(op_of_row.len());
    for (r, &i) in op_of_row.iter().enumerate() {
        let Some(t) = rig.shared.stamps.row(r) else {
            continue;
        };
        let op = r as u64;
        let due = sched.due_ns(i).min(t[R0]);
        traced.push(t[E1] - due);
        send_call.push(t[R1] - t[R0]);
        let r1 = t[R1].min(t[E1]);
        let cuts = [due, t[R0], r1, t[E1]];
        for (tile, w) in tiles.iter_mut().zip(cuts.windows(2)) {
            tile.push(w[1].saturating_sub(w[0]));
        }
        let root = spans.push("op", op, due, t[X1], None, 0);
        spans.push("bench.gen_lag", op, due, t[R0], Some(root), 0);
        spans.push("core.remote_send", op, t[R0], t[R1], Some(root), 0);
        spans.push("core.remote_ingress", op, r1, t[E1], Some(root), 1);
        spans.push("handler.sink", op, t[E1], t[X1], Some(root), 1);
    }
    let mut out = Traced {
        attempted: rig.next_seq - seq0,
        failed: rig.failed,
        checks: rig.checks(),
        ..Traced::default()
    };
    if !traced.is_empty() && !plain.is_empty() {
        let path = tiles.iter_mut().map(|t| stats::p50(t)).sum();
        out.insert_health(&mut plain, &mut traced, path);
        out.layer
            .insert("core.remote_send_us", stats::p50(&mut send_call) / 1e3);
        out.layer
            .insert("core.remote_ingress_us", stats::p50(&mut tiles[2]) / 1e3);
    }
    out.layer
        .insert("bench.gen_lag_p99_us", super::lag_p99_us(&mut lag));
    out.insert_transitions(&before, &after, rig.next_seq - seq0);
    out.spans = spans;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_message_is_32_bytes_and_round_trips() {
        let m = Wire {
            seq: 0x0102_0304_0506_0708,
            due_ns: 99,
            row: 7,
            prio: 23,
            fill: [9; FILL_LEN],
        };
        let mut buf = Vec::new();
        m.encode(&mut buf);
        assert_eq!(buf.len(), 32);
        assert_eq!(Wire::decode(&buf), m);
    }
}
