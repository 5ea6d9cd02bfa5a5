//! `local_async` — Source (immortal) → Stage → Sink, the two scoped
//! level-1 siblings with asynchronous in-ports (buffer 64, pool 1..2),
//! empty handlers, a 32-byte message and three seeded priorities. Open
//! loop at 10 000 msg/s, then saturation with a 64-message window. An
//! op is one message reaching Sink (two asynchronous hops); latency
//! runs from its due time to Sink's handler entry.
//!
//! Why: every hop is enqueue → `Gate` wake → dequeue → pool worker, so
//! `rtsched` and `rtplatform::{ring,park}` dominate and `core`'s
//! bookkeeping is the minority — the mirror image of `local_sync`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::{App, AppBuilder, ChildHandle, CompadresError, HandlerCtx, Priority};
use rtplatform::rng::SplitMix64;

use super::{EndToEnd, GeneratorCpu, Paced, Plan, Saturation, Slice, SliceCost, SystemCpu, Traced};
use crate::cpus;
use crate::meter;
use crate::pacer::{self, now_ns, Schedule};
use crate::stats::{self, LatencySummary};
use crate::trace::{SpanSet, Stamps, UNTRACED};

/// Arrival rate of the latency phase, well under saturation.
pub const PACED_HZ: u64 = 10_000;
/// Messages in flight during the saturation phase.
const SAT_WINDOW: u64 = 64;
/// A `lat_base` no sequence number comes within a table's length of.
const NOT_RECORDING: u64 = 1 << 62;

/// The 32-byte message.
#[derive(Debug, Clone)]
pub struct Msg {
    pub seq: u64,
    pub due_ns: u64,
    pub row: u32,
    pub prio: u8,
    /// Seeded filler, checked on arrival.
    pub fill: [u8; 11],
}

impl Default for Msg {
    fn default() -> Self {
        Msg {
            seq: 0,
            due_ns: 0,
            row: UNTRACED,
            prio: 0,
            fill: [0; 11],
        }
    }
}

pub const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Msg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Stage</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Msg</MessageType></Port>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Msg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Msg</MessageType></Port>
  </Component>
</Components>"#;

pub const CCL: &str = r#"
<Application>
  <ApplicationName>AsyncPipeline</ApplicationName>
  <Component>
    <InstanceName>TheSource</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><PortType>Internal</PortType><ToComponent>TheStage</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>TheStage</InstanceName>
      <ClassName>Stage</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>64</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize>
          </PortAttributes>
        </Port>
        <Port><PortName>Out</PortName>
          <Link><PortType>External</PortType><ToComponent>TheSink</ToComponent><ToPort>In</ToPort></Link>
        </Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>TheSink</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>64</BufferSize>
            <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize>
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
const G0: usize = 0; // before get_message
const G1: usize = 1; // message in hand, before send
const S1: usize = 2; // Source's send returned
const E1: usize = 3; // Stage handler entry
const F0: usize = 4; // Stage: message in hand, before its send
const F1: usize = 5; // Stage's send returned, handler about to exit
const E2: usize = 6; // Sink handler entry
const X2: usize = 7; // Sink handler exit
const COLS: usize = 8;

/// A full port buffer or message pool: the receiver is behind.
fn is_back_pressure(e: &CompadresError) -> bool {
    matches!(
        e,
        CompadresError::BufferFull { .. } | CompadresError::MessagePoolExhausted { .. }
    )
}

/// What the handlers share with the generator.
struct Shared {
    /// Messages that reached Sink.
    handled: AtomicU64,
    /// Wrapping sum of their sequence numbers.
    checksum: AtomicU64,
    /// Last sequence number seen per priority, to check order.
    last: [AtomicU64; 3],
    disorder: AtomicU64,
    /// Messages whose filler did not match the seeded bytes.
    corrupt: AtomicU64,
    /// Forwards Stage had to retry because Sink was full.
    stage_refused: AtomicU64,
    /// Sink entry time of the ops of the current paced phase, by
    /// `seq - lat_base`; sequence numbers outside the table are not
    /// recorded ([`NOT_RECORDING`] puts every one outside).
    lat_base: AtomicU64,
    entered: Vec<AtomicU64>,
    stamps: Stamps,
}

impl Shared {
    /// Takes (and clears) the Sink entry times of the first `n` ops of
    /// the last paced phase; 0 marks an op that never arrived.
    fn take_entered(&self, n: u64) -> Vec<u64> {
        self.entered[..n as usize]
            .iter()
            .map(|c| c.swap(0, Ordering::Relaxed))
            .collect()
    }
}

pub struct Rig {
    app: App,
    shared: Arc<Shared>,
    /// The three seeded priorities.
    prios: [u8; 3],
    fill: [u8; 11],
    rng: SplitMix64,
    next_seq: u64,
    sum_sent: u64,
    refused: u64,
    _keep: Vec<ChildHandle>,
}

/// Builds the pipeline with room to record `lat_ops` latencies and
/// `trace_rows` traced ops, then pushes one verified message through.
pub fn setup(seed: u64, lat_ops: usize, trace_rows: usize) -> Rig {
    let mut rng = SplitMix64::new(seed);
    // Three seeded priorities, ten apart: distinct residues mod 3, so
    // Sink can index its per-priority order check by `prio % 3`.
    let base = rng.range_usize(2, 20) as u8;
    let prios = [base, base + 10, base + 20];
    let fill = [0; 11].map(|_| rng.next_u64() as u8);
    let shared = Arc::new(Shared {
        handled: AtomicU64::new(0),
        checksum: AtomicU64::new(0),
        last: [0; 3].map(|_| AtomicU64::new(0)),
        disorder: AtomicU64::new(0),
        corrupt: AtomicU64::new(0),
        stage_refused: AtomicU64::new(0),
        lat_base: AtomicU64::new(NOT_RECORDING),
        entered: (0..lat_ops).map(|_| AtomicU64::new(0)).collect(),
        stamps: Stamps::new(trace_rows, COLS),
    });
    let (stage, sink) = (Arc::clone(&shared), Arc::clone(&shared));
    let app = AppBuilder::from_xml(CDL, CCL)
        .expect("pipeline documents parse")
        .bind_message_type::<Msg>("Msg")
        .register_handler("Stage", "In", move || {
            let s = Arc::clone(&stage);
            move |msg: &mut Msg, ctx: &mut HandlerCtx<'_>| {
                s.stamps.stamp(msg.row, E1);
                // Like Source, Stage treats a full buffer or pool as
                // back-pressure and holds its worker until Sink has room.
                loop {
                    let sent = ctx.get_message::<Msg>("Out").and_then(|mut fwd| {
                        fwd.clone_from(msg);
                        s.stamps.stamp(msg.row, F0);
                        ctx.send("Out", fwd, Priority::new(msg.prio))
                    });
                    match sent {
                        Err(e) if is_back_pressure(&e) => {
                            s.stage_refused.fetch_add(1, Ordering::Relaxed);
                            std::thread::yield_now();
                        }
                        done => {
                            s.stamps.stamp(msg.row, F1);
                            return done;
                        }
                    }
                }
            }
        })
        .register_handler("Sink", "In", move || {
            let s = Arc::clone(&sink);
            move |msg: &mut Msg, _ctx: &mut HandlerCtx<'_>| {
                let now = now_ns();
                s.stamps.stamp(msg.row, E2);
                let slot = msg.seq.wrapping_sub(s.lat_base.load(Ordering::Relaxed));
                if let Some(cell) = s.entered.get(slot as usize) {
                    cell.store(now, Ordering::Relaxed);
                }
                // Handler calls on one port are serialised by the
                // framework, so this sees messages in handling order.
                let band = &s.last[(msg.prio % 3) as usize];
                if band.swap(msg.seq, Ordering::Relaxed) > msg.seq {
                    s.disorder.fetch_add(1, Ordering::Relaxed);
                }
                if msg.fill != fill {
                    s.corrupt.fetch_add(1, Ordering::Relaxed);
                }
                s.checksum.fetch_add(msg.seq, Ordering::Relaxed);
                s.stamps.stamp(msg.row, X2);
                // Release: the generator reads the tables after seeing
                // the count (Acquire in `handled`).
                s.handled.fetch_add(1, Ordering::Release);
                Ok(())
            }
        })
        .build()
        .expect("pipeline composition is valid");
    app.start().expect("pipeline starts");
    let keep = vec![
        app.connect("TheStage").expect("stage stays connected"),
        app.connect("TheSink").expect("sink stays connected"),
    ];
    let mut rig = Rig {
        app,
        shared,
        prios,
        fill,
        rng,
        next_seq: 1,
        sum_sent: 0,
        refused: 0,
        _keep: keep,
    };
    let shared = Arc::clone(&rig.shared);
    rig.with_source(|src| {
        src.send(0, UNTRACED);
        src.drain();
    });
    assert_eq!(
        shared.handled.load(Ordering::Acquire),
        1,
        "first op verifies"
    );
    rig
}

/// The generator, positioned inside the Source component.
struct Source<'a, 'b> {
    ctx: &'a mut HandlerCtx<'b>,
    shared: &'a Shared,
    prios: [u8; 3],
    fill: [u8; 11],
    rng: &'a mut SplitMix64,
    next_seq: u64,
    sum_sent: u64,
    refused: u64,
    failed: u64,
}

impl Source<'_, '_> {
    fn handled(&self) -> u64 {
        self.shared.handled.load(Ordering::Acquire)
    }

    /// Sends the next message. A full buffer or message pool is
    /// back-pressure, not failure: the send is retried and the wait
    /// lands in the op's latency, which runs from `due_ns`.
    fn send(&mut self, due_ns: u64, row: u32) {
        let seq = self.next_seq;
        let prio = self.prios[self.rng.below(3)];
        loop {
            self.shared.stamps.stamp(row, G0);
            let sent = self.ctx.get_message::<Msg>("Out").and_then(|mut m| {
                m.seq = seq;
                m.due_ns = due_ns;
                m.row = row;
                m.prio = prio;
                m.fill = self.fill;
                self.shared.stamps.stamp(row, G1);
                self.ctx.send("Out", m, Priority::new(prio))
            });
            self.shared.stamps.stamp(row, S1);
            match sent {
                Ok(()) => break,
                Err(e) if is_back_pressure(&e) => {
                    self.refused += 1;
                    std::thread::yield_now();
                }
                Err(_) => {
                    self.failed += 1;
                    break;
                }
            }
        }
        self.next_seq += 1;
        self.sum_sent = self.sum_sent.wrapping_add(seq);
    }

    /// Waits until Sink has handled everything sent (10 s at most).
    fn drain(&self) {
        let sent = self.next_seq - 1;
        let give_up = now_ns() + 10_000_000_000;
        while self.handled() + self.failed < sent && now_ns() < give_up {
            std::thread::yield_now();
        }
    }

    /// Open loop at [`PACED_HZ`] for `secs`: op `i` is traced into the
    /// row `row_of(i)` yields. Appends each op's issue lag to `lag`.
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
}

impl Rig {
    fn with_source(&mut self, f: impl FnOnce(&mut Source<'_, '_>)) -> u64 {
        let shared = Arc::clone(&self.shared);
        let (prios, fill) = (self.prios, self.fill);
        let (next_seq, sum_sent) = (self.next_seq, self.sum_sent);
        let rng = &mut self.rng;
        let (next_seq, sum_sent, refused, failed) = self
            .app
            .with_component("TheSource", |ctx| {
                let mut src = Source {
                    ctx,
                    shared: &shared,
                    prios,
                    fill,
                    rng,
                    next_seq,
                    sum_sent,
                    refused: 0,
                    failed: 0,
                };
                f(&mut src);
                (src.next_seq, src.sum_sent, src.refused, src.failed)
            })
            .expect("source is immortal");
        self.next_seq = next_seq;
        self.sum_sent = sum_sent;
        self.refused += refused;
        failed
    }

    /// Every sent sequence number handled exactly once (count and
    /// checksum). Order within a priority is reported, not checked: a
    /// port with two workers serialises its handler calls but does not
    /// promise their order (single-worker ports do, and
    /// `remote_oneway` checks it there).
    fn checks(&self, failed: u64) -> Vec<(&'static str, bool)> {
        let s = &self.shared;
        println!(
            "# note: {} of {} messages overtook an earlier one of their priority \
             (two workers per port); {} sends by Source and {} by Stage retried on a full buffer",
            s.disorder.load(Ordering::Relaxed),
            self.next_seq - 1,
            self.refused,
            s.stage_refused.load(Ordering::Relaxed)
        );
        vec![
            ("no op failed", failed == 0),
            (
                "every message handled exactly once (count)",
                s.handled.load(Ordering::Acquire) == self.next_seq - 1,
            ),
            (
                "every message handled exactly once (checksum)",
                s.checksum.load(Ordering::Relaxed) == self.sum_sent,
            ),
            (
                "payload bytes intact",
                s.corrupt.load(Ordering::Relaxed) == 0,
            ),
        ]
    }
}

/// Ops an open-loop phase of `secs` issues (sizes the latency table).
pub fn paced_ops(secs: f64) -> usize {
    (secs * PACED_HZ as f64) as usize + 1
}

/// `between_rounds` is called once before every round (for the set-ups
/// `setup_s` is made of, which are spread over the run this way).
pub fn run(rig: &mut Rig, plan: &Plan, between_rounds: &mut dyn FnMut()) -> EndToEnd {
    let mut lag = Vec::with_capacity(paced_ops(plan.paced_s.max(plan.warm_s)));
    let mut windows = Vec::with_capacity(plan.rounds);
    let mut saturation = Saturation::with_capacity(plan.rounds);
    let mut cpu = SystemCpu::default();
    let mut paced_ops = 0;
    let plan = *plan;
    let before = rig.app.metrics_text();
    let failed = rig.with_source(|src| {
        // Warm-up: a burst first, so that every pool has grown to its
        // size before anything is timed — and has grown on the system's
        // CPU: a worker inherits the CPU of the thread whose send
        // spawned it, and the generator may be about to move (see
        // `cpus`). Then the paced regime.
        src.saturate(plan.warm_s / 2.0);
        cpus::as_generator(|| {
            src.paced(plan.warm_s / 2.0, &mut lag, |_| UNTRACED);
            for _ in 0..plan.rounds {
                between_rounds();
                lag.clear();
                let paced = src.paced(plan.paced_s, &mut lag, |_| UNTRACED);
                let mut lat = super::latencies(&src.shared.take_entered(paced.n), &paced.sched);
                windows.push(stats::window_latency(&mut lat));
                cpu.add(paced.process_ns, &[paced.generator], paced.n);
                paced_ops += paced.n as usize;
                saturation.push(src.saturate(plan.sat_s));
            }
        });
    });
    super::note_lag(&mut lag); // the last round's
    let latency = LatencySummary::over(&windows);
    let mut checks = rig.checks(failed);
    checks.push(("every paced op has a latency", latency.samples == paced_ops));
    EndToEnd {
        attempted: rig.next_seq - 1,
        failed,
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

/// Ops per untraced/traced block of the traced pass.
const BLOCK_OPS: u64 = 100;

/// Traced pass at the paced rate: odd blocks of 100 ops are traced,
/// even ones are not, so both see the same conditions.
pub fn trace(rig: &mut Rig, secs: f64) -> Traced {
    let rows = rig.shared.stamps.rows();
    let mut lag = Vec::with_capacity(paced_ops(secs));
    // Schedule index of each traced row.
    let mut op_of_row: Vec<u64> = Vec::with_capacity(rows);
    let before = rig.app.metrics_text();
    let seq0 = rig.next_seq;
    let mut paced = None;
    let failed = rig.with_source(|src| {
        // The same warm-up as an untraced run, so the pools are in the
        // same state.
        let warm_s = secs / 8.0;
        src.saturate(warm_s / 2.0);
        src.paced(warm_s / 2.0, &mut lag, |_| UNTRACED);
        lag.clear();
        paced = Some(src.paced(secs - warm_s, &mut lag, |i| {
            if (i / BLOCK_OPS) % 2 == 1 && op_of_row.len() < rows {
                op_of_row.push(i);
                (op_of_row.len() - 1) as u32
            } else {
                UNTRACED
            }
        }));
    });
    let after = rig.app.metrics_text();
    let Paced { sched, n, .. } = paced.expect("traced phase ran");
    let entered = rig.shared.take_entered(n);
    let mut plain: Vec<u64> = (0..n)
        .filter(|i| (i / BLOCK_OPS).is_multiple_of(2) && entered[*i as usize] != 0)
        .map(|i| entered[i as usize].saturating_sub(sched.due_ns(i)))
        .collect();

    // Tiles of the blocking path, due time → Sink entry. A worker may
    // enter the next handler before the sender's `send` has returned;
    // the send call then blocks the message only up to that entry and
    // the hand-off is empty.
    const TILES: usize = 7;
    let mut tiles: [Vec<u64>; TILES] = Default::default();
    let mut spans = SpanSet::default();
    let mut traced = Vec::with_capacity(op_of_row.len());
    for (r, &i) in op_of_row.iter().enumerate() {
        let Some(t) = rig.shared.stamps.row(r) else {
            continue;
        };
        let op = r as u64;
        let due = sched.due_ns(i).min(t[G0]);
        traced.push(t[E2] - due);
        let (s1, f1) = (t[S1].min(t[E1]), t[F1].min(t[E2]));
        let cuts = [due, t[G0], t[G1], s1, t[E1], t[F0], f1, t[E2]];
        for (tile, w) in tiles.iter_mut().zip(cuts.windows(2)) {
            tile.push(w[1].saturating_sub(w[0]));
        }
        let root = spans.push("op", op, due, t[X2], None, 0);
        spans.push("bench.gen_lag", op, due, t[G0], Some(root), 0);
        spans.push("core.pool_get", op, t[G0], t[G1], Some(root), 0);
        spans.push("core.send_call", op, t[G1], t[S1], Some(root), 0);
        spans.push("rtsched.handoff", op, s1, t[E1], Some(root), 1);
        let stage = spans.push("handler.stage", op, t[E1], t[F1], Some(root), 1);
        spans.push("core.pool_get", op, t[E1], t[F0], Some(stage), 1);
        spans.push("core.send_call", op, t[F0], t[F1], Some(stage), 1);
        spans.push("rtsched.handoff", op, f1, t[E2], Some(root), 2);
        spans.push("handler.sink", op, t[E2], t[X2], Some(root), 2);
    }
    let mut out = Traced {
        attempted: rig.next_seq - seq0,
        failed,
        checks: rig.checks(failed),
        ..Traced::default()
    };
    if !traced.is_empty() && !plain.is_empty() {
        let path = tiles.iter_mut().map(|t| stats::p50(t)).sum();
        out.insert_health(&mut plain, &mut traced, path);
        // Both hops' hand-offs (send return → next handler entry).
        let mut handoffs = [std::mem::take(&mut tiles[3]), std::mem::take(&mut tiles[6])].concat();
        out.layer
            .insert("rtsched.handoff_us", stats::p50(&mut handoffs) / 1e3);
    }
    out.layer
        .insert("bench.gen_lag_p99_us", super::lag_p99_us(&mut lag));
    out.insert_transitions(&before, &after, rig.next_seq - seq0);
    out.spans = spans;
    out
}
