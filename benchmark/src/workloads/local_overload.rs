//! `local_overload` — open loop at a fixed 40 000 msg/s into Source →
//! Sink (buffer 256, exactly one worker, `AdmissionPolicy::banded(10,
//! 40)`). The handler spins 50 µs, so capacity is 20 000 msg/s and the
//! overload is 2× by construction, with no calibration. A seeded 20 % of
//! the traffic is high band (priority 50), the rest low (priority 0).
//! An op is one high-band message; its latency runs from its due time
//! to handler exit; throughput, CPU time and allocations are per handled
//! message of either band.
//!
//! Why: the same `core::deliver` / `rtsched::PriorityFifo` layers used
//! the other way — the refusal path (watermark check, `Shed` error
//! construction, shed counters and journal events) runs for about half
//! the messages, so a happy-path gain that makes shedding slower or
//! unfair shows here.
//!
//! The low band fills the buffer to its watermark of 128 and the high
//! band has the 128 slots above it: 16 ms of its arrivals. Whenever the
//! host takes either CPU away for most of that, the high band overflows
//! through no fault of the system's, so whether the timed phase refuses
//! a high-band message depends on the host and cannot be what makes a
//! run correct. The admission rule is checked with the timing taken out
//! instead ([`Source::probe_admission`]: the worker parked inside its
//! handler, every refusal forced at an exact occupancy), and the timed
//! phase checks what holds under any schedule: nothing is lost, and
//! handled + shed == offered per band. Its high-band refusals are
//! reported (`core.shed_high_share`, and a note that tells them apart by
//! window) and are not failures. The phase is cut into one-second
//! windows, and a window in (or just after) which the handler's spin or
//! the generator was stalled for 10 ms is *disturbed*: it is reported
//! and left out of every figure.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::{
    AdmissionPolicy, App, AppBuilder, ChildHandle, CompadresError, HandlerCtx, Priority,
};
use rtplatform::rng::SplitMix64;

use super::{EndToEnd, GeneratorCpu, Plan, Saturation, Slice, SliceCost, SystemCpu, Traced};
use crate::cpus;
use crate::meter;
use crate::pacer::{self, now_ns, Schedule};
use crate::stats::{self, LatencySummary};
use crate::trace::{SpanSet, Stamps, UNTRACED};

/// Offered rate: twice what the spinning handler can serve.
pub const OFFERED_HZ: u64 = 40_000;
/// Time the Sink handler burns per message.
const SERVICE_NS: u64 = 50_000;
const HIGH_PRIO: u8 = 50;
const LOW_PRIO: u8 = 0;
const ADMISSION: AdmissionPolicy = AdmissionPolicy::banded(10, 40);
/// Share of the traffic drawn into the high band: 8 000 msg/s, 40 % of
/// the worker's capacity.
const HIGH_SHARE: f64 = 0.20;
/// Ops per window: one second of the schedule.
const WINDOW_OPS: u64 = OFFERED_HZ;
/// A thread that loses its CPU for this long has used up most of the
/// 16 ms of high-band arrivals the buffer absorbs.
const STALL_NS: u64 = 10_000_000;
/// How long after a stall the queue may still be draining the burst.
const RECOVERY_NS: u64 = 50_000_000;
/// `BufferSize` in [`CCL`], and the part of it `banded(10, 40)` lets the
/// low band fill: half.
const BUFFER: usize = 256;
const LOW_ROOM: usize = 128;
/// Messages offered past each limit of the admission probe.
const PROBE_EXTRA: usize = 8;

#[derive(Debug, Clone)]
pub struct Work {
    pub high: bool,
    /// Index into the high-band exit-time table, if recorded.
    pub slot: u32,
    pub row: u32,
    /// Parks the worker inside the handler until the generator lets go
    /// (see [`Source::probe_admission`]).
    pub plug: bool,
}

impl Default for Work {
    fn default() -> Self {
        Work {
            high: false,
            slot: UNTRACED,
            row: UNTRACED,
            plug: false,
        }
    }
}

pub const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Work</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Work</MessageType></Port>
  </Component>
</Components>"#;

pub const CCL: &str = r#"
<Application>
  <ApplicationName>Overload</ApplicationName>
  <Component>
    <InstanceName>TheSource</InstanceName>
    <ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><PortType>Internal</PortType><ToComponent>TheSink</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>TheSink</InstanceName>
      <ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName>
          <PortAttributes>
            <BufferSize>256</BufferSize>
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

// Stamp columns of one traced (high-band) op.
const G0: usize = 0; // before get_message
const G1: usize = 1; // message in hand, before send
const S1: usize = 2; // send returned
const E1: usize = 3; // handler entry
const X1: usize = 4; // handler exit
const COLS: usize = 5;

struct Shared {
    handled_high: AtomicU64,
    handled_low: AtomicU64,
    /// Handler exit time of high-band ops, by `Work::slot`.
    exited: Vec<AtomicU64>,
    /// The last time the handler's spin found that its thread had been
    /// off the CPU for [`STALL_NS`] between two reads of the clock: the
    /// two reads.
    stall: [AtomicU64; 2],
    /// While set, a handler given a `plug` message stays inside it; and
    /// whether one has got there.
    plugged: AtomicBool,
    plug_entered: AtomicBool,
    stamps: Stamps,
}

/// What became of one offered message.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sent {
    Admitted,
    /// Refused at its band's watermark with room left in the buffer.
    Shed,
    /// Refused because the buffer was full.
    Full,
    Failed,
}

/// Per-band offered/shed counts of one generator pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Bands {
    offered_high: u64,
    offered_low: u64,
    shed_high: u64,
    shed_low: u64,
    /// Sends that failed any other way.
    errors: u64,
}

impl Bands {
    fn since(&self, earlier: &Bands) -> Bands {
        Bands {
            offered_high: self.offered_high - earlier.offered_high,
            offered_low: self.offered_low - earlier.offered_low,
            shed_high: self.shed_high - earlier.shed_high,
            shed_low: self.shed_low - earlier.shed_low,
            errors: self.errors - earlier.errors,
        }
    }
}

/// One second of the schedule: ops `first_op..end_op`.
struct Window {
    first_op: u64,
    end_op: u64,
    /// Its high-band ops, as indices into the phase's list of them.
    high: std::ops::Range<usize>,
    opened_ns: u64,
    closed_ns: u64,
    cost: SliceCost,
    /// CPU time of the whole process over the window, and the
    /// generator's part in it.
    process_ns: u64,
    generator: GeneratorCpu,
    bands: Bands,
    /// The worker's last stall as known when the window closed.
    worker_stall: (u64, u64),
    disturbed: bool,
}

/// What one generator pass offered.
struct Offered {
    sched: Schedule,
    /// Schedule index of every high-band op.
    high_ops: Vec<u64>,
    windows: Vec<Window>,
}

impl Offered {
    fn quiet(&self) -> impl Iterator<Item = &Window> {
        self.windows.iter().filter(|w| !w.disturbed)
    }

    /// High-band messages refused in windows nothing disturbed.
    fn unexcused(&self) -> u64 {
        self.quiet().map(|w| w.bands.shed_high).sum()
    }
}

pub struct Rig {
    app: App,
    shared: Arc<Shared>,
    rng: SplitMix64,
    bands: Bands,
    /// What the admission probes offered, on purpose past every limit:
    /// part of `bands`, no part of the timed phase.
    probed: Bands,
    probe_checks: Vec<(&'static str, bool)>,
    /// High-band messages refused in undisturbed windows, so far.
    unexcused: u64,
    _keep: Vec<ChildHandle>,
}

/// Builds the assembly with room for `high_ops` high-band latencies and
/// `trace_rows` traced ops, then sends one verified high-band message.
pub fn setup(seed: u64, high_ops: usize, trace_rows: usize) -> Rig {
    let shared = Arc::new(Shared {
        handled_high: AtomicU64::new(0),
        handled_low: AtomicU64::new(0),
        exited: (0..high_ops).map(|_| AtomicU64::new(0)).collect(),
        stall: [AtomicU64::new(0), AtomicU64::new(0)],
        plugged: AtomicBool::new(false),
        plug_entered: AtomicBool::new(false),
        stamps: Stamps::new(trace_rows, COLS),
    });
    let sink = Arc::clone(&shared);
    let app = AppBuilder::from_xml(CDL, CCL)
        .expect("overload documents parse")
        .bind_message_type::<Work>("Work")
        .port_admission("TheSink", "In", ADMISSION)
        .register_handler("Sink", "In", move || {
            let s = Arc::clone(&sink);
            move |msg: &mut Work, _ctx: &mut HandlerCtx<'_>| {
                if msg.plug {
                    s.plug_entered.store(true, Ordering::Release);
                    while s.plugged.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                let t0 = now_ns();
                s.stamps.stamp(msg.row, E1);
                let mut last = t0;
                loop {
                    let t = now_ns();
                    if t - last >= STALL_NS {
                        s.stall[0].store(last, Ordering::Relaxed);
                        s.stall[1].store(t, Ordering::Relaxed);
                    }
                    if t - t0 >= SERVICE_NS {
                        break;
                    }
                    last = t;
                    std::hint::spin_loop();
                }
                if let Some(cell) = s.exited.get(msg.slot as usize) {
                    cell.store(now_ns(), Ordering::Relaxed);
                }
                s.stamps.stamp(msg.row, X1);
                let band = if msg.high {
                    &s.handled_high
                } else {
                    &s.handled_low
                };
                band.fetch_add(1, Ordering::Release);
                Ok(())
            }
        })
        .build()
        .expect("overload composition is valid");
    app.start().expect("overload app starts");
    let keep = vec![app.connect("TheSink").expect("sink stays connected")];
    let mut rig = Rig {
        app,
        shared,
        rng: SplitMix64::new(seed),
        bands: Bands::default(),
        probed: Bands::default(),
        probe_checks: Vec::new(),
        unexcused: 0,
        _keep: keep,
    };
    let shared = Arc::clone(&rig.shared);
    rig.bands = rig
        .app
        .with_component("TheSource", |ctx| {
            let mut src = Source {
                ctx,
                shared: &shared,
                rng: &mut rig.rng,
                bands: Bands::default(),
            };
            src.send(true, UNTRACED, UNTRACED);
            src.drain();
            src.bands
        })
        .expect("source is immortal");
    assert_eq!(rig.handled().0, 1, "first op verifies");
    rig
}

struct Source<'a, 'b> {
    ctx: &'a mut HandlerCtx<'b>,
    shared: &'a Shared,
    rng: &'a mut SplitMix64,
    bands: Bands,
}

impl Source<'_, '_> {
    fn handled(&self) -> u64 {
        self.shared.handled_high.load(Ordering::Acquire)
            + self.shared.handled_low.load(Ordering::Acquire)
    }

    /// Offers one message. A refusal is final — shedding is the
    /// behaviour under test — and is counted per band.
    fn send(&mut self, high: bool, slot: u32, row: u32) -> Sent {
        self.send_work(high, slot, row, false)
    }

    fn send_work(&mut self, high: bool, slot: u32, row: u32, plug: bool) -> Sent {
        let prio = if high { HIGH_PRIO } else { LOW_PRIO };
        self.shared.stamps.stamp(row, G0);
        let sent = self.ctx.get_message::<Work>("Out").and_then(|mut m| {
            m.high = high;
            m.slot = slot;
            m.row = row;
            m.plug = plug;
            self.shared.stamps.stamp(row, G1);
            self.ctx.send("Out", m, Priority::new(prio))
        });
        self.shared.stamps.stamp(row, S1);
        let b = &mut self.bands;
        let (offered, shed) = if high {
            (&mut b.offered_high, &mut b.shed_high)
        } else {
            (&mut b.offered_low, &mut b.shed_low)
        };
        *offered += 1;
        match sent {
            Ok(()) => Sent::Admitted,
            Err(CompadresError::Shed { .. }) => {
                *shed += 1;
                Sent::Shed
            }
            Err(CompadresError::BufferFull { .. }) => {
                *shed += 1;
                Sent::Full
            }
            Err(_) => {
                b.errors += 1;
                Sent::Failed
            }
        }
    }

    /// The admission rule with the timing taken out. A plug message
    /// parks the one worker inside its handler, so the queue's occupancy
    /// is known exactly and every refusal is forced: the low band is
    /// admitted up to its watermark of [`LOW_ROOM`] and shed from there
    /// on, the high band has the rest of the buffer and is refused only
    /// when that is full, and once the worker is let go it serves every
    /// high-band message ahead of the low-band ones queued before it. A
    /// change that makes admission unfair fails here on any host; the
    /// timed phase can only show it on a quiet one.
    fn probe_admission(&mut self) -> Vec<(&'static str, bool)> {
        self.drain();
        let shared = self.shared;
        let cells = &shared.exited[..BUFFER];
        cells.iter().for_each(|c| c.store(0, Ordering::Relaxed));
        shared.plug_entered.store(false, Ordering::Relaxed);
        shared.plugged.store(true, Ordering::Release);
        let plug = self.send_work(true, UNTRACED, UNTRACED, true);
        let give_up = now_ns() + 10_000_000_000;
        while !shared.plug_entered.load(Ordering::Acquire) && now_ns() < give_up {
            std::thread::yield_now();
        }
        let admitted_then = |sent: &[Sent], room: usize, refusal: Sent| {
            sent[..room].iter().all(|s| *s == Sent::Admitted)
                && sent[room..].iter().all(|s| *s == refusal)
        };
        // Exit times land in `exited`: the low band's in the first
        // LOW_ROOM cells, the high band's in the rest (a refused
        // message's slot stays empty).
        let low = self.probe_band(false, 0, LOW_ROOM + PROBE_EXTRA);
        let high = self.probe_band(true, LOW_ROOM, BUFFER - LOW_ROOM + PROBE_EXTRA);
        let low_again = self.probe_band(false, BUFFER, PROBE_EXTRA);
        shared.plugged.store(false, Ordering::Release);
        self.drain();
        let exits = |cells: &[AtomicU64]| -> Vec<u64> {
            cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
        };
        let (low_exits, high_exits) = (exits(&cells[..LOW_ROOM]), exits(&cells[LOW_ROOM..]));
        vec![
            (
                "parked worker: the plug was admitted and reached the handler",
                plug == Sent::Admitted && shared.plug_entered.load(Ordering::Acquire),
            ),
            (
                "parked worker: low band admitted up to its watermark of 128, shed from there on",
                admitted_then(&low, LOW_ROOM, Sent::Shed)
                    && low_again.iter().all(|s| *s == Sent::Shed),
            ),
            (
                "parked worker: high band admitted into the 128 slots above, refused only when full",
                admitted_then(&high, BUFFER - LOW_ROOM, Sent::Full),
            ),
            (
                "parked worker: every high-band message served before the low band queued ahead of it",
                high_exits.iter().all(|&at| at != 0)
                    && high_exits.iter().max() <= low_exits.iter().min(),
            ),
        ]
    }

    /// Offers `n` messages of one band whose exit times go to the cells
    /// of `exited` from `first_slot` on.
    fn probe_band(&mut self, high: bool, first_slot: usize, n: usize) -> Vec<Sent> {
        (first_slot..first_slot + n)
            .map(|slot| self.send(high, slot as u32, UNTRACED))
            .collect()
    }

    fn worker_stall(&self) -> (u64, u64) {
        let [from, to] = &self.shared.stall;
        (from.load(Ordering::Relaxed), to.load(Ordering::Relaxed))
    }

    /// Waits until the worker has handled everything admitted.
    fn drain(&self) {
        let b = &self.bands;
        let admitted = b.offered_high + b.offered_low - b.shed_high - b.shed_low - b.errors;
        let give_up = now_ns() + 10_000_000_000;
        while self.handled() < admitted && now_ns() < give_up {
            std::thread::yield_now();
        }
    }

    /// Open loop at [`OFFERED_HZ`] for whole windows of `secs` (one at
    /// least). High-band op `k` records its exit time in slot `k` and is
    /// traced into row `row_of(k)`.
    fn offer(
        &mut self,
        secs: f64,
        lag: &mut Vec<u64>,
        mut row_of: impl FnMut(u64) -> u32,
    ) -> Offered {
        let n = ((secs * OFFERED_HZ as f64) as u64 / WINDOW_OPS).max(1) * WINDOW_OPS;
        let mut high_ops: Vec<u64> = Vec::with_capacity(self.shared.exited.len());
        let mut windows: Vec<Window> = Vec::with_capacity((n / WINDOW_OPS) as usize);
        let lag0 = lag.len();
        let sched = Schedule::starting_now(OFFERED_HZ, 200_000);
        // What the open window started from.
        let opening = |src: &Self| {
            (
                Slice::open(0.0, src.handled()),
                now_ns(),
                src.bands,
                meter::process_cpu_ns(),
            )
        };
        let mut open = opening(self);
        let mut generator = GeneratorCpu::open();
        pacer::open_loop(&sched, n, now_ns, pacer::wait_until, lag, |i, _due| {
            let high = self.rng.chance(HIGH_SHARE) && high_ops.len() < high_ops.capacity();
            let (slot, row) = if high {
                let k = high_ops.len() as u64;
                high_ops.push(i);
                (k as u32, row_of(k))
            } else {
                (UNTRACED, UNTRACED)
            };
            generator.issue(i, || self.send(high, slot, row));
            if (i + 1) % WINDOW_OPS == 0 {
                let now = now_ns();
                let process = meter::process_cpu_ns();
                let closed = std::mem::replace(&mut generator, GeneratorCpu::open()).close();
                let (slice, opened_ns, bands0, process0) =
                    std::mem::replace(&mut open, opening(self));
                let first_high = windows.last().map_or(0, |w: &Window| w.high.end);
                windows.push(Window {
                    first_op: i + 1 - WINDOW_OPS,
                    end_op: i + 1,
                    high: first_high..high_ops.len(),
                    opened_ns,
                    closed_ns: now,
                    cost: slice.close(now, self.handled()),
                    process_ns: process - process0,
                    generator: closed,
                    bands: self.bands.since(&bands0),
                    worker_stall: self.worker_stall(),
                    disturbed: false,
                });
            }
        });
        self.drain();
        // A window is disturbed by a stall that overlaps it or ended
        // shortly before it: of the worker (seen by a window that closed
        // after it, or by the drain), or of the generator (the ops due
        // while it lasted were issued late).
        let mut stalls: Vec<(u64, u64)> = windows.iter().map(|w| w.worker_stall).collect();
        stalls.push(self.worker_stall());
        let lag = &lag[lag0..];
        for w in &mut windows {
            let recovering_from = w.opened_ns.saturating_sub(RECOVERY_NS);
            let from_op = w
                .first_op
                .saturating_sub(RECOVERY_NS * OFFERED_HZ / 1_000_000_000);
            w.disturbed = stalls
                .iter()
                .any(|&(from, to)| to >= recovering_from && from <= w.closed_ns && to != 0)
                || lag[from_op as usize..w.end_op as usize]
                    .iter()
                    .any(|&late| late >= STALL_NS);
        }
        Offered {
            sched,
            high_ops,
            windows,
        }
    }
}

impl Rig {
    /// One generator pass, from the generator's CPU (the handler
    /// saturates the system's by design). Returns what was offered and
    /// the handler exit time of each high-band op (0: never handled).
    fn offer(
        &mut self,
        secs: f64,
        lag: &mut Vec<u64>,
        row_of: impl FnMut(u64) -> u32,
    ) -> (Offered, Vec<u64>) {
        self.shared
            .exited
            .iter()
            .for_each(|c| c.store(0, Ordering::Relaxed));
        lag.clear();
        let shared = Arc::clone(&self.shared);
        let rng = &mut self.rng;
        let mut bands = self.bands;
        let app = &self.app;
        let offered = cpus::on_own_cpu(|| {
            app.with_component("TheSource", |ctx| {
                let mut src = Source {
                    ctx,
                    shared: &shared,
                    rng,
                    bands,
                };
                let offered = src.offer(secs, lag, row_of);
                bands = src.bands;
                offered
            })
            .expect("source is immortal")
        });
        self.bands = bands;
        self.unexcused += offered.unexcused();
        let exited = self.shared.exited[..offered.high_ops.len()]
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        (offered, exited)
    }

    /// Runs the admission probe, once per rig and outside every timed
    /// window, and keeps its verdicts for [`Rig::checks`].
    fn probe_admission(&mut self) {
        let shared = Arc::clone(&self.shared);
        let before = self.bands;
        let (rng, mut bands) = (&mut self.rng, self.bands);
        self.probe_checks = self
            .app
            .with_component("TheSource", |ctx| {
                let mut src = Source {
                    ctx,
                    shared: &shared,
                    rng,
                    bands,
                };
                let checks = src.probe_admission();
                bands = src.bands;
                checks
            })
            .expect("source is immortal");
        self.bands = bands;
        self.probed = bands.since(&before);
    }

    fn handled(&self) -> (u64, u64) {
        (
            self.shared.handled_high.load(Ordering::Acquire),
            self.shared.handled_low.load(Ordering::Acquire),
        )
    }

    /// What the open-loop passes offered: everything but the probes.
    fn timed(&self) -> Bands {
        self.bands.since(&self.probed)
    }

    /// Ops failed: high-band messages admitted and never handled, or
    /// whose send failed outright. A refusal is an answer, and whether
    /// the timed phase gives it to the high band depends on the host
    /// (see the module's description), so it is reported and not failed.
    fn failed(&self) -> u64 {
        let b = &self.bands;
        let lost = (b.offered_high - b.shed_high).saturating_sub(self.handled().0);
        lost + b.errors
    }

    /// Handled + shed == offered per band, the low band visibly shed,
    /// and the admission probe's verdicts.
    fn checks(&self) -> Vec<(&'static str, bool)> {
        let b = &self.bands;
        let t = self.timed();
        let (high, low) = self.handled();
        println!(
            "# note: open loop: high band shed {} of {}, {} of them in windows no stall of {} ms \
             disturbed; low band shed {} of {}",
            t.shed_high,
            t.offered_high,
            self.unexcused,
            STALL_NS / 1_000_000,
            t.shed_low,
            t.offered_low
        );
        let mut checks = vec![
            ("no send failed outright", b.errors == 0),
            (
                "high band: handled + shed == offered",
                high + b.shed_high == b.offered_high,
            ),
            (
                "low band: handled + shed == offered",
                low + b.shed_low == b.offered_low,
            ),
            ("low band shed under 2x overload", t.shed_low > 0),
            (
                "AppStats.messages_shed agrees",
                self.app.stats().messages_shed + self.app.stats().buffer_rejections
                    == b.shed_high + b.shed_low,
            ),
            ("the admission probe ran", !self.probe_checks.is_empty()),
        ];
        checks.extend(self.probe_checks.iter().copied());
        checks
    }
}

/// High-band ops one pass of `secs` offers, with headroom for the draw.
pub fn high_ops(secs: f64) -> usize {
    (secs.max(1.0) * OFFERED_HZ as f64 * HIGH_SHARE * 1.25) as usize + 64
}

fn offered_ops(secs: f64) -> usize {
    (secs.max(1.0) * OFFERED_HZ as f64) as usize + 1
}

/// The longest single pass of a run laid out by `plan`.
pub fn pass_s(plan: &Plan) -> f64 {
    (plan.paced_s + plan.sat_s).max(plan.warm_s)
}

/// One phase gives every metric: the overload *is* the saturation. Each
/// round of the plan is one pass of whole one-second windows, so that
/// `between_rounds` (the set-ups `setup_s` is made of) is spread over
/// the run as in the other workloads.
pub fn run(rig: &mut Rig, plan: &Plan, between_rounds: &mut dyn FnMut()) -> EndToEnd {
    let mut lag = Vec::with_capacity(offered_ops(pass_s(plan)));
    let mut latencies = Vec::with_capacity(plan.rounds);
    let mut saturation = Saturation::with_capacity(plan.rounds);
    let mut cpu = SystemCpu::default();
    // Windows offered, and admitted high-band ops that never got a latency.
    let (mut windows, mut missing) = (0, 0);
    // Figures of the windows left out, should too few be left in.
    let mut disturbed = (Vec::new(), Saturation::default(), SystemCpu::default());
    rig.probe_admission();
    let before = rig.app.metrics_text();
    rig.offer(plan.warm_s, &mut lag, |_| UNTRACED);
    let handled0 = rig.handled();
    for _ in 0..plan.rounds {
        between_rounds();
        let (offered, exited) = rig.offer(plan.paced_s + plan.sat_s, &mut lag, |_| UNTRACED);
        windows += offered.windows.len();
        let refused: u64 = offered
            .windows
            .iter()
            .map(|w| w.bands.shed_high + w.bands.errors)
            .sum();
        let unhandled = exited.iter().filter(|&&at| at == 0).count() as u64;
        missing += unhandled.saturating_sub(refused);
        for w in &offered.windows {
            let mut lat: Vec<u64> = w
                .high
                .clone()
                .filter(|&k| exited[k] != 0)
                .map(|k| exited[k].saturating_sub(offered.sched.due_ns(offered.high_ops[k])))
                .collect();
            let (latencies, saturation, cpu) = if w.disturbed {
                (&mut disturbed.0, &mut disturbed.1, &mut disturbed.2)
            } else {
                (&mut latencies, &mut saturation, &mut cpu)
            };
            latencies.push(stats::window_latency(&mut lat));
            saturation.push(w.cost);
            cpu.add(w.process_ns, &[w.generator], w.cost.completions());
        }
    }
    super::note_lag(&mut lag); // the last round's
    let (high, low) = rig.handled();
    let mut checks = rig.checks();
    checks.push(("every admitted high-band op has a latency", missing == 0));
    println!(
        "# note: {} of {windows} windows disturbed (a CPU taken away for {} ms or more) and left out",
        windows - latencies.len(),
        STALL_NS / 1_000_000
    );
    // On a host this restless the quietest window is still the best
    // figure there is; which windows it is chosen from is not a matter
    // of correctness.
    if latencies.len() < windows.min(5) {
        println!("# note: too few undisturbed windows: the figures are from all {windows}");
        latencies.append(&mut disturbed.0);
        saturation.extend(disturbed.1);
        cpu.extend(disturbed.2);
    }
    EndToEnd {
        attempted: rig.timed().offered_high,
        failed: rig.failed(),
        checks,
        latency: LatencySummary::over(&latencies),
        saturation,
        cpu,
        transitions_per_op: super::transitions_per_op(
            &before,
            &rig.app.metrics_text(),
            high + low - handled0.0 - handled0.1,
        ),
    }
}

/// Ops per untraced/traced block of high-band ops in the traced pass.
const BLOCK_OPS: u64 = 100;

pub fn trace(rig: &mut Rig, secs: f64) -> Traced {
    let rows = rig.shared.stamps.rows();
    let mut lag = Vec::with_capacity(offered_ops(secs));
    // High-band ordinal of each traced row.
    let mut op_of_row: Vec<u64> = Vec::with_capacity(rows);
    rig.probe_admission();
    let before = (rig.bands, rig.app.metrics_text());
    let handled0 = rig.handled();
    rig.offer(secs / 8.0, &mut lag, |_| UNTRACED);
    let (offered, exited) = rig.offer(secs * 7.0 / 8.0, &mut lag, |k| {
        if (k / BLOCK_OPS) % 2 == 1 && op_of_row.len() < rows {
            op_of_row.push(k);
            (op_of_row.len() - 1) as u32
        } else {
            UNTRACED
        }
    });
    let after = rig.app.metrics_text();
    let (sched, high_ops) = (offered.sched, &offered.high_ops);
    let latency = |k: usize| exited[k].saturating_sub(sched.due_ns(high_ops[k]));
    let mut plain: Vec<u64> = (0..high_ops.len())
        .filter(|&k| (k as u64 / BLOCK_OPS).is_multiple_of(2) && exited[k] != 0)
        .map(latency)
        .collect();

    // Tiles of the blocking path, due time → handler exit.
    const TILES: usize = 5;
    let mut tiles: [Vec<u64>; TILES] = Default::default();
    let mut spans = SpanSet::default();
    let mut traced = Vec::with_capacity(op_of_row.len());
    for (r, &k) in op_of_row.iter().enumerate() {
        let Some(t) = rig.shared.stamps.row(r) else {
            continue;
        };
        let op = r as u64;
        let due = sched.due_ns(high_ops[k as usize]).min(t[G0]);
        traced.push(t[X1] - due);
        let s1 = t[S1].min(t[E1]);
        let cuts = [due, t[G0], t[G1], s1, t[E1], t[X1]];
        for (tile, w) in tiles.iter_mut().zip(cuts.windows(2)) {
            tile.push(w[1].saturating_sub(w[0]));
        }
        let root = spans.push("op", op, due, t[X1], None, 0);
        spans.push("bench.gen_lag", op, due, t[G0], Some(root), 0);
        spans.push("core.pool_get", op, t[G0], t[G1], Some(root), 0);
        spans.push("core.send_call", op, t[G1], t[S1], Some(root), 0);
        // Here the hand-off is mostly queueing behind low-band work.
        spans.push("rtsched.handoff", op, s1, t[E1], Some(root), 1);
        spans.push("handler.sink", op, t[E1], t[X1], Some(root), 1);
    }
    let b = rig.bands;
    let offered_low = b.offered_low - before.0.offered_low;
    let mut res = Traced {
        attempted: b.offered_high - before.0.offered_high,
        failed: rig.failed(),
        checks: rig.checks(),
        ..Traced::default()
    };
    res.layer.insert(
        "core.shed_low_share",
        (b.shed_low - before.0.shed_low) as f64 / offered_low.max(1) as f64,
    );
    res.layer.insert(
        "core.shed_high_share",
        (b.shed_high - before.0.shed_high) as f64 / res.attempted.max(1) as f64,
    );
    if !traced.is_empty() && !plain.is_empty() {
        let path = tiles.iter_mut().map(|t| stats::p50(t)).sum();
        res.insert_health(&mut plain, &mut traced, path);
    }
    res.layer
        .insert("bench.gen_lag_p99_us", super::lag_p99_us(&mut lag));
    let (high, low) = rig.handled();
    res.insert_transitions(&before.1, &after, high + low - handled0.0 - handled0.1);
    res.spans = spans;
    res
}
