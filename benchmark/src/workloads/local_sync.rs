//! `local_sync` — the paper's Fig. 6 assembly (IMC → Client → Server →
//! Client, three deliveries per op) with `Min=Max=0` ports and both
//! scoped components kept connected; closed loop, one caller.
//!
//! Why: no queue and no thread wake, so `core`'s per-delivery
//! bookkeeping (port lookup, state lock, handler fetch, pool get/return)
//! and `rtmem` scope entry are all of the work while `rtsched` and
//! `rtplatform::park` do nothing — static wiring and zero-alloc work
//! must show here, park-policy work must not.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::{App, AppBuilder, ChildHandle, HandlerCtx, Priority};
use rtplatform::rng::SplitMix64;

use super::{EndToEnd, Plan, Saturation, Slice, SystemCpu, Traced};
use crate::meter;
use crate::pacer::now_ns;
use crate::stats::{self, LatencySummary};
use crate::trace::{SpanSet, Stamps, UNTRACED};

/// The paper's `MyInteger`, plus the trace row the op writes to.
#[derive(Debug, Clone)]
pub struct MyInteger {
    pub value: i32,
    pub row: u32,
}

impl Default for MyInteger {
    fn default() -> Self {
        MyInteger {
            value: 0,
            row: UNTRACED,
        }
    }
}

pub const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>ImmortalComponent</ComponentName>
    <Port><PortName>P1</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Client</ComponentName>
    <Port><PortName>P2</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P3</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P6</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Server</ComponentName>
    <Port><PortName>P4</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
    <Port><PortName>P5</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
</Components>"#;

const SYNC: &str =
    "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";

/// The Fig. 6 composition with every in-port synchronous.
pub fn ccl() -> String {
    format!(
        r#"
<Application>
  <ApplicationName>Fig6</ApplicationName>
  <Component>
    <InstanceName>IMC</InstanceName>
    <ClassName>ImmortalComponent</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>P1</PortName>
        <Link><PortType>Internal</PortType><ToComponent>MyClient</ToComponent><ToPort>P2</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>MyClient</InstanceName>
      <ClassName>Client</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P2</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port><PortName>P6</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName>
      <ClassName>Server</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P4</PortName><PortAttributes>{SYNC}</PortAttributes></Port>
        <Port><PortName>P5</PortName>
          <Link><PortType>External</PortType><ToComponent>MyClient</ToComponent><ToPort>P6</ToPort></Link>
        </Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>200000</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    )
}

// Stamp columns of one traced op.
const T0: usize = 0; // before get_message(P1)
const T1: usize = 1; // message in hand, before send(P1)
const E2: usize = 2; // P2 handler entry
const E4: usize = 3;
const E6: usize = 4;
const X6: usize = 5; // P6 handler exit
const X4: usize = 6;
const X2: usize = 7;
const T2: usize = 8; // send(P1) returned: the whole chain ran
const COLS: usize = 9;

/// What the handlers share with the caller.
struct Shared {
    /// Ops whose reply reached P6 with the right value.
    done: AtomicU64,
    /// Handler saw a value off the 1 → 3 → 4 chain.
    bad: AtomicU64,
    stamps: Stamps,
}

/// The built, started and connected assembly.
pub struct Rig {
    app: App,
    shared: Arc<Shared>,
    /// Seeded send priorities of the three hops.
    prios: [u8; 3],
    issued: u64,
    _keep: Vec<ChildHandle>,
}

/// Parses, validates, builds, starts and connects the assembly, then
/// runs one verified op.
pub fn setup(seed: u64, trace_rows: usize) -> Rig {
    let mut rng = SplitMix64::new(seed);
    let prios = [0; 3].map(|_| rng.range_usize(2, 31) as u8);
    let shared = Arc::new(Shared {
        done: AtomicU64::new(0),
        bad: AtomicU64::new(0),
        stamps: Stamps::new(trace_rows, COLS),
    });
    let (s2, s4, s6) = (
        Arc::clone(&shared),
        Arc::clone(&shared),
        Arc::clone(&shared),
    );
    let app = AppBuilder::from_xml(CDL, &ccl())
        .expect("Fig. 6 documents parse")
        .bind_message_type::<MyInteger>("MyInteger")
        .register_handler("Client", "P2", move || {
            let s = Arc::clone(&s2);
            let prio = prios[1];
            move |msg: &mut MyInteger, ctx: &mut HandlerCtx<'_>| {
                s.stamps.stamp(msg.row, E2);
                if msg.value != 1 {
                    s.bad.fetch_add(1, Ordering::Relaxed);
                }
                let mut req = ctx.get_message::<MyInteger>("P3")?;
                req.value = 3;
                req.row = msg.row;
                let sent = ctx.send("P3", req, Priority::new(prio));
                s.stamps.stamp(msg.row, X2);
                sent
            }
        })
        .register_handler("Server", "P4", move || {
            let s = Arc::clone(&s4);
            let prio = prios[2];
            move |msg: &mut MyInteger, ctx: &mut HandlerCtx<'_>| {
                s.stamps.stamp(msg.row, E4);
                if msg.value != 3 {
                    s.bad.fetch_add(1, Ordering::Relaxed);
                }
                let mut reply = ctx.get_message::<MyInteger>("P5")?;
                reply.value = 4;
                reply.row = msg.row;
                let sent = ctx.send("P5", reply, Priority::new(prio));
                s.stamps.stamp(msg.row, X4);
                sent
            }
        })
        .register_handler("Client", "P6", move || {
            let s = Arc::clone(&s6);
            move |msg: &mut MyInteger, _ctx: &mut HandlerCtx<'_>| {
                s.stamps.stamp(msg.row, E6);
                if msg.value == 4 {
                    s.done.fetch_add(1, Ordering::Relaxed);
                } else {
                    s.bad.fetch_add(1, Ordering::Relaxed);
                }
                s.stamps.stamp(msg.row, X6);
                Ok(())
            }
        })
        .build()
        .expect("Fig. 6 composition is valid");
    app.start().expect("Fig. 6 app starts");
    let keep = vec![
        app.connect("MyClient").expect("client stays connected"),
        app.connect("MyServer").expect("server stays connected"),
    ];
    let mut rig = Rig {
        app,
        shared,
        prios,
        issued: 0,
        _keep: keep,
    };
    let failed = rig.with_caller(|c| c.op(UNTRACED));
    assert!(
        failed == 0 && rig.shared.done.load(Ordering::Relaxed) == 1,
        "first op verifies"
    );
    rig
}

/// The one caller, positioned inside the IMC component.
struct Caller<'a, 'b> {
    ctx: &'a mut HandlerCtx<'b>,
    shared: &'a Shared,
    prio: u8,
    issued: u64,
    failed: u64,
}

impl Caller<'_, '_> {
    /// One op: take a message, send the trigger; the three handlers run
    /// on this thread before `send` returns.
    fn op(&mut self, row: u32) {
        self.issued += 1;
        self.shared.stamps.stamp(row, T0);
        let sent = self.ctx.get_message::<MyInteger>("P1").and_then(|mut m| {
            m.value = 1;
            m.row = row;
            self.shared.stamps.stamp(row, T1);
            self.ctx.send("P1", m, Priority::new(self.prio))
        });
        self.shared.stamps.stamp(row, T2);
        if sent.is_err() {
            self.failed += 1;
        }
    }
}

impl Rig {
    /// Runs `f` as the caller inside IMC; returns the ops that failed.
    fn with_caller(&mut self, f: impl FnOnce(&mut Caller<'_, '_>)) -> u64 {
        let shared = Arc::clone(&self.shared);
        let prio = self.prios[0];
        let (issued, failed) = self
            .app
            .with_component("IMC", |ctx| {
                let mut caller = Caller {
                    ctx,
                    shared: &shared,
                    prio,
                    issued: 0,
                    failed: 0,
                };
                f(&mut caller);
                (caller.issued, caller.failed)
            })
            .expect("IMC is immortal");
        self.issued += issued;
        failed
    }

    /// Value chain 1 → 3 → 4 held for every op, and the framework
    /// processed exactly three messages per op.
    fn checks(&self, failed: u64) -> Vec<(&'static str, bool)> {
        let done = self.shared.done.load(Ordering::Relaxed);
        let stats = self.app.stats();
        vec![
            ("no op failed", failed == 0),
            ("every op completed the chain", done == self.issued),
            (
                "value chain 1 -> 3 -> 4",
                self.shared.bad.load(Ordering::Relaxed) == 0,
            ),
            (
                "messages_processed == 3 x ops",
                stats.messages_processed == 3 * self.issued,
            ),
        ]
    }
}

/// Most per-op samples one latency slice keeps (16 MiB of address
/// space, touched only as far as a slice fills it).
const SLICE_SAMPLES: usize = 4 << 20;

/// `between_rounds` is called once before every round (for the set-ups
/// `setup_s` is made of, which are spread over the run this way). The
/// one caller is the whole system here — the three handlers run on its
/// thread and it never waits — so all of the process's CPU time is the
/// system's, and is taken over the saturation slices, where the clock
/// is read once per 32 ops.
pub fn run(rig: &mut Rig, plan: &Plan, between_rounds: &mut dyn FnMut()) -> EndToEnd {
    let mut samples: Vec<u32> = Vec::with_capacity(SLICE_SAMPLES);
    let mut windows = Vec::with_capacity(plan.rounds);
    let mut saturation = Saturation::with_capacity(plan.rounds);
    let mut cpu = SystemCpu::default();
    let plan = *plan;
    let before = rig.app.metrics_text();
    let failed = rig.with_caller(|c| {
        let warm_end = now_ns() + (plan.warm_s * 1e9) as u64;
        while now_ns() < warm_end {
            c.op(UNTRACED);
        }
        for _ in 0..plan.rounds {
            between_rounds();
            // Latency slice: every op timed on its own, then sorted and
            // summarised before the saturation slice opens.
            samples.clear();
            let end = now_ns() + (plan.paced_s * 1e9) as u64;
            loop {
                let t0 = now_ns();
                c.op(UNTRACED);
                let t1 = now_ns();
                if samples.len() < SLICE_SAMPLES {
                    samples.push((t1 - t0).min(u64::from(u32::MAX)) as u32);
                }
                if t1 >= end {
                    break;
                }
            }
            windows.push(stats::window_latency(&mut samples));
            // Saturation slice: back-to-back ops, the clock read once
            // per 32.
            let (process0, issued0) = (meter::process_cpu_ns(), c.issued);
            let slice = Slice::open(plan.sat_s, c.issued);
            let closed_at = loop {
                for _ in 0..32 {
                    c.op(UNTRACED);
                }
                let now = now_ns();
                if slice.over(now) {
                    break now;
                }
            };
            saturation.push(slice.close(closed_at, c.issued));
            cpu.add(meter::process_cpu_ns() - process0, &[], c.issued - issued0);
        }
    });
    EndToEnd {
        attempted: rig.issued,
        failed,
        checks: rig.checks(failed),
        latency: LatencySummary::over(&windows),
        saturation,
        cpu,
        transitions_per_op: super::transitions_per_op(&before, &rig.app.metrics_text(), rig.issued),
    }
}

/// Ops per untraced/traced segment of the traced pass.
const SEGMENT_OPS: usize = 2000;

/// Traced pass: alternates untraced and traced segments until the stamp
/// table is full or `secs` have passed, then measures the observer's
/// tax by alternating it on and off.
pub fn trace(rig: &mut Rig, secs: f64) -> Traced {
    let rows = rig.shared.stamps.rows();
    let mut plain: Vec<u64> = Vec::with_capacity(rows + SEGMENT_OPS);
    let mut lag: Vec<u64> = Vec::with_capacity(rows + SEGMENT_OPS);
    let mut on = Vec::with_capacity(64);
    let mut off = Vec::with_capacity(64);
    let obs = Arc::clone(rig.app.observer());
    let before = rig.app.metrics_text();
    let issued0 = rig.issued;
    let failed = rig.with_caller(|c| {
        let warm_end = now_ns() + (secs * 0.1e9) as u64;
        while now_ns() < warm_end {
            c.op(UNTRACED);
        }
        let end = now_ns() + (secs * 0.5e9) as u64;
        let mut row = 0usize;
        while row < rows && now_ns() < end {
            let mut last_done = 0;
            for i in 0..SEGMENT_OPS.min(rows - row) {
                let t0 = now_ns();
                c.op(UNTRACED);
                let t1 = now_ns();
                plain.push(t1 - t0);
                if i > 0 {
                    // Closed loop: the next op is due when the last one
                    // completes; this is how late the harness issues it.
                    lag.push(t0 - last_done);
                }
                last_done = t1;
            }
            for _ in 0..SEGMENT_OPS.min(rows - row) {
                c.op(row as u32);
                row += 1;
            }
        }
        // Observer tax: the same op with the observer off and on, in
        // alternating 10 ms segments; paired medians.
        let end = now_ns() + (secs * 0.4e9) as u64;
        while now_ns() < end && on.len() < 64 {
            for (enabled, out) in [(false, &mut off), (true, &mut on)] {
                obs.set_enabled(enabled);
                let (t0, n0) = (now_ns(), c.issued);
                while now_ns() - t0 < 10_000_000 {
                    for _ in 0..32 {
                        c.op(UNTRACED);
                    }
                }
                out.push((now_ns() - t0) as f64 / (c.issued - n0) as f64);
            }
        }
        obs.set_enabled(true);
    });
    let after = rig.app.metrics_text();

    let mut spans = SpanSet::default();
    let mut traced: Vec<u64> = Vec::with_capacity(rows);
    for r in 0..rows {
        let Some(t) = rig.shared.stamps.row(r) else {
            continue;
        };
        let op = r as u64;
        traced.push(t[T2] - t[T0]);
        spans.push("core.pool_get", op, t[T0], t[T1], None, 0);
        let call = spans.push("core.send_call", op, t[T1], t[T2], None, 0);
        let p2 = spans.push("handler.P2", op, t[E2], t[X2], Some(call), 0);
        let p4 = spans.push("handler.P4", op, t[E4], t[X4], Some(p2), 0);
        spans.push("handler.P6", op, t[E6], t[X6], Some(p4), 0);
    }
    let mut out = Traced {
        attempted: rig.issued - issued0,
        failed,
        checks: rig.checks(failed),
        ..Traced::default()
    };
    if !traced.is_empty() {
        let path = spans.p50_ns("core.pool_get").unwrap_or(0.0)
            + spans.p50_ns("core.send_call").unwrap_or(0.0);
        out.insert_health(&mut plain, &mut traced, path);
        out.layer
            .insert("bench.gen_lag_p99_us", super::lag_p99_us(&mut lag));
    }
    if !on.is_empty() {
        out.layer.insert(
            "rtobs.tax_share",
            stats::median(&on) / stats::median(&off) - 1.0,
        );
    }
    out.insert_transitions(&before, &after, rig.issued - issued0);
    out.spans = spans;
    out
}
