//! Micro-probes: one hot loop per layer function, timed from outside
//! through the layer's public surface, at the sizes the workloads use.
//! Single-thread probes report the median over batches of calls;
//! cross-thread probes (they say so) report the median over single
//! hand-offs spaced like the paced workloads' arrivals.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Cursor;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use compadres_core::{
    parse_ccl, parse_cdl, validate, AdmissionPolicy, App, AppBuilder, CompadresError, HandlerCtx,
    Priority,
};
use rtcorba::cdr::Endian;
use rtcorba::giop::{self, MessageView};
use rtcorba::service::ObjectRegistry;
use rtmem::{Ctx, MemoryModel, ScopePool};
use rtobs::{EventKind, Observer};
use rtplatform::bufchain::{BufChain, RecvChain, SegPool, DEFAULT_SEG_SIZE};
use rtplatform::park::Gate;
use rtplatform::ring::MpmcRing;
use rtsched::{PoolConfig, PriorityFifo, ThreadPool};

use crate::pacer::{now_ns, wait_until};
use crate::stats::median;
use crate::workloads::local_sync::{self, MyInteger};

/// Calls a single-thread probe makes unless its time budget ends first.
const CALLS: usize = 200_000;
const BATCH: usize = 1_000;
/// Spacing of cross-thread hand-offs: `local_async`'s inter-arrival
/// time, so the receiving thread is in the state it is in there.
const HANDOFF_GAP_NS: u64 = 100_000;

/// Median ns per call of `f` over batches of `batch` calls, stopping at
/// [`CALLS`] calls or after `budget_ns`.
fn per_call_ns(budget_ns: u64, batch: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..batch.min(100) {
        f();
    }
    let mut per_call = Vec::with_capacity(CALLS / batch + 1);
    let end = now_ns() + budget_ns;
    while per_call.len() * batch < CALLS {
        let t0 = now_ns();
        for _ in 0..batch {
            f();
        }
        let t1 = now_ns();
        per_call.push((t1 - t0) as f64 / batch as f64);
        if t1 >= end {
            break;
        }
    }
    median(&per_call)
}

/// Source → Sink with the given Sink port attributes and an empty
/// (or plugged) handler: the smallest assembly with one delivery.
fn one_hop_app(attrs: &str, admission: AdmissionPolicy, plug: Option<Arc<AtomicBool>>) -> App {
    let cdl = r#"
<Components>
  <Component><ComponentName>Source</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
  <Component><ComponentName>Sink</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>MyInteger</MessageType></Port>
  </Component>
</Components>"#;
    let ccl = format!(
        r#"
<Application><ApplicationName>OneHop</ApplicationName>
  <Component><InstanceName>TheSource</InstanceName><ClassName>Source</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection><Port><PortName>Out</PortName>
      <Link><PortType>Internal</PortType><ToComponent>TheSink</ToComponent><ToPort>In</ToPort></Link>
    </Port></Connection>
    <Component><InstanceName>TheSink</InstanceName><ClassName>Sink</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection><Port><PortName>In</PortName><PortAttributes>{attrs}</PortAttributes></Port></Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    );
    let app = AppBuilder::from_xml(cdl, &ccl)
        .expect("one-hop documents parse")
        .bind_message_type::<MyInteger>("MyInteger")
        .port_admission("TheSink", "In", admission)
        .register_handler("Sink", "In", move || {
            let plug = plug.clone();
            move |_msg: &mut MyInteger, _ctx: &mut HandlerCtx<'_>| {
                if let Some(plug) = &plug {
                    while plug.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                }
                Ok(())
            }
        })
        .build()
        .expect("one-hop composition is valid");
    app.start().expect("one-hop app starts");
    app
}

fn get_and_send(ctx: &mut HandlerCtx<'_>, prio: u8) -> Result<(), CompadresError> {
    let msg = ctx.get_message::<MyInteger>("Out")?;
    ctx.send("Out", msg, Priority::new(prio))
}

fn wait_processed(app: &App, n: u64) {
    while app.stats().messages_processed < n {
        std::thread::yield_now();
    }
}

/// `core` probes that need a running assembly. The send probes time
/// `get_message` + `send` and subtract the `get_message` + drop probe,
/// leaving the delivery itself.
fn core_delivery(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    const SYNC: &str =
        "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>";
    let app = one_hop_app(SYNC, AdmissionPolicy::disabled(), None);
    let _keep = app.connect("TheSink").expect("sink stays connected");
    let (get, sync) = app
        .with_component("TheSource", |ctx| {
            let get = per_call_ns(budget_ns, BATCH, || {
                drop(black_box(ctx.get_message::<MyInteger>("Out")));
            });
            let both = per_call_ns(budget_ns, BATCH, || {
                let _ = black_box(get_and_send(ctx, 3));
            });
            (get, both - get)
        })
        .expect("source is immortal");
    out.insert("core.pool_get_ns", get);
    out.insert("core.sync_deliver_ns", sync);

    // Asynchronous port: bursts of 256 into a buffer of 1024 while the
    // worker drains; only the caller's side is timed.
    const ASYNC: &str = "<BufferSize>1024</BufferSize>\
        <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>";
    let app = one_hop_app(ASYNC, AdmissionPolicy::disabled(), None);
    let _keep = app.connect("TheSink").expect("sink stays connected");
    let mut sent = 0u64;
    let mut per_call = Vec::with_capacity(CALLS / 256 + 1);
    let end = now_ns() + budget_ns;
    app.with_component("TheSource", |ctx| {
        while (sent as usize) < CALLS && now_ns() < end {
            let t0 = now_ns();
            for _ in 0..256 {
                let _ = black_box(get_and_send(ctx, 3));
            }
            per_call.push((now_ns() - t0) as f64 / 256.0);
            sent += 256;
            wait_processed(&app, sent);
        }
    })
    .expect("source is immortal");
    out.insert("core.async_send_ns", median(&per_call) - get);

    // Refusal: plug the single worker, fill the buffer to the low
    // band's watermark, then time sends that are shed.
    const BANDED: &str = "<BufferSize>256</BufferSize>\
        <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>";
    let plug = Arc::new(AtomicBool::new(true));
    let app = one_hop_app(
        BANDED,
        AdmissionPolicy::banded(10, 40),
        Some(Arc::clone(&plug)),
    );
    let _keep = app.connect("TheSink").expect("sink stays connected");
    let refusal = app
        .with_component("TheSource", |ctx| {
            let mut admitted = 0;
            while get_and_send(ctx, 1).is_ok() {
                admitted += 1;
                assert!(
                    admitted <= 256,
                    "the low band must be shed at its watermark"
                );
            }
            per_call_ns(budget_ns, BATCH, || {
                let refused = get_and_send(ctx, 1);
                debug_assert!(matches!(refused, Err(CompadresError::Shed { .. })));
                let _ = black_box(refused);
            })
        })
        .expect("source is immortal");
    plug.store(false, Ordering::Release);
    out.insert("core.shed_refusal_ns", refusal - get);
}

fn noop_handler(
) -> impl FnMut(&mut MyInteger, &mut HandlerCtx<'_>) -> compadres_core::Result<()> + Send {
    |_, _| Ok(())
}

/// Parse, validate, build and start the Fig. 6 assembly.
fn core_setup(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let ccl_text = local_sync::ccl();
    let us = |ns: f64| ns / 1e3;
    out.insert(
        "rtxml.parse_us",
        us(per_call_ns(budget_ns, 10, || {
            black_box(rtxml::parse(black_box(&ccl_text)).expect("CCL is well-formed"));
        })),
    );
    out.insert(
        "core.parse_validate_us",
        us(per_call_ns(budget_ns, 10, || {
            let cdl = parse_cdl(local_sync::CDL).expect("CDL parses");
            let ccl = parse_ccl(&ccl_text).expect("CCL parses");
            black_box(validate(&cdl, &ccl).expect("composition is valid"));
        })),
    );
    let cdl = parse_cdl(local_sync::CDL).expect("CDL parses");
    let ccl = parse_ccl(&ccl_text).expect("CCL parses");
    let mut samples = Vec::with_capacity(256);
    let end = now_ns() + budget_ns;
    while samples.len() < 256 && (samples.len() < 5 || now_ns() < end) {
        let builder = AppBuilder::from_model(cdl.clone(), ccl.clone())
            .bind_message_type::<MyInteger>("MyInteger");
        let builder = builder
            .register_handler("Client", "P2", noop_handler)
            .register_handler("Server", "P4", noop_handler)
            .register_handler("Client", "P6", noop_handler);
        let t0 = now_ns();
        let app = builder.build().expect("composition builds");
        app.start().expect("app starts");
        let keep = (app.connect("MyClient"), app.connect("MyServer"));
        samples.push((now_ns() - t0) as f64);
        drop(keep);
    }
    out.insert("core.build_start_us", us(median(&samples)));
}

fn rtmem_probes(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let model = MemoryModel::new();
    let pool = ScopePool::new(&model, 1, 131_072, 2).expect("scope pool");
    out.insert(
        "rtmem.scope_lease_ns",
        per_call_ns(budget_ns, BATCH, || {
            drop(black_box(pool.acquire()));
        }),
    );
    let lease = pool.acquire().expect("a free scope");
    let mut ctx = Ctx::no_heap(&model);
    out.insert(
        "rtmem.enter_ns",
        per_call_ns(budget_ns, BATCH, || {
            let _ = black_box(ctx.enter(lease.region(), |_| {}));
        }),
    );
}

fn rtsched_probes(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let fifo: PriorityFifo<u64> = PriorityFifo::new();
    let prio = Priority::new(20);
    out.insert(
        "rtsched.fifo_push_pop_ns",
        per_call_ns(budget_ns, BATCH, || {
            fifo.push(prio, 7);
            black_box(fifo.try_pop());
        }),
    );
    // Filled to the low band's watermark (128 of 256): every further
    // low-band push is refused.
    let admission = AdmissionPolicy::banded(10, 40);
    let low = Priority::new(1);
    while fifo.push_bounded(low, 0, 256, &admission).is_ok() {}
    out.insert(
        "rtsched.push_bounded_refuse_ns",
        per_call_ns(budget_ns, BATCH, || {
            let _ = black_box(fifo.push_bounded(low, 0, 256, &admission));
        }),
    );

    // Cross-thread: submit → job entry on the pool's one worker.
    let pool: ThreadPool<()> = ThreadPool::new(
        PoolConfig {
            min_threads: 1,
            max_threads: 1,
            ..PoolConfig::default()
        },
        || (),
    );
    let entered = Arc::new(AtomicU64::new(0));
    let mut samples = Vec::with_capacity(4096);
    let end = now_ns() + budget_ns;
    while samples.len() < samples.capacity() && now_ns() < end {
        wait_until(now_ns() + HANDOFF_GAP_NS);
        entered.store(0, Ordering::Relaxed);
        let cell = Arc::clone(&entered);
        let t0 = now_ns();
        pool.execute(prio, move |_, _| cell.store(now_ns(), Ordering::Release));
        let at = loop {
            match entered.load(Ordering::Acquire) {
                0 => std::hint::spin_loop(),
                at => break at,
            }
        };
        samples.push(at.saturating_sub(t0) as f64);
    }
    out.insert("rtsched.pool_execute_us", median(&samples) / 1e3);
}

fn rtplatform_probes(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let ring: MpmcRing<u64> = MpmcRing::new(64);
    out.insert(
        "rtplatform.ring_push_pop_ns",
        per_call_ns(budget_ns, BATCH, || {
            let _ = ring.push(7);
            black_box(ring.pop());
        }),
    );

    // Cross-thread: `notify_one` → the parked waiter is running again.
    let gate = Arc::new(Gate::new());
    let flag = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    let woke = Arc::new(AtomicU64::new(0));
    let waiter = {
        let (gate, flag, stop, woke) = (
            Arc::clone(&gate),
            Arc::clone(&flag),
            Arc::clone(&stop),
            Arc::clone(&woke),
        );
        std::thread::spawn(move || loop {
            gate.wait(None, || flag.load(Ordering::Acquire));
            let at = now_ns();
            if stop.load(Ordering::Acquire) {
                return;
            }
            flag.store(false, Ordering::Release);
            woke.store(at, Ordering::Release);
        })
    };
    let mut samples = Vec::with_capacity(4096);
    let end = now_ns() + budget_ns;
    while samples.len() < samples.capacity() && now_ns() < end {
        wait_until(now_ns() + HANDOFF_GAP_NS);
        woke.store(0, Ordering::Relaxed);
        let t0 = now_ns();
        flag.store(true, Ordering::Release);
        gate.notify_one();
        let at = loop {
            match woke.load(Ordering::Acquire) {
                0 => std::hint::spin_loop(),
                at => break at,
            }
        };
        samples.push(at.saturating_sub(t0) as f64);
    }
    stop.store(true, Ordering::Release);
    flag.store(true, Ordering::Release);
    gate.notify_one();
    waiter.join().expect("gate waiter");
    out.insert("rtplatform.gate_wake_us", median(&samples) / 1e3);

    // Buffer chains, sized as the ORB sizes them: 16 × 4 KiB segments
    // on the encode side, 16 × 64 KiB (`read_chunk`) on the receive side.
    let pool = SegPool::new(16, DEFAULT_SEG_SIZE);
    out.insert(
        "rtplatform.seg_lease_ns",
        per_call_ns(budget_ns, BATCH, || {
            drop(black_box(pool.lease()));
        }),
    );
    let payload = vec![0x5Au8; 64 << 10];
    out.insert(
        "rtplatform.chain_build_64k_ns",
        per_call_ns(budget_ns, 20, || {
            let mut chain = BufChain::with_headroom(&pool, giop::HEADER_LEN);
            chain.put(black_box(&payload));
            chain.prepend(&[0u8; giop::HEADER_LEN]);
            black_box(chain.into_frame());
        }),
    );
    let recv_pool = SegPool::new(16, 64 << 10);
    let mut chain = RecvChain::new(&recv_pool);
    out.insert(
        "rtplatform.reassemble_64k_ns",
        per_call_ns(budget_ns, 20, || {
            let mut wire = Cursor::new(&payload[..]);
            while chain.len() < payload.len() {
                chain.read_from(&mut wire).expect("cursor reads");
            }
            black_box(chain.take_frame(payload.len()));
        }),
    );
}

fn rtobs_probes(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let obs = Observer::new();
    let entity = obs.register_entity("probe");
    out.insert(
        "rtobs.record_ns",
        per_call_ns(budget_ns, BATCH, || {
            obs.record(EventKind::PortEnqueue, entity, 1);
        }),
    );
    let counter = obs.counter("probe_total");
    out.insert(
        "rtobs.counter_inc_ns",
        per_call_ns(budget_ns, BATCH, || {
            obs.inc(counter);
        }),
    );
}

fn rtcorba_probes(budget_ns: u64, out: &mut BTreeMap<&'static str, f64>) {
    let pool = SegPool::new(16, DEFAULT_SEG_SIZE);
    let endian = Endian::native();
    let registry = ObjectRegistry::with_echo();
    for (bytes, encode, decode) in [
        (64, "rtcorba.encode_req_64_ns", "rtcorba.decode_view_64_ns"),
        (
            64 << 10,
            "rtcorba.encode_req_64k_ns",
            "rtcorba.decode_view_64k_ns",
        ),
    ] {
        let payload = vec![0x5Au8; bytes];
        let batch = if bytes > 1024 { 20 } else { BATCH };
        let request =
            || giop::encode_request_chain(9, true, b"echo", "echo", &payload, &[], endian, &pool);
        out.insert(
            encode,
            per_call_ns(budget_ns, batch, || {
                black_box(request());
            }),
        );
        let frame = request();
        let parts = frame.slices();
        out.insert(
            decode,
            per_call_ns(budget_ns, batch, || {
                black_box(giop::decode_view(black_box(&parts)).expect("frame decodes"));
            }),
        );
        if bytes == 64 {
            let Ok(MessageView::Request(req)) = giop::decode_view(&parts) else {
                panic!("a request frame decodes to a request");
            };
            out.insert(
                "rtcorba.dispatch_view_ns",
                per_call_ns(budget_ns, BATCH, || {
                    black_box(registry.dispatch_view(black_box(&req)));
                }),
            );
        }
    }
}

/// Runs every micro-probe within about `secs` in total.
pub fn run(secs: f64) -> BTreeMap<&'static str, f64> {
    // 27 timed loops share the budget.
    let budget_ns = (secs * 1e9 / 27.0) as u64;
    let mut out = BTreeMap::new();
    core_setup(budget_ns, &mut out);
    core_delivery(budget_ns, &mut out);
    rtmem_probes(budget_ns, &mut out);
    rtsched_probes(budget_ns, &mut out);
    rtplatform_probes(budget_ns, &mut out);
    rtobs_probes(budget_ns, &mut out);
    rtcorba_probes(budget_ns, &mut out);
    out
}
