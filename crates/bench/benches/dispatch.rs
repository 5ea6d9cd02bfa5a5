//! Ablation **A4** (paper §2.2): synchronous versus asynchronous port
//! dispatch.
//!
//! With `MinThreadpoolSize = MaxThreadpoolSize = 0` the sender's thread
//! executes the handler in place; otherwise the message is buffered and a
//! pool worker (inheriting the message priority) picks it up. Synchronous
//! dispatch avoids the queue + wakeup cost; asynchronous dispatch
//! decouples the sender. The paper exposes both through the CCL.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use compadres_bench::harness::run;
use compadres_core::{App, AppBuilder, HandlerCtx, Priority};
use rtsched::{LatencyRecorder, PriorityFifo};

#[derive(Debug, Default, Clone)]
struct Tick {
    seq: u64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Producer</ComponentName>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Tick</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Consumer</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Tick</MessageType></Port>
  </Component>
</Components>"#;

fn ccl(attrs: &str) -> String {
    format!(
        r#"
<Application>
  <ApplicationName>DispatchBench</ApplicationName>
  <Component>
    <InstanceName>Root</InstanceName>
    <ClassName>Producer</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Out</PortName>
        <Link><ToComponent>Sink</ToComponent><ToPort>In</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>Sink</InstanceName>
      <ClassName>Consumer</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>In</PortName><PortAttributes>{attrs}</PortAttributes></Port>
      </Connection>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>8000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#
    )
}

fn build(attrs: &str) -> (App, mpsc::Receiver<u64>, compadres_core::ChildHandle) {
    let (tx, rx) = mpsc::channel();
    let app = AppBuilder::from_xml(CDL, &ccl(attrs))
        .unwrap()
        .bind_message_type::<Tick>("Tick")
        .register_handler("Consumer", "In", move || {
            let tx = tx.clone();
            move |msg: &mut Tick, _ctx: &mut HandlerCtx<'_>| {
                let _ = tx.send(msg.seq);
                Ok(())
            }
        })
        .build()
        .unwrap();
    app.start().unwrap();
    let keep = app.connect("Sink").unwrap();
    (app, rx, keep)
}

fn one_message(app: &App, rx: &mpsc::Receiver<u64>, seq: u64) {
    app.with_component("Root", |ctx| {
        let mut m = ctx.get_message::<Tick>("Out").unwrap();
        m.seq = seq;
        ctx.send("Out", m, Priority::new(7)).unwrap();
    })
    .unwrap();
    let got = rx.recv_timeout(Duration::from_secs(5)).unwrap();
    assert_eq!(got, seq);
}

const SESSION_PRODUCERS: usize = 4;
const SESSION_WORKERS: usize = 4;
const SESSION_MSGS_PER_PRODUCER: u64 = 5_000;
const SESSION_TOTAL: u64 = SESSION_PRODUCERS as u64 * SESSION_MSGS_PER_PRODUCER;

/// Contended dispatch sessions straight on the lock-free queue: each
/// session, 4 producer threads flood it while 4 persistent workers
/// drain it, and the session ends once every message has been popped.
fn bench_contended_sessions(iters: usize) {
    let q: Arc<PriorityFifo<u64>> = Arc::new(PriorityFifo::new());
    let done = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..SESSION_WORKERS)
        .map(|_| {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            std::thread::spawn(move || loop {
                let batch = q.pop_batch(8);
                if batch.is_empty() {
                    break;
                }
                let n = batch.len() as u64;
                for (_, item) in batch {
                    std::hint::black_box(item);
                }
                done.fetch_add(n, Ordering::SeqCst);
            })
        })
        .collect();
    let mut sessions = LatencyRecorder::with_capacity(iters);
    for _ in 0..iters {
        done.store(0, Ordering::SeqCst);
        let t = Instant::now();
        let producers: Vec<_> = (0..SESSION_PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    for i in 0..SESSION_MSGS_PER_PRODUCER {
                        // Mixed priorities to exercise the band scan.
                        q.push(Priority::new(10 + ((p as u64 + i) % 4) as u8), i);
                    }
                })
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        while done.load(Ordering::SeqCst) < SESSION_TOTAL {
            std::thread::yield_now();
        }
        sessions.record(t.elapsed());
    }
    q.close();
    for w in workers {
        w.join().unwrap();
    }
    let s = sessions.summary();
    let per_msg = s.median.as_nanos() as f64 / SESSION_TOTAL as f64;
    let throughput = SESSION_TOTAL as f64 / s.median.as_secs_f64();
    println!(
        "{:<44} {per_msg:>9.1} ns/msg  {throughput:>12.0} msg/s  ({SESSION_TOTAL} msgs per session)",
        "contended 4p/4w lock-free"
    );
    println!("{:<44} {s}", "  per session");
}

/// Latency side of the queue conversion: a single-producer /
/// single-worker ping-pong through two `PriorityFifo`s, no app
/// machinery. Measures the idle-queue handoff cost the spin-then-park
/// policy is tuned around.
fn bench_queue_roundtrip(iters: usize) {
    let q: Arc<PriorityFifo<u64>> = Arc::new(PriorityFifo::new());
    let r: Arc<PriorityFifo<u64>> = Arc::new(PriorityFifo::new());
    let (q2, r2) = (Arc::clone(&q), Arc::clone(&r));
    let w = std::thread::spawn(move || {
        while let Some((_, v)) = q2.pop() {
            r2.push(Priority::NORM, v);
        }
    });
    let mut seq = 0u64;
    run("queue roundtrip 1p/1w", iters, || {
        q.push(Priority::NORM, seq);
        assert_eq!(r.pop().unwrap().1, seq);
        seq += 1;
    });
    q.close();
    w.join().unwrap();
}

fn main() {
    // Keep freed memory mapped: glibc's adaptive arena trim otherwise
    // charges page-refault churn to whichever case allocates next (see
    // EXPERIMENTS.md "msgpass shared_object/1024 cliff").
    rtplatform::heap::retain_freed_memory();

    println!("== dispatch: synchronous vs asynchronous port dispatch ==");

    let (sync_app, sync_rx, _k1) =
        build("<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>");
    let mut seq = 0u64;
    run("synchronous", 5_000, || {
        seq += 1;
        one_message(&sync_app, &sync_rx, seq);
    });

    let (async_app, async_rx, _k2) = build(
        "<BufferSize>16</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize>",
    );
    let mut seq = 0u64;
    run("asynchronous", 5_000, || {
        seq += 1;
        one_message(&async_app, &async_rx, seq);
    });

    println!("== dispatch: queue round-trip, idle handoff ==");
    bench_queue_roundtrip(5_000);

    println!("== dispatch: contended queue, 4 producers x 4 workers ==");
    bench_contended_sessions(120);
}
