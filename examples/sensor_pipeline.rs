//! A distributed real-time embedded scenario of the kind the paper's
//! introduction motivates: a sensor front-end feeding a filter that raises
//! prioritized alarms toward an actuator, composed hierarchically —
//! `Station` (immortal) ⊃ `Acquisition` ⊃ {`Sensor`, `Filter`} with the
//! `Actuator` as `Acquisition`'s sibling.
//!
//! Demonstrates: 3-level composition, asynchronous ports with bounded
//! buffers and priority inheritance (alarms overtake routine readings),
//! a shadow-port connection (the Filter, two levels deep, reports directly
//! to the Station), an alarm path relayed through the parent (children may
//! only talk to parents, siblings and ancestors — paper §2.2), and
//! steady-state jitter measurement.
//!
//! Run with: `cargo run --release --example sensor_pipeline`

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use compadres_core::{AppBuilder, HandlerCtx, Priority};
use rtsched::LatencyRecorder;

/// Deterministic sensor signal with occasional spikes.
fn signal(seq: u64) -> f64 {
    50.0 + 30.0 * ((seq as f64) / 17.0).sin() + if seq.is_multiple_of(97) { 40.0 } else { 0.0 }
}

#[derive(Debug, Default, Clone)]
struct Reading {
    sensor_id: u32,
    value: f64,
    seq: u64,
}

#[derive(Debug, Default, Clone)]
struct Alarm {
    sensor_id: u32,
    value: f64,
}

#[derive(Debug, Default, Clone)]
struct HealthReport {
    processed: u64,
}

const CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Station</ComponentName>
    <Port><PortName>Tick</PortName><PortType>Out</PortType><MessageType>Reading</MessageType></Port>
    <Port><PortName>Health</PortName><PortType>In</PortType><MessageType>HealthReport</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Acquisition</ComponentName>
    <Port><PortName>Tick</PortName><PortType>In</PortType><MessageType>Reading</MessageType></Port>
    <Port><PortName>RawOut</PortName><PortType>Out</PortType><MessageType>Reading</MessageType></Port>
    <Port><PortName>AlarmIn</PortName><PortType>In</PortType><MessageType>Alarm</MessageType></Port>
    <Port><PortName>AlarmFwd</PortName><PortType>Out</PortType><MessageType>Alarm</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Sensor</ComponentName>
    <Port><PortName>Sample</PortName><PortType>In</PortType><MessageType>Reading</MessageType></Port>
    <Port><PortName>Out</PortName><PortType>Out</PortType><MessageType>Reading</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Filter</ComponentName>
    <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Reading</MessageType></Port>
    <Port><PortName>AlarmOut</PortName><PortType>Out</PortType><MessageType>Alarm</MessageType></Port>
    <Port><PortName>Report</PortName><PortType>Out</PortType><MessageType>HealthReport</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Actuator</ComponentName>
    <Port><PortName>Alarm</PortName><PortType>In</PortType><MessageType>Alarm</MessageType></Port>
  </Component>
</Components>"#;

const CCL: &str = r#"
<Application>
  <ApplicationName>SensorPipeline</ApplicationName>
  <Component>
    <InstanceName>TheStation</InstanceName>
    <ClassName>Station</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>Tick</PortName>
        <Link><PortType>Internal</PortType><ToComponent>Acq</ToComponent><ToPort>Tick</ToPort></Link>
      </Port>
      <Port><PortName>Health</PortName>
        <PortAttributes>
          <BufferSize>4</BufferSize>
          <MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize>
        </PortAttributes>
      </Port>
    </Connection>
    <Component>
      <InstanceName>Acq</InstanceName>
      <ClassName>Acquisition</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Tick</PortName>
          <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
        </Port>
        <Port><PortName>RawOut</PortName>
          <Link><PortType>Internal</PortType><ToComponent>Probe</ToComponent><ToPort>Sample</ToPort></Link>
        </Port>
        <Port><PortName>AlarmIn</PortName>
          <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
        </Port>
        <Port><PortName>AlarmFwd</PortName>
          <Link><PortType>External</PortType><ToComponent>Arm</ToComponent><ToPort>Alarm</ToPort></Link>
        </Port>
      </Connection>
      <Component>
        <InstanceName>Probe</InstanceName>
        <ClassName>Sensor</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
        <Connection>
          <Port><PortName>Sample</PortName>
            <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
          </Port>
          <Port><PortName>Out</PortName>
            <Link><ToComponent>Sieve</ToComponent><ToPort>In</ToPort></Link>
          </Port>
        </Connection>
      </Component>
      <Component>
        <InstanceName>Sieve</InstanceName>
        <ClassName>Filter</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
        <Connection>
          <Port><PortName>In</PortName>
            <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
          </Port>
          <Port><PortName>AlarmOut</PortName>
            <Link><PortType>Internal</PortType><ToComponent>Acq</ToComponent><ToPort>AlarmIn</ToPort></Link>
          </Port>
          <Port><PortName>Report</PortName>
            <Link><ToComponent>TheStation</ToComponent><ToPort>Health</ToPort></Link>
          </Port>
        </Connection>
      </Component>
    </Component>
    <Component>
      <InstanceName>Arm</InstanceName>
      <ClassName>Actuator</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Alarm</PortName>
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
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
    <ScopedPool><ScopeLevel>2</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>3</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (alarm_tx, alarm_rx) = mpsc::channel::<(u32, f64, Priority)>();
    let processed = Arc::new(AtomicU32::new(0));
    let processed2 = Arc::clone(&processed);

    let app = AppBuilder::from_xml(CDL, CCL)?
        .bind_message_type::<Reading>("Reading")
        .bind_message_type::<Alarm>("Alarm")
        .bind_message_type::<HealthReport>("HealthReport")
        .register_handler("Acquisition", "Tick", || {
            |msg: &mut Reading, ctx: &mut HandlerCtx<'_>| {
                let mut raw = ctx.get_message::<Reading>("RawOut")?;
                *raw = msg.clone();
                ctx.send("RawOut", raw, ctx.priority())
            }
        })
        .register_handler("Acquisition", "AlarmIn", || {
            // Alarm relay: a grandchild may not address its uncle directly
            // (paper scope rules), so the parent forwards to its sibling.
            |msg: &mut Alarm, ctx: &mut HandlerCtx<'_>| {
                let mut fwd = ctx.get_message::<Alarm>("AlarmFwd")?;
                *fwd = msg.clone();
                ctx.send("AlarmFwd", fwd, ctx.priority())
            }
        })
        .register_handler("Sensor", "Sample", || {
            |msg: &mut Reading, ctx: &mut HandlerCtx<'_>| {
                // Simulated ADC conversion: shape the raw value.
                let mut out = ctx.get_message::<Reading>("Out")?;
                out.sensor_id = msg.sensor_id;
                out.seq = msg.seq;
                out.value = msg.value * 0.98 + 0.5;
                ctx.send("Out", out, ctx.priority())
            }
        })
        .register_handler("Filter", "In", || {
            let mut count = 0u64;
            move |msg: &mut Reading, ctx: &mut HandlerCtx<'_>| {
                count += 1;
                // Threshold filter: out-of-range values raise prioritized
                // alarms; alarms inherit a higher priority than readings.
                if msg.value > 75.0 {
                    let mut alarm = ctx.get_message::<Alarm>("AlarmOut")?;
                    alarm.sensor_id = msg.sensor_id;
                    alarm.value = msg.value;
                    let priority = if msg.value > 90.0 {
                        Priority::new(50)
                    } else {
                        Priority::new(20)
                    };
                    ctx.send("AlarmOut", alarm, priority)?;
                }
                // Every 64 readings, report health directly to the Station
                // through the shadow-port connection (two levels up).
                if count.is_multiple_of(64) {
                    let mut report = ctx.get_message::<HealthReport>("Report")?;
                    report.processed = count;
                    ctx.send("Report", report, Priority::new(5))?;
                }
                Ok(())
            }
        })
        .register_handler("Actuator", "Alarm", move || {
            let tx = alarm_tx.clone();
            move |msg: &mut Alarm, _ctx: &mut HandlerCtx<'_>| {
                let _ = tx.send((msg.sensor_id, msg.value, rtsched::current_priority()));
                Ok(())
            }
        })
        .register_handler("Station", "Health", move || {
            let processed = Arc::clone(&processed2);
            move |msg: &mut HealthReport, _ctx: &mut HandlerCtx<'_>| {
                processed.store(msg.processed as u32, Ordering::SeqCst);
                Ok(())
            }
        })
        .build()?;

    // Opt into per-entry scope events so the flight recorder shows the
    // full enqueue→dequeue→handler→scope lifecycle (off by default to
    // keep steady-state overhead down).
    app.observer().set_verbose(true);

    app.start()?;
    // Keep the pipeline resident for the run.
    let keep = [
        app.connect("Acq")?,
        app.connect("Probe")?,
        app.connect("Sieve")?,
        app.connect("Arm")?,
    ];

    // Drive the pipeline from a periodic releaser (the RTSJ
    // PeriodicParameters analog): one reading every 500 µs.
    const READINGS: u64 = 512;
    println!("sensor pipeline running; sampling {READINGS} readings periodically…");
    let mut alarms_expected = 0u32;
    for seq in 0..READINGS {
        let value = signal(seq);
        // The Sensor component transforms the raw value before the Filter
        // thresholds it; predict with the same transformation.
        if value * 0.98 + 0.5 > 75.0 {
            alarms_expected += 1;
        }
    }
    let app = Arc::new(app);
    let app2 = Arc::clone(&app);
    let latencies = Arc::new(rtplatform::sync::Mutex::new(LatencyRecorder::new()));
    let latencies2 = Arc::clone(&latencies);
    let seq = Arc::new(AtomicU32::new(0));
    let seq2 = Arc::clone(&seq);
    let sampler = rtsched::PeriodicTimer::spawn(
        "sampler",
        Duration::from_micros(500),
        Priority::new(10),
        move || {
            let n = seq2.fetch_add(1, Ordering::SeqCst) as u64;
            if n >= READINGS {
                return;
            }
            latencies2.lock().time(|| {
                app2.with_component("TheStation", |ctx| {
                    let mut tick = ctx.get_message::<Reading>("Tick").expect("tick message");
                    tick.sensor_id = 1;
                    tick.seq = n;
                    tick.value = signal(n);
                    ctx.send("Tick", tick, Priority::new(10))
                        .expect("tick send");
                })
                .expect("station runs");
            });
        },
    );
    while seq.load(Ordering::SeqCst) < READINGS as u32 {
        std::thread::sleep(Duration::from_millis(10));
    }
    if let Some(release_jitter) = sampler.jitter_summary() {
        println!(
            "sampler release jitter: median {:?}, max {:?} ({} overruns)",
            release_jitter.median,
            release_jitter.max,
            sampler.overruns()
        );
    }
    sampler.stop();
    app.wait_quiescent(Duration::from_secs(10));

    let mut alarms = Vec::new();
    while let Ok(a) = alarm_rx.recv_timeout(Duration::from_millis(200)) {
        alarms.push(a);
    }
    let high = alarms
        .iter()
        .filter(|(_, _, p)| *p >= Priority::new(50))
        .count();
    println!(
        "alarms delivered: {} ({} high-priority), expected {}",
        alarms.len(),
        high,
        alarms_expected
    );
    println!("health counter: {}", processed.load(Ordering::SeqCst));
    println!("injection latency: {}", latencies.lock().summary());
    let stats = app.stats();
    println!(
        "framework stats: sent={} processed={} rejected={} errors={} panics={} activations={}",
        stats.messages_sent,
        stats.messages_processed,
        stats.buffer_rejections,
        stats.handler_errors,
        stats.handler_panics,
        stats.activations
    );
    // Every alarm is either delivered or visibly rejected by the bounded
    // buffer (never silently lost).
    assert_eq!(
        alarms.len() as u64 + stats.buffer_rejections,
        alarms_expected as u64
    );

    // ---- observability readout ----------------------------------------
    println!();
    println!("=== metrics registry (App::metrics_text) ===");
    print!("{}", app.metrics_text());

    // Dropping the keep-alive handles deactivates the scoped instances:
    // their pooled scopes are released back and reclaimed (epoch bump),
    // which the flight recorder captures as the end of the trace.
    drop(keep);
    app.wait_quiescent(Duration::from_secs(5));

    println!();
    println!("=== flight recorder tail (Observer::trace_text) ===");
    print!("{}", app.observer().trace_text(40));

    use rtobs::EventKind;
    let events = app.observer().events();
    for kind in [
        EventKind::PortEnqueue,
        EventKind::PortDequeue,
        EventKind::HandlerStart,
        EventKind::SpanEnd,
        EventKind::ScopeEnter,
        EventKind::PoolRelease,
        EventKind::ScopeReclaim,
    ] {
        assert!(
            events.iter().any(|e| e.kind == kind),
            "flight recorder missing {kind:?}"
        );
    }
    println!("trace covers enqueue -> dequeue -> handler -> scope-reclaim");
    Ok(())
}
