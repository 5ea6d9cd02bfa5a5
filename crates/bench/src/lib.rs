//! Shared workloads for the Compadres experiment harness.
//!
//! The central piece is [`Fig6App`], the paper's co-located client–server
//! round-trip benchmark (Fig. 6): an `ImmortalComponent` (IMC) triggers a
//! scoped `Client` via port P1→P2; the client timestamps, sends a request
//! P3→P4 to its sibling `Server`; the server replies P5→P6; the client's
//! P6 handler timestamps again. The round-trip latency is ts₁ − ts₀,
//! collected over 10 000 steady-state observations (§3.1).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use compadres_core::{App, AppBuilder, ChildHandle, HandlerCtx, Priority};
use rtplatform::sync::Mutex;
use std::sync::Arc;

/// The strongly-typed message of the paper's example (`MyInteger`).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MyInteger {
    /// The payload value.
    pub value: i32,
}

const FIG6_CDL: &str = r#"
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

fn fig6_ccl(port_attrs: &str) -> String {
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
        <Port><PortName>P2</PortName><PortAttributes>{port_attrs}</PortAttributes></Port>
        <Port><PortName>P3</PortName>
          <Link><PortType>External</PortType><ToComponent>MyServer</ToComponent><ToPort>P4</ToPort></Link>
        </Port>
        <Port><PortName>P6</PortName><PortAttributes>{port_attrs}</PortAttributes></Port>
      </Connection>
    </Component>
    <Component>
      <InstanceName>MyServer</InstanceName>
      <ClassName>Server</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>P4</PortName><PortAttributes>{port_attrs}</PortAttributes></Port>
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

/// Dispatch mode of the Fig. 6 in-ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// `Min = Max = 0`: the sender's thread executes handlers.
    Synchronous,
    /// Buffered dispatch through a small thread pool.
    Asynchronous,
}

/// The paper's Fig. 6 application, instrumented for round-trip latency.
pub struct Fig6App {
    app: App,
    rx: mpsc::Receiver<Duration>,
    _keepalive: Vec<ChildHandle>,
}

impl std::fmt::Debug for Fig6App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Fig6App")
    }
}

impl Fig6App {
    /// Builds and starts the application.
    ///
    /// `keep_alive` connects the Client and Server components so their
    /// scopes persist across round trips (the steady-state benchmark
    /// configuration); without it, every message re-materializes them.
    ///
    /// # Panics
    ///
    /// Panics if the composition fails to build (programming error).
    pub fn new(mode: DispatchMode, keep_alive: bool) -> Fig6App {
        let attrs = match mode {
            DispatchMode::Synchronous => {
                "<MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize>"
            }
            DispatchMode::Asynchronous => {
                "<BufferSize>10</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>5</MaxThreadpoolSize>"
            }
        };
        let (tx, rx) = mpsc::channel();
        let ts0: Arc<Mutex<Option<Instant>>> = Arc::new(Mutex::new(None));
        let ts0_p2 = Arc::clone(&ts0);
        let ts0_p6 = Arc::clone(&ts0);
        let app = AppBuilder::from_xml(FIG6_CDL, &fig6_ccl(attrs))
            .expect("fig6 documents parse")
            .bind_message_type::<MyInteger>("MyInteger")
            .register_handler("Client", "P2", move || {
                // P2_MessageHandler: take ts_0, send the request (paper
                // Fig. 7).
                let ts0 = Arc::clone(&ts0_p2);
                move |_msg: &mut MyInteger, ctx: &mut HandlerCtx<'_>| {
                    let mut req = ctx.get_message::<MyInteger>("P3")?;
                    req.value = 3;
                    *ts0.lock() = Some(Instant::now());
                    ctx.send("P3", req, Priority::new(3))
                }
            })
            .register_handler("Server", "P4", || {
                // P4_MessageHandler: reply via P5 (paper Fig. 8).
                |_msg: &mut MyInteger, ctx: &mut HandlerCtx<'_>| {
                    let mut reply = ctx.get_message::<MyInteger>("P5")?;
                    reply.value = 4;
                    ctx.send("P5", reply, Priority::new(3))
                }
            })
            .register_handler("Client", "P6", move || {
                // P6_MessageHandler: take ts_1.
                let ts0 = Arc::clone(&ts0_p6);
                let tx = tx.clone();
                move |_msg: &mut MyInteger, _ctx: &mut HandlerCtx<'_>| {
                    if let Some(start) = ts0.lock().take() {
                        let _ = tx.send(start.elapsed());
                    }
                    Ok(())
                }
            })
            .build()
            .expect("fig6 composition valid");
        app.start().expect("fig6 app starts");
        let keepalive = if keep_alive {
            vec![
                app.connect("MyClient").expect("connect client"),
                app.connect("MyServer").expect("connect server"),
            ]
        } else {
            Vec::new()
        };
        Fig6App {
            app,
            rx,
            _keepalive: keepalive,
        }
    }

    /// Triggers one round trip (IMC sends the trigger message through P1)
    /// and returns the measured client-side latency ts₁ − ts₀.
    ///
    /// # Panics
    ///
    /// Panics if the round trip does not complete within five seconds.
    pub fn round_trip(&self) -> Duration {
        self.app
            .with_component("IMC", |ctx| {
                let mut trigger = ctx.get_message::<MyInteger>("P1").expect("trigger message");
                trigger.value = 1;
                // "Send trigger msg with priority 2" (paper Fig. 7).
                ctx.send("P1", trigger, Priority::new(2))
                    .expect("trigger send");
            })
            .expect("imc runs");
        self.rx
            .recv_timeout(Duration::from_secs(5))
            .expect("round trip completes")
    }

    /// The underlying application (for stats).
    pub fn app(&self) -> &App {
        &self.app
    }
}

/// Approximate bytes a JVM would allocate per Fig. 6 round trip: three
/// message sends, handler frames, and marshalling temporaries. Used to
/// drive the GC model of the JDK 1.4 platform.
pub const FIG6_ALLOC_PER_ROUND_TRIP: usize = 3 * 64 + 512;

/// Formats a duration in microseconds with one decimal.
pub fn us(d: Duration) -> String {
    format!("{:.1}", d.as_nanos() as f64 / 1_000.0)
}

/// Timing harness of the `benches/` report mains (`cargo bench` runs
/// them with `harness = false`): the paper's steady-state protocol
/// ([`rtsched::SteadyState`]) with the case name in front of its
/// [`rtsched::LatencySummary`].
pub mod harness {
    use std::time::Instant;

    use rtsched::SteadyState;

    /// Times `f` for `iters` iterations after a 10% warmup and prints
    /// the summary.
    pub fn run(name: &str, iters: usize, f: impl FnMut()) {
        let protocol = SteadyState {
            warmup: (iters / 10).max(1),
            observations: iters,
        };
        println!("{name:<44} {}", protocol.run_timed(f).summary());
    }

    /// Like [`run`] but with untimed per-iteration setup: each iteration
    /// times only `routine(setup())`.
    pub fn run_batched<T>(
        name: &str,
        iters: usize,
        mut setup: impl FnMut() -> T,
        mut routine: impl FnMut(T),
    ) {
        let protocol = SteadyState {
            warmup: 1,
            observations: iters,
        };
        let rec = protocol.run(|| {
            let input = setup();
            let t = Instant::now();
            routine(input);
            t.elapsed()
        });
        println!("{name:<44} {}", rec.summary());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_round_trip_sync() {
        let app = Fig6App::new(DispatchMode::Synchronous, true);
        for _ in 0..20 {
            let d = app.round_trip();
            assert!(d < Duration::from_millis(100));
        }
        let stats = app.app().stats();
        assert_eq!(stats.messages_processed, 60, "three hops per round trip");
    }

    #[test]
    fn fig6_round_trip_async() {
        let app = Fig6App::new(DispatchMode::Asynchronous, true);
        for _ in 0..20 {
            let _ = app.round_trip();
        }
        assert!(app.app().wait_quiescent(Duration::from_secs(5)));
    }

    #[test]
    fn fig6_ephemeral_mode_reactivates() {
        let app = Fig6App::new(DispatchMode::Synchronous, false);
        let _ = app.round_trip();
        let _ = app.round_trip();
        assert!(app.app().activations_of("MyServer").unwrap() >= 2);
    }
}
