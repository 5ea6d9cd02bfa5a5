//! Node membership and failover for multi-node deployments.
//!
//! The compiler's deployment phase ([`compadres-compiler`'s
//! `partition`]) lowers cross-node links into exporter/remote pairs
//! addressed by logical endpoint names. This module supplies the
//! runtime half of that story:
//!
//! * [`HeartbeatResponder`] — a trivial echo listener each node runs so
//!   peers can probe it;
//! * [`Membership`] — probes peers over the same TCP transport the data
//!   path uses and drives the `Alive → Suspect → Down` state machine
//!   (consecutive misses, never a single lost probe), journaling every
//!   transition;
//! * [`EndpointResolver`] — the naming-service seam: resolve a logical
//!   endpoint name to an address and rebind it during failover (the
//!   `rtcorba` sharded naming client implements this; [`StaticResolver`]
//!   is the in-process table for tests and single-binary deployments);
//! * [`FailoverSender`] — a [`RemotePort`] with a standby list: when
//!   membership declares the primary down it retargets the port's one
//!   link at the first reachable replica endpoint from the deployment
//!   manifest (frames queued against the dead primary never leave the
//!   port; they flush to the replica) and rebinds the primary name —
//!   exactly once per episode, guarded by a CAS, so two triggers never
//!   produce a split-brain double rebind.
//!
//! Everything is observable: transitions emit `member.*` /
//! `failover.*` / `naming.rebind` flight-recorder events and completed
//! failovers bump the `compadres_failover_total` counter. All
//! transitions are also appended to a [`MembershipLog`] — a plain,
//! cloneable history that the `rtcheck` membership specification checks
//! against its model (no failover without suspicion, rebind exactly
//! once, no split-brain).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rtobs::{CounterId, EventKind, Observer};
use rtplatform::fault::FaultPolicy;
use rtplatform::poll::Acceptor;
use rtplatform::sync::Mutex;

use crate::error::{CompadresError, Result};
use crate::message::Message;
use crate::remote::{RemotePort, LOOPBACK_ANY};
use crate::smm::BytesCodec;
use rtsched::Priority;

fn io_err(e: std::io::Error) -> CompadresError {
    CompadresError::Model(format!("membership I/O failure: {e}"))
}

/// The byte a heartbeat probe sends and expects echoed back.
const HB_BYTE: u8 = 0xA5;

/// Resolves logical endpoint names (as assigned by the compiler's
/// deployment phase, e.g. `"App/hub/H.In"`) to socket addresses, and
/// rebinds them during failover. Implemented by the in-process
/// [`StaticResolver`] and by the `rtcorba` sharded naming client.
pub trait EndpointResolver: Send + Sync {
    /// Looks up the address currently bound to `name`.
    ///
    /// # Errors
    ///
    /// Unknown names and transport failures.
    fn resolve(&self, name: &str) -> Result<SocketAddr>;

    /// Points `name` at a new address (used by failover to move the
    /// primary name onto the promoted replica).
    ///
    /// # Errors
    ///
    /// Transport failures.
    fn rebind(&self, name: &str, addr: SocketAddr) -> Result<()>;
}

/// An in-process [`EndpointResolver`]: a plain name → address table.
#[derive(Default)]
pub struct StaticResolver {
    table: Mutex<std::collections::BTreeMap<String, SocketAddr>>,
}

impl StaticResolver {
    /// An empty table.
    pub fn new() -> StaticResolver {
        StaticResolver::default()
    }

    /// Binds (or rebinds) `name` to `addr`.
    pub fn bind(&self, name: &str, addr: SocketAddr) {
        self.table.lock().insert(name.to_string(), addr);
    }
}

impl EndpointResolver for StaticResolver {
    fn resolve(&self, name: &str) -> Result<SocketAddr> {
        self.table
            .lock()
            .get(name)
            .copied()
            .ok_or_else(|| CompadresError::Model(format!("unresolved endpoint {name:?}")))
    }

    fn rebind(&self, name: &str, addr: SocketAddr) -> Result<()> {
        self.bind(name, addr);
        Ok(())
    }
}

/// What happened to a member or a failover, in the abstract history the
/// `rtcheck` membership specification validates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberEventKind {
    /// The peer answered a probe after not being alive.
    Alive,
    /// The peer missed enough consecutive probes to be suspected.
    Suspect,
    /// The suspected peer was declared down.
    Down,
    /// Failover away from the subject primary endpoint began.
    FailoverStart,
    /// Failover for the subject primary endpoint completed (traffic
    /// flows to a replica).
    FailoverComplete,
    /// The subject logical name was rebound in the naming service.
    Rebind,
}

/// One entry in a [`MembershipLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberEvent {
    /// Nanoseconds since the log's epoch (orders events across the
    /// membership monitor and failover senders sharing the log).
    pub t_ns: u64,
    /// Peer name or endpoint name the event is about.
    pub subject: String,
    /// What happened.
    pub kind: MemberEventKind,
}

/// A shared, append-only history of membership and failover events.
/// Clone it to hand the same timeline to a [`Membership`] monitor and
/// any number of [`FailoverSender`]s.
#[derive(Clone)]
pub struct MembershipLog {
    events: Arc<Mutex<Vec<MemberEvent>>>,
    epoch: Instant,
}

impl Default for MembershipLog {
    fn default() -> Self {
        MembershipLog::new()
    }
}

impl MembershipLog {
    /// An empty log with its epoch at now.
    pub fn new() -> MembershipLog {
        MembershipLog {
            events: Arc::new(Mutex::new(Vec::new())),
            epoch: Instant::now(),
        }
    }

    /// Appends one event stamped against the log's epoch.
    pub fn append(&self, subject: &str, kind: MemberEventKind) {
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        self.events.lock().push(MemberEvent {
            t_ns,
            subject: subject.to_string(),
            kind,
        });
    }

    /// A copy of the history so far, in append order.
    pub fn snapshot(&self) -> Vec<MemberEvent> {
        self.events.lock().clone()
    }
}

/// Echoes heartbeat probes. Every node of a deployment runs one,
/// registered in the naming service under the manifest's
/// `{app}/{node}/#hb` name.
pub struct HeartbeatResponder {
    acceptor: Acceptor,
}

impl HeartbeatResponder {
    /// Binds `127.0.0.1:0`.
    ///
    /// # Errors
    ///
    /// Listener bind failures.
    pub fn bind() -> Result<HeartbeatResponder> {
        Self::bind_to(None)
    }

    /// Binds a specific address (or `127.0.0.1:0` when `None`).
    ///
    /// # Errors
    ///
    /// Listener bind failures.
    pub fn bind_to(addr: Option<SocketAddr>) -> Result<HeartbeatResponder> {
        let listener = TcpListener::bind(addr.unwrap_or(LOOPBACK_ANY)).map_err(io_err)?;
        let acceptor = Acceptor::spawn(listener, "compadres-heartbeat", |mut stream| {
            // Probes are one byte each way over a fresh connection; a
            // stalled prober costs at most the read timeout, never a
            // wedged listener.
            let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
            let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
            let mut b = [0u8; 1];
            while let Ok(()) = stream.read_exact(&mut b) {
                if stream.write_all(&b).is_err() {
                    break;
                }
            }
        })
        .map_err(io_err)?;
        Ok(HeartbeatResponder { acceptor })
    }

    /// The address probes should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.acceptor.local_addr()
    }

    /// Stops answering; the thread is joined on drop.
    pub fn shutdown(&self) {
        self.acceptor.stop();
    }
}

/// Probe cadence and the consecutive-miss thresholds of the
/// `Alive → Suspect → Down` state machine.
#[derive(Debug, Clone)]
pub struct MembershipConfig {
    /// Bound on each probe's connect, send and echo-read.
    pub probe_timeout: Duration,
    /// Consecutive misses before an alive peer becomes suspected.
    pub suspect_after: u32,
    /// Consecutive misses before a suspected peer is declared down.
    /// Must be ≥ `suspect_after`: a peer is always suspected first.
    pub down_after: u32,
    /// Delay between rounds when driven by [`Membership::start`].
    pub probe_interval: Duration,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            probe_timeout: Duration::from_millis(200),
            suspect_after: 2,
            down_after: 4,
            probe_interval: Duration::from_millis(50),
        }
    }
}

/// A peer's place in the membership state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Answering probes (the initial assumption).
    Alive,
    /// Missing probes; not yet actionable.
    Suspect,
    /// Declared down; failover may act on it.
    Down,
}

struct Peer {
    name: String,
    addr: SocketAddr,
    state: MemberState,
    misses: u32,
    last_ok: Option<Instant>,
    entity: u32,
}

/// A peer's externally visible status ([`Membership::status`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerStatus {
    /// Peer name.
    pub name: String,
    /// Current state.
    pub state: MemberState,
    /// Consecutive missed probes.
    pub misses: u32,
}

struct MembershipObs {
    obs: Arc<Observer>,
}

/// Probes peers and drives their membership state, firing registered
/// callbacks when a peer is declared down.
///
/// Rounds can be driven explicitly ([`Membership::probe_round`], the
/// deterministic-test path) or by a background thread
/// ([`Membership::start`]).
pub struct Membership {
    cfg: MembershipConfig,
    peers: Mutex<Vec<Peer>>,
    log: MembershipLog,
    obs: OnceLock<MembershipObs>,
    #[allow(clippy::type_complexity)]
    on_down: Mutex<Vec<Box<dyn Fn(&str) + Send>>>,
    shutdown: Arc<AtomicBool>,
    ticker: Mutex<Option<JoinHandle<()>>>,
}

impl Membership {
    /// A monitor over `log` with no peers yet.
    pub fn new(cfg: MembershipConfig, log: MembershipLog) -> Membership {
        assert!(
            cfg.down_after >= cfg.suspect_after,
            "a peer must be suspected before it can be declared down"
        );
        Membership {
            cfg,
            peers: Mutex::new(Vec::new()),
            log,
            obs: OnceLock::new(),
            on_down: Mutex::new(Vec::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            ticker: Mutex::new(None),
        }
    }

    /// Wires `member.*` flight-recorder events into `obs`. Call at most
    /// once; later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>) {
        let _ = self.obs.set(MembershipObs {
            obs: Arc::clone(obs),
        });
    }

    /// Adds a peer to probe, assumed alive until proven otherwise.
    pub fn add_peer(&self, name: &str, addr: SocketAddr) {
        let entity = self
            .obs
            .get()
            .map(|o| o.obs.register_entity(&format!("member:{name}")))
            .unwrap_or(0);
        self.peers.lock().push(Peer {
            name: name.to_string(),
            addr,
            state: MemberState::Alive,
            misses: 0,
            last_ok: None,
            entity,
        });
    }

    /// Registers a callback fired (once) when a peer transitions to
    /// [`MemberState::Down`], with the peer's name.
    pub fn on_down(&self, f: impl Fn(&str) + Send + 'static) {
        self.on_down.lock().push(Box::new(f));
    }

    /// The shared event history.
    pub fn log(&self) -> &MembershipLog {
        &self.log
    }

    /// Current status of every peer.
    pub fn status(&self) -> Vec<PeerStatus> {
        self.peers
            .lock()
            .iter()
            .map(|p| PeerStatus {
                name: p.name.clone(),
                state: p.state,
                misses: p.misses,
            })
            .collect()
    }

    fn probe(addr: SocketAddr, timeout: Duration) -> std::io::Result<Duration> {
        let start = Instant::now();
        let mut s = TcpStream::connect_timeout(&addr, timeout)?;
        s.set_nodelay(true)?;
        s.set_read_timeout(Some(timeout))?;
        s.set_write_timeout(Some(timeout))?;
        s.write_all(&[HB_BYTE])?;
        let mut b = [0u8; 1];
        s.read_exact(&mut b)?;
        if b[0] != HB_BYTE {
            return Err(std::io::Error::other("bad heartbeat echo"));
        }
        Ok(start.elapsed())
    }

    /// Probes every peer once and applies the state machine. Returns
    /// the names of peers newly declared down this round (callbacks
    /// have already fired for them).
    pub fn probe_round(&self) -> Vec<String> {
        let mut newly_down = Vec::new();
        {
            let mut peers = self.peers.lock();
            for p in peers.iter_mut() {
                match Self::probe(p.addr, self.cfg.probe_timeout) {
                    Ok(rtt) => {
                        p.misses = 0;
                        p.last_ok = Some(Instant::now());
                        if p.state != MemberState::Alive {
                            p.state = MemberState::Alive;
                            self.log.append(&p.name, MemberEventKind::Alive);
                            if let Some(o) = self.obs.get() {
                                o.obs.record(
                                    EventKind::MemberAlive,
                                    p.entity,
                                    rtt.as_nanos() as u64,
                                );
                            }
                        }
                    }
                    Err(_) => {
                        p.misses += 1;
                        if p.state == MemberState::Alive && p.misses >= self.cfg.suspect_after {
                            p.state = MemberState::Suspect;
                            self.log.append(&p.name, MemberEventKind::Suspect);
                            if let Some(o) = self.obs.get() {
                                o.obs.record(
                                    EventKind::MemberSuspect,
                                    p.entity,
                                    u64::from(p.misses),
                                );
                            }
                        }
                        if p.state == MemberState::Suspect && p.misses >= self.cfg.down_after {
                            p.state = MemberState::Down;
                            self.log.append(&p.name, MemberEventKind::Down);
                            if let Some(o) = self.obs.get() {
                                let silent_ns = p
                                    .last_ok
                                    .map(|t| t.elapsed().as_nanos() as u64)
                                    .unwrap_or(0);
                                o.obs.record(EventKind::MemberDown, p.entity, silent_ns);
                            }
                            newly_down.push(p.name.clone());
                        }
                    }
                }
            }
        }
        // Callbacks run outside the peers lock: they typically trigger
        // failover, which may itself consult membership.
        if !newly_down.is_empty() {
            let cbs = self.on_down.lock();
            for name in &newly_down {
                for cb in cbs.iter() {
                    cb(name);
                }
            }
        }
        newly_down
    }

    /// Spawns a background thread probing every `probe_interval` until
    /// [`Membership::stop`] (or drop). Requires `self: Arc` so the
    /// thread shares the monitor.
    pub fn start(self: &Arc<Self>) {
        let mut ticker = self.ticker.lock();
        if ticker.is_some() {
            return;
        }
        let me = Arc::clone(self);
        let shutdown = Arc::clone(&self.shutdown);
        let interval = self.cfg.probe_interval;
        *ticker = Some(
            std::thread::Builder::new()
                .name("compadres-membership".into())
                .spawn(move || {
                    while !shutdown.load(Ordering::SeqCst) {
                        me.probe_round();
                        std::thread::sleep(interval);
                    }
                })
                .expect("spawn membership ticker"),
        );
    }

    /// Stops the background prober, if running.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.ticker.lock().take() {
            let _ = h.join();
        }
    }
}

impl Drop for Membership {
    fn drop(&mut self) {
        self.stop();
    }
}

struct FailoverObs {
    obs: Arc<Observer>,
    entity: u32,
    failovers: CounterId,
}

/// A sending stub with a standby list: traffic flows to the primary
/// endpoint until [`FailoverSender::fail_over`] promotes the first
/// reachable replica from the deployment manifest.
pub struct FailoverSender<M> {
    primary: String,
    failover_names: Vec<String>,
    resolver: Arc<dyn EndpointResolver>,
    port: RemotePort<M>,
    active: Mutex<String>,
    failed_over: AtomicBool,
    failovers: AtomicU64,
    log: MembershipLog,
    obs: OnceLock<FailoverObs>,
}

impl<M: Message + BytesCodec> FailoverSender<M> {
    /// Resolves `primary` and connects to it; `failover_names` are the
    /// replica endpoints (from the manifest) tried in order when the
    /// primary is declared down.
    ///
    /// # Errors
    ///
    /// Resolution or connection failures for the primary.
    pub fn connect(
        primary: &str,
        failover_names: Vec<String>,
        resolver: Arc<dyn EndpointResolver>,
        policy: FaultPolicy,
        log: MembershipLog,
    ) -> Result<FailoverSender<M>> {
        let addr = resolver.resolve(primary)?;
        Ok(FailoverSender {
            port: RemotePort::connect_with(addr, policy)?,
            primary: primary.to_string(),
            failover_names,
            resolver,
            active: Mutex::new(primary.to_string()),
            failed_over: AtomicBool::new(false),
            failovers: AtomicU64::new(0),
            log,
            obs: OnceLock::new(),
        })
    }

    /// Wires `failover.*` events and the `compadres_failover_total`
    /// counter into `obs`; also attaches `obs` to the underlying remote
    /// port. Call at most once; later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>) {
        let _ = self.obs.set(FailoverObs {
            entity: obs.register_entity(&format!("failover:{}", self.primary)),
            failovers: obs.counter("compadres_failover_total"),
            obs: Arc::clone(obs),
        });
        self.port.set_observer(obs);
    }

    /// Sends via whichever endpoint is currently active. Degradation
    /// semantics are the underlying [`RemotePort::send`]'s.
    ///
    /// # Errors
    ///
    /// See [`RemotePort::send`].
    pub fn send(&self, msg: &M, priority: impl Into<Priority>) -> Result<()> {
        self.port.send(msg, priority)
    }

    /// The endpoint name traffic currently flows to.
    pub fn active_endpoint(&self) -> String {
        self.active.lock().clone()
    }

    /// Completed failovers.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// Promotes the first reachable replica: retargets the port at it
    /// (which flushes any frames queued against the dead primary, in
    /// order) and rebinds the primary name to the replica's address.
    /// Guarded to run at most once per episode — a second (concurrent or
    /// later) trigger returns the already-active endpoint without
    /// touching the naming service, so one kill never produces two
    /// rebinds.
    ///
    /// # Errors
    ///
    /// No replica configured or none reachable, or the rebind failed. In
    /// each case the episode is not complete and the guard is released,
    /// so a later trigger retries it.
    pub fn fail_over(&self) -> Result<String> {
        if self.failed_over.swap(true, Ordering::SeqCst) {
            return Ok(self.active_endpoint());
        }
        let outcome = self.promote_replica();
        if outcome.is_err() {
            self.failed_over.store(false, Ordering::SeqCst);
        }
        outcome
    }

    fn promote_replica(&self) -> Result<String> {
        let started = Instant::now();
        self.log
            .append(&self.primary, MemberEventKind::FailoverStart);
        if let Some(o) = self.obs.get() {
            o.obs.record(EventKind::FailoverStart, o.entity, 0);
        }
        for (idx, name) in self.failover_names.iter().enumerate() {
            let Ok(addr) = self.resolver.resolve(name) else {
                continue;
            };
            if self.port.retarget(addr).is_err() {
                continue;
            }
            *self.active.lock() = name.clone();
            self.resolver.rebind(&self.primary, addr)?;
            self.log.append(&self.primary, MemberEventKind::Rebind);
            self.log
                .append(&self.primary, MemberEventKind::FailoverComplete);
            self.failovers.fetch_add(1, Ordering::Relaxed);
            if let Some(o) = self.obs.get() {
                o.obs.inc(o.failovers);
                o.obs.record(EventKind::NamingRebind, o.entity, idx as u64);
                o.obs.record(
                    EventKind::FailoverComplete,
                    o.entity,
                    started.elapsed().as_nanos() as u64,
                );
            }
            return Ok(name.clone());
        }
        Err(CompadresError::Model(format!(
            "failover from {:?}: no reachable replica among {:?}",
            self.primary, self.failover_names
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::remote::PortExporter;
    use crate::runtime::{App, HandlerCtx};
    use std::sync::mpsc;

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Sample {
        v: i64,
    }

    impl BytesCodec for Sample {
        fn encode(&self, out: &mut Vec<u8>) {
            self.v.encode(out);
        }
        fn decode(bytes: &[u8]) -> Self {
            Sample {
                v: i64::decode(bytes),
            }
        }
    }

    fn sink_app(tag: &str) -> (Arc<App>, mpsc::Receiver<i64>) {
        let cdl = r#"
          <Component><ComponentName>Sink</ComponentName>
            <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Sample</MessageType></Port>
          </Component>"#;
        let ccl = format!(
            r#"<Application><ApplicationName>{tag}</ApplicationName>
            <Component><InstanceName>S</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
              <Connection><Port><PortName>In</PortName>
                <PortAttributes><BufferSize>64</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>1</MaxThreadpoolSize></PortAttributes>
              </Port></Connection>
            </Component></Application>"#
        );
        let (tx, rx) = mpsc::channel();
        let app = AppBuilder::from_xml(cdl, &ccl)
            .unwrap()
            .bind_message_type::<Sample>("Sample")
            .register_handler("Sink", "In", move || {
                let tx = tx.clone();
                move |msg: &mut Sample, _ctx: &mut HandlerCtx<'_>| {
                    let _ = tx.send(msg.v);
                    Ok(())
                }
            })
            .build()
            .unwrap();
        app.start().unwrap();
        (Arc::new(app), rx)
    }

    #[test]
    fn static_resolver_resolves_and_rebinds() {
        let r = StaticResolver::new();
        let a1: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let a2: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        assert!(r.resolve("x").is_err());
        r.bind("x", a1);
        assert_eq!(r.resolve("x").unwrap(), a1);
        r.rebind("x", a2).unwrap();
        assert_eq!(r.resolve("x").unwrap(), a2);
    }

    #[test]
    fn heartbeat_probe_round_trips() {
        let hb = HeartbeatResponder::bind().unwrap();
        let m = Membership::new(MembershipConfig::default(), MembershipLog::new());
        m.add_peer("n1", hb.local_addr());
        assert!(m.probe_round().is_empty());
        let st = m.status();
        assert_eq!(st[0].state, MemberState::Alive);
        assert_eq!(st[0].misses, 0);
        // Probes stay clean across rounds and the log stays silent: an
        // alive peer staying alive is not a transition.
        assert!(m.probe_round().is_empty());
        assert!(m.log().snapshot().is_empty());
    }

    #[test]
    fn missed_probes_suspect_then_down_and_recover() {
        // A bound-then-dropped listener gives a port that refuses
        // connections fast.
        let hb = HeartbeatResponder::bind().unwrap();
        let addr = hb.local_addr();
        drop(hb);

        let cfg = MembershipConfig {
            suspect_after: 2,
            down_after: 3,
            ..MembershipConfig::default()
        };
        let m = Membership::new(cfg, MembershipLog::new());
        m.add_peer("n1", addr);
        let fired = Arc::new(AtomicU64::new(0));
        let fired2 = Arc::clone(&fired);
        m.on_down(move |peer| {
            assert_eq!(peer, "n1");
            fired2.fetch_add(1, Ordering::SeqCst);
        });

        assert!(m.probe_round().is_empty()); // miss 1: still alive
        assert_eq!(m.status()[0].state, MemberState::Alive);
        assert!(m.probe_round().is_empty()); // miss 2: suspect
        assert_eq!(m.status()[0].state, MemberState::Suspect);
        assert_eq!(m.probe_round(), vec!["n1".to_string()]); // miss 3: down
        assert_eq!(m.status()[0].state, MemberState::Down);
        assert!(m.probe_round().is_empty(), "down fires only once");
        assert_eq!(fired.load(Ordering::SeqCst), 1);

        // Resurrect the responder on the same address: next round
        // transitions back to alive.
        let _hb = HeartbeatResponder::bind_to(Some(addr)).unwrap();
        assert!(m.probe_round().is_empty());
        assert_eq!(m.status()[0].state, MemberState::Alive);

        let kinds: Vec<MemberEventKind> = m.log().snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                MemberEventKind::Suspect,
                MemberEventKind::Down,
                MemberEventKind::Alive
            ]
        );
    }

    #[test]
    fn failover_promotes_replica_and_rebinds_once() {
        let (app, rx) = sink_app("FailoverSink");
        let primary = PortExporter::bind::<Sample>(&app, "S", "In").unwrap();
        let standby = PortExporter::bind::<Sample>(&app, "S", "In").unwrap();

        let resolver = Arc::new(StaticResolver::new());
        resolver.bind("App/hub/S.In", primary.local_addr());
        resolver.bind("App/standby/S.In", standby.local_addr());

        let log = MembershipLog::new();
        let sender = FailoverSender::<Sample>::connect(
            "App/hub/S.In",
            vec!["App/standby/S.In".to_string()],
            Arc::clone(&resolver) as Arc<dyn EndpointResolver>,
            FaultPolicy::default(),
            log.clone(),
        )
        .unwrap();
        sender.send(&Sample { v: 1 }, Priority::NORM).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);
        assert_eq!(sender.active_endpoint(), "App/hub/S.In");

        primary.shutdown();
        let promoted = sender.fail_over().unwrap();
        assert_eq!(promoted, "App/standby/S.In");
        assert_eq!(sender.active_endpoint(), "App/standby/S.In");
        assert_eq!(sender.failovers(), 1);
        // The primary name now resolves to the standby's address.
        assert_eq!(
            resolver.resolve("App/hub/S.In").unwrap(),
            standby.local_addr()
        );
        // A second trigger is a no-op: still one failover, one rebind.
        assert_eq!(sender.fail_over().unwrap(), "App/standby/S.In");
        assert_eq!(sender.failovers(), 1);

        sender.send(&Sample { v: 2 }, Priority::NORM).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), 2);

        let kinds: Vec<MemberEventKind> = log.snapshot().iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                MemberEventKind::FailoverStart,
                MemberEventKind::Rebind,
                MemberEventKind::FailoverComplete
            ]
        );
    }

    /// A resolver whose first `rebind` fails, as a naming shard that is
    /// itself mid-failover would.
    struct FlakyResolver(Arc<StaticResolver>, AtomicBool);

    impl EndpointResolver for FlakyResolver {
        fn resolve(&self, name: &str) -> Result<SocketAddr> {
            self.0.resolve(name)
        }
        fn rebind(&self, name: &str, addr: SocketAddr) -> Result<()> {
            if self.1.swap(false, Ordering::SeqCst) {
                return Err(CompadresError::Model("naming shard unreachable".into()));
            }
            self.0.rebind(name, addr)
        }
    }

    type Exported = (PortExporter, mpsc::Receiver<i64>);

    /// A primary and a standby exporter, each on a sink app of its own
    /// and bound in `table`, and a sender connected through `resolver`.
    fn failover_rig(
        table: &StaticResolver,
        resolver: Arc<dyn EndpointResolver>,
        policy: FaultPolicy,
        log: MembershipLog,
    ) -> ([Exported; 2], FailoverSender<Sample>) {
        let exporters = ["App/hub/S.In", "App/standby/S.In"].map(|name| {
            let (app, rx) = sink_app(name);
            let exporter = PortExporter::bind::<Sample>(&app, "S", "In").unwrap();
            table.bind(name, exporter.local_addr());
            (exporter, rx)
        });
        let standbys = vec!["App/standby/S.In".to_string()];
        let sender =
            FailoverSender::connect("App/hub/S.In", standbys, resolver, policy, log).unwrap();
        (exporters, sender)
    }

    #[test]
    fn failed_rebind_leaves_the_episode_open_for_the_next_trigger() {
        let table = Arc::new(StaticResolver::new());
        let resolver = Arc::new(FlakyResolver(Arc::clone(&table), AtomicBool::new(true)));
        let log = MembershipLog::new();
        let ([(primary, _), (standby, standby_rx)], sender) = failover_rig(
            &table,
            Arc::clone(&resolver) as Arc<dyn EndpointResolver>,
            FaultPolicy::default(),
            log.clone(),
        );
        let resolved = || resolver.resolve("App/hub/S.In").unwrap();
        primary.shutdown();

        assert!(sender.fail_over().is_err(), "the rebind failure surfaces");
        assert_eq!((sender.failovers(), resolved()), (0, primary.local_addr()));
        // The next trigger finishes the job instead of reporting an
        // episode that never completed as done; the one after is a no-op.
        assert_eq!(sender.fail_over().unwrap(), "App/standby/S.In");
        assert_eq!(sender.fail_over().unwrap(), "App/standby/S.In");
        assert_eq!((sender.failovers(), resolved()), (1, standby.local_addr()));
        let logged = |kind| log.snapshot().iter().filter(|e| e.kind == kind).count();
        assert_eq!(logged(MemberEventKind::Rebind), 1);
        assert_eq!(logged(MemberEventKind::FailoverComplete), 1);
        sender.send(&Sample { v: 5 }, Priority::NORM).unwrap();
        assert_eq!(standby_rx.recv_timeout(Duration::from_secs(5)).unwrap(), 5);
    }

    #[test]
    fn failover_flushes_the_queue_to_the_replica_in_order_exactly_once() {
        let resolver = Arc::new(StaticResolver::new());
        let policy = FaultPolicy {
            degrade: rtplatform::fault::DegradeMode::DropOldest,
            pending_cap: 4,
            ..FaultPolicy::tight()
        };
        let ([(primary, primary_rx), (_standby, standby_rx)], sender) = failover_rig(
            &resolver,
            Arc::clone(&resolver) as Arc<dyn EndpointResolver>,
            policy,
            MembershipLog::new(),
        );
        let port = &sender.port;
        sender.send(&Sample { v: 1 }, Priority::NORM).unwrap();
        assert_eq!(primary_rx.recv_timeout(Duration::from_secs(5)).unwrap(), 1);

        // Kill the primary. A write or two can still vanish into the
        // dead socket before the RST comes back (that is TCP, not the
        // queue), so send canaries until one is queued: from then on the
        // link is down and nothing more touches the wire.
        drop(primary);
        const CANARY: i64 = -1;
        for _ in 0..200 {
            sender.send(&Sample { v: CANARY }, Priority::NORM).unwrap();
            if port.pending() > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(port.pending(), 1, "the primary never went away");
        // Six more against a queue of four: the canary, 10 and 11 are
        // shed, 12..=15 wait.
        for v in 10..=15 {
            sender.send(&Sample { v }, Priority::NORM).unwrap();
        }
        let sent_before = port.sent();
        assert_eq!((port.pending(), port.sheds()), (4, 3));

        assert_eq!(sender.fail_over().unwrap(), "App/standby/S.In");
        assert_eq!(port.pending(), 0, "failover flushed the queue");
        sender.send(&Sample { v: 16 }, Priority::NORM).unwrap();
        let arrived: Vec<i64> = (0..5)
            .map(|_| standby_rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(arrived, vec![12, 13, 14, 15, 16]);
        let late = standby_rx.recv_timeout(Duration::from_millis(200));
        assert!(late.is_err(), "nothing arrives twice");
        assert!(primary_rx.try_iter().all(|v| v == CANARY));
        // One port, one set of counters: they carry on across the
        // failover instead of restarting with a fresh port.
        assert!(sent_before >= 1);
        assert_eq!((port.sent(), port.sheds()), (sent_before + 5, 3));
        assert_eq!(port.reconnects(), 1, "the retarget dial");
    }
}
