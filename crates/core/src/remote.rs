//! Transparent remote communication between Compadres applications.
//!
//! The paper leaves this as future work ("code generation for
//! transparently handling remote communication over a network", §5) and
//! notes in §1 that "at a higher level, applications may be distributed in
//! a network". This module implements that layer: a pair of endpoints that
//! splice a typed port connection across a TCP link.
//!
//! * [`PortExporter`] — binds a listener and injects every received
//!   message into a local component's in-port (with the sender's declared
//!   priority);
//! * [`RemotePort`] — the sending stub: looks like an out-port, encodes
//!   messages with [`BytesCodec`] and ships them.
//!
//! Each message crosses as the ORBs' frames do: a GIOP oneway `Request`
//! to the object key `port` ([`rtplatform::giop`]), its body the
//! message's [`BytesCodec`] bytes, its priority in RT-CORBA's
//! `RTCorbaPriority` service context ([`giop::PRIORITY_CONTEXT_SLOT`]) and,
//! when the send is traced, the sender's trace context in
//! [`giop::TRACE_CONTEXT_SLOT`] (DESIGN.md §5g): the exporter adopts it
//! ([`Observer::adopt_remote`]) with the budget re-anchored to its own
//! clock. [`giop::MAX_BODY`] is the one frame limit. Type identity is
//! checked at the receiving side against the in-port's bound Rust type,
//! so a mismatched pairing fails loudly, not silently.
//!
//! ## Fault model
//!
//! Both endpoints honour a [`FaultPolicy`] (DESIGN.md §"Fault model").
//! The sender runs on the one resumable [`Link`]: it bounds every dial
//! and write with the policy's connect/send deadlines, and the link
//! retries with decorrelated-jitter backoff and redials after a broken
//! pipe. What the port adds is what happens once the retry budget is
//! spent — it degrades per [`DegradeMode`]: fail the caller, shed the
//! message, or queue it (bounded, oldest-out) for resend on reconnect.
//! The receiver arms the recv deadline on every connection so a peer
//! that stalls *mid-frame* costs at most one deadline, never a wedged
//! thread; a deadline at a frame boundary is just an idle link. Retries,
//! reconnects, sheds and deadline misses are counted in `rtobs` when an
//! observer is attached ([`RemotePort::set_observer`]; the exporter uses
//! its app's observer automatically).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use rtobs::{CounterId, EventKind, GaugeId, Observer};
use rtplatform::bufchain::{FrameBuf, SegPool};
use rtplatform::cdr::Endian;
use rtplatform::fault::{DegradeMode, FaultPolicy};
use rtplatform::giop::{self, MessageView, HEADER_LEN, PRIORITY_CONTEXT_SLOT, TRACE_CONTEXT_SLOT};
use rtplatform::sync::Mutex;
use rtplatform::transport::{Connection, TcpConn, TcpServer, TransportError};

use crate::error::{CompadresError, Result};
use crate::link::{Link, LinkState};
use crate::message::Message;
use crate::runtime::App;
use crate::smm::BytesCodec;
use rtsched::Priority;

/// The object key every remote-port frame is addressed to, and its
/// operation.
const PORT_KEY: &[u8] = b"port";
const PORT_OP: &str = "push";

/// `127.0.0.1:0`: loopback, port chosen by the kernel.
pub(crate) const LOOPBACK_ANY: SocketAddr =
    SocketAddr::new(std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST), 0);

fn io_err(e: impl std::fmt::Display) -> CompadresError {
    CompadresError::Model(format!("remote link I/O failure: {e}"))
}

/// What the exporter and its threads share. The [`Link`] carries the
/// policy and counts the deadline misses: an exporter has no connection
/// of its own to retry, so the counting half is all it uses.
struct ExportShared {
    app: Arc<App>,
    instance: String,
    port: String,
    obs: Arc<Observer>,
    entity: u32,
    rx_frames: CounterId,
    rx_rejected: CounterId,
    conns_live: GaugeId,
    link: Link,
    received: AtomicU64,
    rejected: AtomicU64,
}

/// Serves a local in-port to the network: every message received on the
/// socket is injected into `instance.port` as if a local component had
/// sent it.
pub struct PortExporter {
    server: TcpServer,
    shared: Arc<ExportShared>,
}

impl std::fmt::Debug for PortExporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PortExporter({})", self.local_addr())
    }
}

/// What the exporter injects from one frame: the priority, the sender's
/// trace context (`(trace_id, parent_span, budget_ns)`, as
/// [`giop::decode_trace_slot`] reads it) and the message body.
type PortFrame<'a> = (Priority, Option<(u32, u16, u64)>, Cow<'a, [u8]>);

/// Decodes one frame (its bytes as [`giop::decode_view`] takes them) into
/// a [`PortFrame`]. `None` — the connection is dropped — for anything
/// but a `Request` to [`PORT_KEY`]. Service contexts are advisory: a
/// missing or malformed priority slot reads as [`Priority::NORM`], a
/// missing or malformed trace slot as untraced.
fn decode_port_frame<'a>(parts: &'a [&'a [u8]]) -> Option<PortFrame<'a>> {
    let Ok(MessageView::Request(req)) = giop::decode_view(parts) else {
        return None;
    };
    if *req.object_key != *PORT_KEY {
        return None;
    }
    let priority = req
        .service_context
        .iter()
        .find(|(id, _)| *id == PRIORITY_CONTEXT_SLOT)
        .and_then(|(_, value)| Some(u16::from_be_bytes((*value).try_into().ok()?)))
        .map_or(Priority::NORM, |p| {
            Priority::new(u8::try_from(p).unwrap_or(u8::MAX))
        });
    Some((priority, req.trace_context(), req.body))
}

impl PortExporter {
    /// Binds `127.0.0.1:0` and starts accepting senders for
    /// `instance.port` under the default [`FaultPolicy`].
    ///
    /// # Errors
    ///
    /// Fails if the port does not exist, is bound to a different type, or
    /// the listener cannot bind.
    pub fn bind<M: Message + BytesCodec>(
        app: &Arc<App>,
        instance: &str,
        port: &str,
    ) -> Result<PortExporter> {
        Self::bind_to::<M>(app, instance, port, None, FaultPolicy::default())
    }

    /// Binds `127.0.0.1:0` under an explicit [`FaultPolicy`] (its
    /// `recv_timeout` bounds how long a stalled sender can hold a
    /// connection thread mid-frame).
    ///
    /// # Errors
    ///
    /// Same as [`PortExporter::bind`].
    pub fn bind_with<M: Message + BytesCodec>(
        app: &Arc<App>,
        instance: &str,
        port: &str,
        policy: FaultPolicy,
    ) -> Result<PortExporter> {
        Self::bind_to::<M>(app, instance, port, None, policy)
    }

    /// Binds a *specific* address (or `127.0.0.1:0` when `None`) —
    /// needed to restart an exporter at an address senders already hold.
    ///
    /// # Errors
    ///
    /// Same as [`PortExporter::bind`], plus bind failures for `addr`.
    pub fn bind_to<M: Message + BytesCodec>(
        app: &Arc<App>,
        instance: &str,
        port: &str,
        addr: Option<SocketAddr>,
        policy: FaultPolicy,
    ) -> Result<PortExporter> {
        // Fail fast on unknown ports / wrong types with a probe message.
        let _ = app.port_attrs(instance, port)?;
        let listener = TcpListener::bind(addr.unwrap_or(LOOPBACK_ANY)).map_err(io_err)?;
        let observer = Arc::clone(app.observer());
        let entity_name = format!("export:{instance}.{port}");
        let link = Link::new(policy);
        link.set_observer(&observer, &entity_name);
        let shared = Arc::new(ExportShared {
            app: Arc::clone(app),
            instance: instance.to_string(),
            port: port.to_string(),
            entity: observer.register_entity(&entity_name),
            rx_frames: observer.counter("remote_rx_frames_total"),
            rx_rejected: observer.counter("remote_rx_rejected_total"),
            conns_live: observer.gauge("remote_conns_live"),
            obs: observer,
            link,
            received: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        });

        let sh = Arc::clone(&shared);
        let name = format!("compadres-export-{instance}-{port}");
        let server = TcpServer::spawn(listener, &name, move |conn| serve_conn::<M>(&sh, conn))
            .map_err(io_err)?;
        Ok(PortExporter { server, shared })
    }

    /// The address remote senders should connect to.
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Messages received over the network so far.
    pub fn received(&self) -> u64 {
        self.shared.received.load(Ordering::Relaxed)
    }

    /// Messages that could not be injected locally (e.g. buffer full).
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(Ordering::Relaxed)
    }

    /// Connections dropped because a sender stalled mid-frame past the
    /// recv deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.shared.link.deadline_misses()
    }

    /// Stops accepting new connections and severs every live one so
    /// their threads exit promptly (joined on drop) instead of leaking.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

/// One exporter connection: reads frames until the peer goes away or is
/// severed, stalls mid-frame or sends something that is not a
/// remote-port frame, injecting each message into `instance.port`.
fn serve_conn<M: Message + BytesCodec>(sh: &ExportShared, conn: TcpConn) {
    let recv_timeout = sh.link.policy().recv_timeout;
    let _ = conn.set_deadline(Some(recv_timeout));
    sh.obs.gauge_add(sh.conns_live, 1);
    let mut buf = Vec::new();
    loop {
        let len = match conn.recv_into(&mut buf) {
            Ok(Some(len)) => len,
            Ok(None) => continue, // an idle link
            Err(TransportError::Deadline) => {
                sh.link.note_deadline_miss(recv_timeout);
                break;
            }
            Err(_) => break,
        };
        let parts = [&buf[..len]];
        let Some((priority, trace, body)) = decode_port_frame(&parts) else {
            break;
        };
        let msg = M::decode(&body);
        sh.received.fetch_add(1, Ordering::Relaxed);
        sh.obs.inc(sh.rx_frames);
        // Adopt the sender's trace so the injected message continues
        // it; deliver() then mints a child of this span.
        let span = match trace {
            Some((tid, parent, budget)) if sh.obs.tracing() => {
                let s = sh.obs.adopt_remote(tid, parent, budget);
                sh.obs
                    .record_span(EventKind::SpanRemoteRecv, sh.entity, budget, s);
                s
            }
            _ => rtobs::SpanCtx::NONE,
        };
        let injected = rtobs::span::with_span(span, || {
            sh.app.send_to(&sh.instance, &sh.port, msg, priority)
        });
        if span.is_active() {
            // Close the adopted span: on a synchronous pipeline its
            // duration brackets the local processing, so stitched trees
            // attribute self-time to this side instead of the sender's
            // wire hop.
            let left = sh.obs.budget_remaining(span);
            sh.obs
                .record_span(EventKind::SpanEnd, sh.entity, left as u64, span);
        }
        if injected.is_err() {
            sh.rejected.fetch_add(1, Ordering::Relaxed);
            sh.obs.inc(sh.rx_rejected);
        }
    }
    sh.obs.gauge_sub(sh.conns_live, 1);
}

/// What [`RemotePort`] keeps under its one lock: the link's mutable
/// half, where it points, the resend queue, and what a send encodes in.
struct SendState {
    link: LinkState<TcpConn>,
    addr: SocketAddr,
    /// Whole wire frames awaiting resend ([`DegradeMode::DropOldest`]).
    pending: VecDeque<FrameBuf>,
    /// The message's bytes, reused from send to send.
    body: Vec<u8>,
    /// The segments frames are built in: a small message fits one, so a
    /// send leases one and returns it.
    pool: SegPool,
}

/// The sending stub of a remote connection: a typed handle that encodes
/// and ships messages to a [`PortExporter`] on another application.
///
/// Fault behaviour is governed by the [`FaultPolicy`] given to
/// [`connect_with`](RemotePort::connect_with); see the module docs.
pub struct RemotePort<M> {
    link: Link,
    state: Mutex<SendState>,
    sent: AtomicU64,
    sheds: AtomicU64,
    sheds_id: OnceLock<CounterId>,
    _marker: std::marker::PhantomData<fn(&M)>,
}

impl<M> std::fmt::Debug for RemotePort<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemotePort<{}>", std::any::type_name::<M>())
    }
}

impl<M: Message + BytesCodec> RemotePort<M> {
    /// Connects to an exported port under the default [`FaultPolicy`].
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: SocketAddr) -> Result<RemotePort<M>> {
        Self::connect_with(addr, FaultPolicy::default())
    }

    /// Connects under an explicit [`FaultPolicy`].
    ///
    /// # Errors
    ///
    /// Connection failures (the initial connect is a single attempt
    /// bounded by the policy's connect deadline; later reconnects use the
    /// retry budget).
    pub fn connect_with(addr: SocketAddr, policy: FaultPolicy) -> Result<RemotePort<M>> {
        let link = Link::new(policy);
        // Backoff jitter only decorrelates concurrent clients; deriving
        // the seed from the port keeps runs reproducible enough while
        // separating streams of co-located senders.
        let mut state = link.state(0x9E37_79B9_7F4A_7C15 ^ u64::from(addr.port()));
        link.retarget(&mut state, || TcpConn::connect_with(addr, link.policy()))
            .map_err(io_err)?;
        Ok(RemotePort {
            link,
            state: Mutex::new(SendState {
                link: state,
                addr,
                pending: VecDeque::new(),
                body: Vec::new(),
                pool: SegPool::new(8, 1024),
            }),
            sent: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            sheds_id: OnceLock::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Wires fault metrics into `obs`: the link's counters (see
    /// [`Link::set_observer`]) plus `remote_sheds_total`, and
    /// flight-recorder events under `remote:{addr}`.
    /// Call at most once; later calls are ignored.
    pub fn set_observer(&self, obs: &Arc<Observer>) {
        let addr = self.state.lock().addr;
        self.link.set_observer(obs, &format!("remote:{addr}"));
        let _ = self.sheds_id.set(obs.counter("remote_sheds_total"));
    }

    fn note_shed(&self) {
        let n = self.sheds.fetch_add(1, Ordering::Relaxed) + 1;
        if let (Some((obs, entity)), Some(&id)) = (self.link.observer(), self.sheds_id.get()) {
            obs.inc(id);
            obs.record(EventKind::RemoteShed, entity, n);
        }
    }

    /// Writes one frame, counting a write that runs into the send
    /// deadline. The link tears the connection down if this fails.
    fn ship(&self, conn: &TcpConn, frame: &FrameBuf) -> std::result::Result<(), TransportError> {
        conn.send_chain(frame).inspect_err(|e| {
            if matches!(e, TransportError::Deadline) {
                let deadline = self.link.policy().send_timeout;
                self.link.note_deadline_miss(deadline);
            }
        })
    }

    /// Sends one message at `priority`. Mirrors a local
    /// [`HandlerCtx::send`](crate::HandlerCtx::send), but the payload is
    /// serialized instead of pooled (a network hop always copies).
    ///
    /// Blocking is bounded by the policy: at worst
    /// `FaultPolicy::worst_case_blocking` in `Fail`/`Shed` mode, and a
    /// single connect/send deadline in `DropOldest` mode (queueing
    /// replaces waiting).
    ///
    /// # Errors
    ///
    /// A message whose frame exceeds [`giop::MAX_BODY`], in every mode
    /// and before the link is touched: the receiver would drop the
    /// connection on it every time it was retried. Otherwise I/O
    /// failures after the retry budget is exhausted — only in
    /// [`DegradeMode::Fail`]; the degraded modes swallow the loss and
    /// count it instead.
    pub fn send(&self, msg: &M, priority: impl Into<Priority>) -> Result<()> {
        let prio = u16::from(priority.into().value()).to_be_bytes();
        let span = rtobs::span::current();
        let observer = self.link.observer();
        // Remaining budget, re-derived by the peer against its own
        // clock; 0 = no deadline, overruns propagate as a 1 ns stub so
        // the receiver still flags them.
        let budget = match observer {
            Some((obs, _)) if span.is_active() => match obs.budget_remaining(span) {
                i64::MIN => 0,
                left if left <= 0 => 1,
                left => left as u64,
            },
            _ => 0,
        };
        let trace = giop::trace_slot(span.trace_id, span.span_id, budget);
        let contexts: [(u32, &[u8]); 2] =
            [(PRIORITY_CONTEXT_SLOT, &prio), (TRACE_CONTEXT_SLOT, &trace)];
        let contexts = &contexts[..1 + usize::from(span.is_active())];
        let policy = self.link.policy();

        let mut guard = self.state.lock();
        let st = &mut *guard;
        st.body.clear();
        msg.encode(&mut st.body);
        let frame = giop::encode_request_chain(
            0,
            false,
            PORT_KEY,
            PORT_OP,
            &st.body,
            contexts,
            Endian::Big,
            &st.pool,
        );
        if frame.len() - HEADER_LEN > giop::MAX_BODY {
            let len = st.body.len();
            st.body = Vec::new();
            return Err(CompadresError::Model(format!(
                "remote message of {len} bytes exceeds the {}-byte frame limit",
                giop::MAX_BODY
            )));
        }
        if let Some((obs, entity)) = observer.filter(|_| span.is_active()) {
            obs.record_span(EventKind::SpanRemoteSend, entity, budget, span);
        }
        let addr = st.addr;
        if policy.degrade == DegradeMode::DropOldest {
            // Never sleeps on backoff. The backlog goes first to keep
            // the order; a frame that cannot go out now joins it.
            let dial = || TcpConn::connect_with(addr, policy);
            if self.flush(st)
                && self
                    .link
                    .offer(&mut st.link, dial, |c| self.ship(c, &frame))
            {
                self.sent.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            st.pending.push_back(frame);
            while st.pending.len() > policy.pending_cap {
                st.pending.pop_front();
                self.note_shed();
            }
            return Ok(());
        }
        let sent = self.link.send(
            &mut st.link,
            || TcpConn::connect_with(addr, policy),
            |c| self.ship(c, &frame),
        );
        match sent {
            Ok(()) => {
                self.sent.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(_) if policy.degrade == DegradeMode::Shed => {
                self.note_shed();
                Ok(())
            }
            Err(e) => Err(io_err(e)),
        }
    }

    /// Writes queued frames, oldest first, for as long as the link takes
    /// them (it redials at most once per backoff window). Returns
    /// whether the queue is now empty.
    fn flush(&self, st: &mut SendState) -> bool {
        let SendState {
            link,
            addr,
            pending,
            ..
        } = st;
        while let Some(frame) = pending.front() {
            let dial = || TcpConn::connect_with(*addr, self.link.policy());
            if !self.link.offer(link, dial, |c| self.ship(c, frame)) {
                return false;
            }
            pending.pop_front();
            self.sent.fetch_add(1, Ordering::Relaxed);
        }
        true
    }

    /// Points this port at another exporter: dials `addr` and, only if
    /// that succeeds, swaps it in and flushes the resend queue — which
    /// never left the port — over the new connection, in order. Waits
    /// for a send in progress, so it is bounded like one.
    ///
    /// # Errors
    ///
    /// The dial's failure; the port is then unchanged.
    pub(crate) fn retarget(&self, addr: SocketAddr) -> Result<()> {
        let mut st = self.state.lock();
        self.link
            .retarget(&mut st.link, || {
                TcpConn::connect_with(addr, self.link.policy())
            })
            .map_err(io_err)?;
        st.addr = addr;
        self.flush(&mut st);
        Ok(())
    }

    /// Messages actually written to the wire so far.
    pub fn sent(&self) -> u64 {
        self.sent.load(Ordering::Relaxed)
    }

    /// Failed attempts that consumed retry budget.
    pub fn retries(&self) -> u64 {
        self.link.retries()
    }

    /// Successful re-establishments after the initial connect.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects()
    }

    /// Messages dropped by the degradation policy.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Sends that missed the send deadline.
    pub fn deadline_misses(&self) -> u64 {
        self.link.deadline_misses()
    }

    /// Messages queued for resend (`DropOldest` mode only).
    pub fn pending(&self) -> usize {
        self.state.lock().pending.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::AppBuilder;
    use crate::runtime::HandlerCtx;
    use std::io::Read;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    #[derive(Debug, Default, Clone, PartialEq)]
    struct Telemetry {
        id: u32,
        value: i64,
    }

    impl BytesCodec for Telemetry {
        fn encode(&self, out: &mut Vec<u8>) {
            self.id.encode(out);
            self.value.encode(out);
        }
        fn decode(bytes: &[u8]) -> Self {
            Telemetry {
                id: u32::decode(&bytes[..4]),
                value: i64::decode(&bytes[4..]),
            }
        }
    }

    fn receiver_app() -> (Arc<App>, mpsc::Receiver<(Telemetry, Priority)>) {
        let cdl = r#"
          <Component><ComponentName>Sink</ComponentName>
            <Port><PortName>In</PortName><PortType>In</PortType><MessageType>Telemetry</MessageType></Port>
          </Component>"#;
        let ccl = r#"
          <Application><ApplicationName>RemoteSink</ApplicationName>
            <Component><InstanceName>Root</InstanceName><ClassName>Sink</ClassName><ComponentType>Immortal</ComponentType>
              <Component><InstanceName>S</InstanceName><ClassName>Sink</ClassName>
                <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
                <Connection><Port><PortName>In</PortName>
                  <PortAttributes><BufferSize>32</BufferSize><MinThreadpoolSize>1</MinThreadpoolSize><MaxThreadpoolSize>2</MaxThreadpoolSize></PortAttributes>
                </Port></Connection>
              </Component>
            </Component>
          </Application>"#;
        let (tx, rx) = mpsc::channel();
        let app = AppBuilder::from_xml(cdl, ccl)
            .unwrap()
            .bind_message_type::<Telemetry>("Telemetry")
            .register_handler("Sink", "In", move || {
                let tx = tx.clone();
                move |msg: &mut Telemetry, _ctx: &mut HandlerCtx<'_>| {
                    let _ = tx.send((msg.clone(), rtsched::current_priority()));
                    Ok(())
                }
            })
            .build()
            .unwrap();
        app.start().unwrap();
        (Arc::new(app), rx)
    }

    #[test]
    fn codec_roundtrip() {
        let t = Telemetry {
            id: 9,
            value: -1234,
        };
        let mut buf = Vec::new();
        t.encode(&mut buf);
        assert_eq!(Telemetry::decode(&buf), t);
    }

    #[test]
    fn remote_messages_reach_local_component() {
        let (app, rx) = receiver_app();
        let exporter = PortExporter::bind::<Telemetry>(&app, "S", "In").unwrap();
        let sender = RemotePort::<Telemetry>::connect(exporter.local_addr()).unwrap();
        for i in 0..10 {
            sender
                .send(
                    &Telemetry {
                        id: i,
                        value: i as i64 * 100,
                    },
                    Priority::new(30),
                )
                .unwrap();
        }
        let mut got = Vec::new();
        for _ in 0..10 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        got.sort_by_key(|(m, _)| m.id);
        for (i, (msg, prio)) in got.iter().enumerate() {
            assert_eq!(msg.id, i as u32);
            assert_eq!(msg.value, i as i64 * 100);
            assert_eq!(*prio, Priority::new(30), "priority crosses the wire");
        }
        assert_eq!(sender.sent(), 10);
        assert_eq!(exporter.received(), 10);
        assert_eq!(exporter.rejected(), 0);
    }

    #[test]
    fn multiple_remote_senders() {
        let (app, rx) = receiver_app();
        let exporter = PortExporter::bind::<Telemetry>(&app, "S", "In").unwrap();
        let addr = exporter.local_addr();
        let mut handles = Vec::new();
        for t in 0..3u32 {
            handles.push(std::thread::spawn(move || {
                let sender = RemotePort::<Telemetry>::connect(addr).unwrap();
                for i in 0..20 {
                    sender
                        .send(
                            &Telemetry {
                                id: t * 100 + i,
                                value: 1,
                            },
                            Priority::NORM,
                        )
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut count: u64 = 0;
        while rx.recv_timeout(Duration::from_millis(500)).is_ok() {
            count += 1;
        }
        assert_eq!(exporter.received(), 60);
        // Bursts may overflow the bounded port buffer; every message is
        // either delivered or visibly rejected, never silently lost.
        assert_eq!(count + exporter.rejected(), 60);
        assert!(
            count >= 32,
            "at least a buffer's worth must get through, got {count}"
        );
    }

    #[test]
    fn trace_context_crosses_the_wire() {
        let (app, rx) = receiver_app();
        let exporter = PortExporter::bind::<Telemetry>(&app, "S", "In").unwrap();
        let sender = RemotePort::<Telemetry>::connect(exporter.local_addr()).unwrap();
        let cobs = Arc::new(Observer::new());
        sender.set_observer(&cobs);

        let root = cobs.new_trace(Some(5_000_000_000));
        rtobs::span::with_span(root, || {
            sender
                .send(&Telemetry { id: 7, value: 70 }, Priority::new(30))
                .unwrap();
        });
        let (msg, _) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(msg.id, 7);

        // The handler's SpanEnd lands just after the channel send; wait
        // for it rather than racing.
        let sobs = app.observer();
        let deadline = Instant::now() + Duration::from_secs(5);
        let in_trace = |e: &rtobs::Event| (e.span >> 32) as u32 == root.trace_id;
        loop {
            let evs = sobs.events();
            if evs
                .iter()
                .any(|e| e.kind == EventKind::SpanEnd && in_trace(e))
            {
                break;
            }
            assert!(Instant::now() < deadline, "server never recorded SpanEnd");
            std::thread::sleep(Duration::from_millis(10));
        }

        let evs = sobs.events();
        assert!(
            evs.iter()
                .any(|e| e.kind == EventKind::SpanRemoteRecv && in_trace(e)),
            "exporter must adopt the sender's trace id"
        );
        // Untraced control: frames without the flag carry no context.
        sender
            .send(&Telemetry { id: 8, value: 80 }, Priority::new(30))
            .unwrap();
        let _ = rx.recv_timeout(Duration::from_secs(5)).unwrap();

        // Stitch both journals: the server-side hops must parent back to
        // the client's root span across the process boundary.
        let forest =
            rtobs::SpanForest::from_journals(&[("client", cobs.as_ref()), ("server", sobs)]);
        let path = forest.critical_path(root.trace_id);
        assert!(!path.is_empty(), "trace must have a critical path");
        let sources: Vec<&str> = path
            .iter()
            .map(|&i| forest.sources[forest.nodes()[i].source].as_str())
            .collect();
        assert!(
            sources.contains(&"client") && sources.contains(&"server"),
            "critical path must cross the wire, got {sources:?}"
        );
        let rendered = forest.render();
        assert!(rendered.contains("[client]") && rendered.contains("[server]"));
    }

    #[test]
    fn export_unknown_port_rejected() {
        let (app, _rx) = receiver_app();
        assert!(PortExporter::bind::<Telemetry>(&app, "S", "Bogus").is_err());
        assert!(PortExporter::bind::<Telemetry>(&app, "Nobody", "In").is_err());
    }

    const MSG: Telemetry = Telemetry { id: 7, value: -70 };

    /// What a real `RemotePort` writes, read off a raw listener: `MSG`
    /// at priority 30, untraced and then inside the returned trace.
    fn captured_frames() -> (Vec<u8>, Vec<u8>, rtobs::SpanCtx) {
        let listener = TcpListener::bind(LOOPBACK_ANY).unwrap();
        let sender = RemotePort::<Telemetry>::connect(listener.local_addr().unwrap()).unwrap();
        let (mut wire, _) = listener.accept().unwrap();
        let obs = Arc::new(Observer::new());
        sender.set_observer(&obs);
        sender.send(&MSG, Priority::new(30)).unwrap();
        let root = obs.new_trace(Some(5_000_000_000));
        rtobs::span::with_span(root, || sender.send(&MSG, Priority::new(30)).unwrap());
        let mut read = || {
            let mut frame = vec![0u8; HEADER_LEN];
            wire.read_exact(&mut frame).unwrap();
            let (_, _, body) = giop::parse_header(frame[..].try_into().unwrap()).unwrap();
            frame.resize(HEADER_LEN + body, 0);
            wire.read_exact(&mut frame[HEADER_LEN..]).unwrap();
            frame
        };
        (read(), read(), root)
    }

    #[test]
    fn remote_port_frames_are_giop_oneway_requests() {
        let (plain, traced, root) = captured_frames();
        for (frame, is_traced) in [(plain, false), (traced, true)] {
            assert_eq!(&frame[..4], b"GIOP");
            let parts = [&frame[..]];
            let Ok(MessageView::Request(req)) = giop::decode_view(&parts) else {
                panic!("not a GIOP request: {frame:?}");
            };
            assert!(!req.response_expected, "a oneway");
            assert_eq!((&*req.object_key, &*req.operation), (PORT_KEY, PORT_OP));
            assert_eq!(Telemetry::decode(&req.body), MSG);
            let slots: Vec<_> = req.service_context.iter().collect();
            assert_eq!(
                slots[0],
                (PRIORITY_CONTEXT_SLOT, Cow::Borrowed(&[0, 30][..]))
            );
            assert_eq!(slots.len(), 1 + usize::from(is_traced));
            let trace = req.trace_context().map(|(id, parent, _)| (id, parent));
            assert_eq!(trace, is_traced.then_some((root.trace_id, root.span_id)));
        }
    }

    /// The exporter's decoder, fed seeded mutations of real frames —
    /// truncations, bit flips, wrong message types and keys, absurd
    /// lengths, missing and garbled slots — never panics, lends only
    /// bodies inside the frame, and yields only valid priorities.
    #[test]
    fn port_frame_decoder_survives_mutated_frames() {
        let check = |frame: &[u8]| -> Option<Priority> {
            let parts = [frame];
            let (priority, _, body) = decode_port_frame(&parts)?;
            assert!((1..=99).contains(&priority.value()), "{priority:?}");
            let Cow::Borrowed(body) = body else {
                panic!("a one-part frame lends its body");
            };
            let (frame, body) = (frame.as_ptr_range(), body.as_ptr_range());
            assert!(frame.start <= body.start && body.end <= frame.end);
            Some(priority)
        };
        let (plain, traced, _) = captured_frames();
        assert_eq!(check(&plain), Some(Priority::new(30)));
        assert_eq!(check(&traced), Some(Priority::new(30)));
        // Slots are advisory: missing, short, long, out of range or
        // repeated, the frame still goes in.
        type Contexts<'a> = &'a [(u32, &'a [u8])];
        let slots: [(Contexts, u8); 9] = [
            (&[], Priority::NORM.value()),
            (&[(PRIORITY_CONTEXT_SLOT, &[])], Priority::NORM.value()),
            (&[(PRIORITY_CONTEXT_SLOT, &[7])], Priority::NORM.value()),
            (
                &[(PRIORITY_CONTEXT_SLOT, &[0, 0, 9])],
                Priority::NORM.value(),
            ),
            (&[(PRIORITY_CONTEXT_SLOT, &[0, 0])], 1),
            (&[(PRIORITY_CONTEXT_SLOT, &[1, 0])], 99),
            (
                &[
                    (PRIORITY_CONTEXT_SLOT, &[0, 42]),
                    (PRIORITY_CONTEXT_SLOT, &[0, 7]),
                ],
                42,
            ),
            (
                &[
                    (TRACE_CONTEXT_SLOT, &[1, 2, 3]),
                    (PRIORITY_CONTEXT_SLOT, &[0, 8]),
                ],
                8,
            ),
            (
                &[(TRACE_CONTEXT_SLOT, &[0; 16]), (0xDEAD, &[9; 5])],
                Priority::NORM.value(),
            ),
        ];
        let pool = SegPool::new(4, 256);
        let mut bases = vec![plain, traced];
        for (contexts, want) in slots {
            let frame = giop::encode_request_chain(
                0,
                false,
                PORT_KEY,
                PORT_OP,
                &[1; 12],
                contexts,
                Endian::Big,
                &pool,
            );
            let frame = frame.to_vec();
            assert_eq!(check(&frame), Some(Priority::new(want)), "{contexts:?}");
            bases.push(frame);
        }
        let mut rng = rtplatform::rng::SplitMix64::new(0x5EED);
        for base in &bases {
            for cut in 0..base.len() {
                check(&base[..cut]);
            }
            for msg_type in [1, 2, 5, 6, 0xFF] {
                let mut f = base.clone();
                f[7] = msg_type;
                assert_eq!(check(&f), None, "message type {msg_type}");
            }
            let key = base.windows(4).position(|w| w == PORT_KEY).unwrap();
            let mut f = base.clone();
            f[key] ^= 0x20;
            assert_eq!(check(&f), None, "a different key");
            // Every aligned word, the header's size included, claims
            // something absurd.
            for at in (8..base.len() - 3).step_by(4) {
                for claim in [0, 1, 0x7FFF_FFFF, u32::MAX, base.len() as u32] {
                    let mut f = base.clone();
                    f[at..at + 4].copy_from_slice(&claim.to_be_bytes());
                    check(&f);
                }
            }
            for _ in 0..2_000 {
                let mut f = base.clone();
                for _ in 0..rng.range_usize(1, 4) {
                    let bit = rng.below(f.len() * 8);
                    f[bit / 8] ^= 1 << (bit % 8);
                }
                check(&f);
            }
        }
    }
}
