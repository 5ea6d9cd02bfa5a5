//! The Compadres ORB — RT-CORBA assembled from Compadres components
//! (paper §3.2, Fig. 10).
//!
//! Client side, three memory levels: an `Orb` component in immortal
//! memory, a `Transport` component in a level-1 scope, and a
//! `MessageProcessing` component in a level-2 scope that marshals the
//! request, performs the wire round trip, demarshals the reply and is
//! destroyed afterwards. Server side, four levels: `Orb` (immortal) →
//! `Poa` (POA/Acceptor, level 1) → `Transport` (level 2) →
//! `RequestProcessing` (level 3, created per request and destroyed after
//! the reply is sent).
//!
//! (The paper counts immortal memory as "level 1"; we count scoped levels
//! from 1 under immortal — the structure is identical.)

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use compadres_core::{App, AppBuilder, ChildHandle, HandlerCtx, Message, Priority};
use rtmem::Ctx;
use rtobs::{span, CounterId, EventKind, HistId, SpanCtx};
use rtplatform::bufchain::{FrameBuf, SegPool, DEFAULT_SEG_SIZE};
use rtplatform::fault::FaultPolicy;
use rtplatform::sync::Mutex;

use crate::cdr::Endian;
use crate::giop::{self, MessageView, ReplyStatus};
use crate::reactor::{FrameFn, ReactorConfig, ReactorServer};
use crate::service::ObjectRegistry;
use crate::transport::{Connection, TcpConn, TransportError};
use crate::{InvokeOptions, OrbError};

/// Where client invocations read their results from, by request id:
/// `MessageProcessing` files the outcome of a round trip under the id it
/// answered, and the invoker — back from the pipeline, since every ORB
/// port is configured `Min = Max = 0` — takes exactly that entry. One
/// client is shared between threads, so a slot that a later request
/// could write before its reader arrived would lose an answer; an entry
/// per id cannot. The map keeps its capacity, so filing and taking
/// allocate nothing in steady state.
type Replies = Mutex<HashMap<u32, Result<Vec<u8>, OrbError>>>;

/// The message that travels Orb → Transport → MessageProcessing on the
/// client side. It implements [`Message`] itself: its three buffers are
/// cleared, not dropped, when the pool hands it out again, so in steady
/// state an invocation is copied into memory the pools already own —
/// the paper's SMM message pool, which is there so that a request takes
/// nothing from a heap.
struct InvokeMsg {
    request_id: u32,
    object_key: Vec<u8>,
    operation: String,
    payload: Vec<u8>,
    oneway: bool,
}

impl InvokeMsg {
    fn new() -> InvokeMsg {
        InvokeMsg {
            request_id: 0,
            object_key: Vec::new(),
            operation: String::new(),
            payload: Vec::new(),
            oneway: false,
        }
    }
}

impl Message for InvokeMsg {
    fn reset(&mut self) {
        self.request_id = 0;
        self.object_key.clear();
        self.operation.clear();
        self.payload.clear();
        self.oneway = false;
    }
}

/// The message that travels Poa → Transport → RequestProcessing on the
/// server side. Each relay hop moves it on (`std::mem::take`), so the
/// frame — a segment chain — is neither copied nor re-counted down the
/// pipeline.
#[derive(Default)]
struct WireMsg {
    frame: FrameBuf,
    conn: Option<Arc<dyn Connection>>,
}

/// Segments in a client's marshal pool: a 64 KiB request (17 segments)
/// fits, so the pool's heap fallback (see [`rtplatform::bufchain`]) is
/// for larger frames, not for the steady state.
const CLIENT_POOL_SEGS: usize = 32;
/// Segments in the server's marshal pool, which every connection's
/// replies share: three 64 KiB replies in flight at once fit.
const SERVER_POOL_SEGS: usize = 64;

const CLIENT_CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>Orb</ComponentName>
    <Port><PortName>ToTransport</PortName><PortType>Out</PortType><MessageType>InvokeMsg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Transport</ComponentName>
    <Port><PortName>FromOrb</PortName><PortType>In</PortType><MessageType>InvokeMsg</MessageType></Port>
    <Port><PortName>ToProcessing</PortName><PortType>Out</PortType><MessageType>InvokeMsg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>MessageProcessing</ComponentName>
    <Port><PortName>FromTransport</PortName><PortType>In</PortType><MessageType>InvokeMsg</MessageType></Port>
  </Component>
</Components>"#;

const CLIENT_CCL: &str = r#"
<Application>
  <ApplicationName>CompadresOrbClient</ApplicationName>
  <Component>
    <InstanceName>TheOrb</InstanceName>
    <ClassName>Orb</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>ToTransport</PortName>
        <Link><PortType>Internal</PortType><ToComponent>ClientTransport</ToComponent><ToPort>FromOrb</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>ClientTransport</InstanceName>
      <ClassName>Transport</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>FromOrb</PortName>
          <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
        </Port>
        <Port><PortName>ToProcessing</PortName>
          <Link><PortType>Internal</PortType><ToComponent>ClientProcessing</ToComponent><ToPort>FromTransport</ToPort></Link>
        </Port>
      </Connection>
      <Component>
        <InstanceName>ClientProcessing</InstanceName>
        <ClassName>MessageProcessing</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
        <Connection>
          <Port><PortName>FromTransport</PortName>
            <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
          </Port>
        </Connection>
      </Component>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>4000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
    <ScopedPool><ScopeLevel>2</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

const SERVER_CDL: &str = r#"
<Components>
  <Component>
    <ComponentName>ServerOrb</ComponentName>
    <Port><PortName>ToPoa</PortName><PortType>Out</PortType><MessageType>WireMsg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>Poa</ComponentName>
    <Port><PortName>Incoming</PortName><PortType>In</PortType><MessageType>WireMsg</MessageType></Port>
    <Port><PortName>ToTransport</PortName><PortType>Out</PortType><MessageType>WireMsg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>STransport</ComponentName>
    <Port><PortName>FromPoa</PortName><PortType>In</PortType><MessageType>WireMsg</MessageType></Port>
    <Port><PortName>ToProcessing</PortName><PortType>Out</PortType><MessageType>WireMsg</MessageType></Port>
  </Component>
  <Component>
    <ComponentName>RequestProcessing</ComponentName>
    <Port><PortName>FromTransport</PortName><PortType>In</PortType><MessageType>WireMsg</MessageType></Port>
  </Component>
</Components>"#;

const SERVER_CCL: &str = r#"
<Application>
  <ApplicationName>CompadresOrbServer</ApplicationName>
  <Component>
    <InstanceName>TheOrb</InstanceName>
    <ClassName>ServerOrb</ClassName>
    <ComponentType>Immortal</ComponentType>
    <Connection>
      <Port><PortName>ToPoa</PortName>
        <Link><PortType>Internal</PortType><ToComponent>ThePoa</ToComponent><ToPort>Incoming</ToPort></Link>
      </Port>
    </Connection>
    <Component>
      <InstanceName>ThePoa</InstanceName>
      <ClassName>Poa</ClassName>
      <ComponentType>Scoped</ComponentType><ScopeLevel>1</ScopeLevel>
      <Connection>
        <Port><PortName>Incoming</PortName>
          <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
        </Port>
        <Port><PortName>ToTransport</PortName>
          <Link><PortType>Internal</PortType><ToComponent>ServerTransport</ToComponent><ToPort>FromPoa</ToPort></Link>
        </Port>
      </Connection>
      <Component>
        <InstanceName>ServerTransport</InstanceName>
        <ClassName>STransport</ClassName>
        <ComponentType>Scoped</ComponentType><ScopeLevel>2</ScopeLevel>
        <Connection>
          <Port><PortName>FromPoa</PortName>
            <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
          </Port>
          <Port><PortName>ToProcessing</PortName>
            <Link><PortType>Internal</PortType><ToComponent>ServerProcessing</ToComponent><ToPort>FromTransport</ToPort></Link>
          </Port>
        </Connection>
        <Component>
          <InstanceName>ServerProcessing</InstanceName>
          <ClassName>RequestProcessing</ClassName>
          <ComponentType>Scoped</ComponentType><ScopeLevel>3</ScopeLevel>
          <Connection>
            <Port><PortName>FromTransport</PortName>
              <PortAttributes><MinThreadpoolSize>0</MinThreadpoolSize><MaxThreadpoolSize>0</MaxThreadpoolSize></PortAttributes>
            </Port>
          </Connection>
        </Component>
      </Component>
    </Component>
  </Component>
  <RTSJAttributes>
    <ImmortalSize>4000000</ImmortalSize>
    <ScopedPool><ScopeLevel>1</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
    <ScopedPool><ScopeLevel>2</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>2</PoolSize></ScopedPool>
    <ScopedPool><ScopeLevel>3</ScopeLevel><ScopeSize>131072</ScopeSize><PoolSize>4</PoolSize></ScopedPool>
  </RTSJAttributes>
</Application>"#;

/// The component-assembled client ORB.
pub struct CompadresClient {
    app: App,
    /// The memory context invocations enter the ORB on: a calling thread
    /// has none, so the client keeps one. Held for the round trip, which
    /// the Transport's handler lock serializes between threads anyway.
    ctx: Mutex<Ctx>,
    /// Keeps the Transport component alive across requests, as the paper's
    /// client does ("the previously created Transport component").
    _transport_handle: ChildHandle,
    next_id: AtomicU32,
    /// Per-operation observability ids (flight-recorder entity +
    /// round-trip histogram), interned on first use. Cold lock: hit once
    /// per distinct operation name.
    op_ids: Mutex<HashMap<String, (u32, HistId)>>,
    /// Invocations that failed on a missed transport deadline.
    deadline_misses: CounterId,
    replies: Arc<Replies>,
}

impl std::fmt::Debug for CompadresClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompadresClient")
    }
}

impl CompadresClient {
    /// Builds a client ORB over an established connection.
    ///
    /// # Errors
    ///
    /// Composition or memory-architecture failures.
    pub fn from_conn(conn: Arc<dyn Connection>) -> Result<CompadresClient, OrbError> {
        let pool = SegPool::new(CLIENT_POOL_SEGS, DEFAULT_SEG_SIZE);
        CompadresClient::assemble(conn, pool)
    }

    /// The client assembly, marshalling requests into `pool`'s segments.
    fn assemble(conn: Arc<dyn Connection>, pool: SegPool) -> Result<CompadresClient, OrbError> {
        let endian = Endian::native();
        let replies = Arc::new(Replies::default());
        let filed = Arc::clone(&replies);
        let app = AppBuilder::from_xml(CLIENT_CDL, CLIENT_CCL)?
            .bind_message_type_with("InvokeMsg", InvokeMsg::new)
            .register_handler("Transport", "FromOrb", || {
                // The transport relays the invocation to the processing
                // component through the next pool, as the shared-object
                // pattern requires — by trading the two messages'
                // contents, so the buffers circulate between the pools
                // and nothing is copied.
                |msg: &mut InvokeMsg, ctx: &mut HandlerCtx<'_>| {
                    let mut fwd = ctx.get_message::<InvokeMsg>("ToProcessing")?;
                    std::mem::swap(&mut *fwd, msg);
                    ctx.send("ToProcessing", fwd, ctx.priority())
                }
            })
            .register_handler("MessageProcessing", "FromTransport", move || {
                let conn = Arc::clone(&conn);
                let pool = pool.clone();
                let filed = Arc::clone(&filed);
                move |msg: &mut InvokeMsg, ctx: &mut HandlerCtx<'_>| {
                    let result = client_round_trip(&conn, endian, &pool, msg, ctx);
                    filed.lock().insert(msg.request_id, result);
                    Ok(())
                }
            })
            .build()?;
        app.start()?;
        let transport_handle = app.connect("ClientTransport")?;
        let deadline_misses = app.observer().counter("remote_deadline_misses_total");
        Ok(CompadresClient {
            ctx: Mutex::new(Ctx::no_heap(app.model())),
            app,
            _transport_handle: transport_handle,
            next_id: AtomicU32::new(1),
            op_ids: Mutex::new(HashMap::new()),
            deadline_misses,
            replies,
        })
    }

    /// Builds a client ORB over an established connection, arming the
    /// connection's recv deadline from `policy` so an invocation whose
    /// reply never arrives fails with
    /// [`TransportError::Deadline`] instead of wedging
    /// its real-time thread.
    ///
    /// # Errors
    ///
    /// Socket-option, composition or memory-architecture failures.
    pub fn from_conn_with(
        conn: Arc<dyn Connection>,
        policy: &FaultPolicy,
    ) -> Result<CompadresClient, OrbError> {
        conn.set_deadline(Some(policy.recv_timeout))?;
        CompadresClient::from_conn(conn)
    }

    pub(crate) fn tcp(addr: SocketAddr) -> Result<CompadresClient, OrbError> {
        let conn = TcpConn::connect(addr)?;
        CompadresClient::from_conn(Arc::new(conn))
    }

    pub(crate) fn tcp_with(
        addr: SocketAddr,
        policy: &FaultPolicy,
    ) -> Result<CompadresClient, OrbError> {
        let conn = TcpConn::connect_with(addr, policy)?;
        CompadresClient::from_conn_with(Arc::new(conn), policy)
    }

    /// Connects to the ORB endpoint named by a stringified `corbaloc`
    /// object reference; returns the client plus the reference's object
    /// key (the CORBA `string_to_object` flow).
    ///
    /// # Errors
    ///
    /// Reference parse/resolution failures, then connection,
    /// composition or memory failures.
    pub fn connect_ref(reference: &str) -> Result<(CompadresClient, Vec<u8>), OrbError> {
        let obj = crate::ior::ObjectRef::parse(reference)?;
        let addr = obj.socket_addr()?;
        Ok((CompadresClient::tcp(addr)?, obj.object_key))
    }

    /// The underlying component application (for instrumentation).
    pub fn app(&self) -> &App {
        &self.app
    }

    /// Performs an invocation through the component pipeline — Orb →
    /// Transport → MessageProcessing → wire — shaped by `opts`: two-way
    /// or oneway, with or without a deadline budget. The unified entry
    /// point behind [`invoke`](CompadresClient::invoke),
    /// [`invoke_oneway`](CompadresClient::invoke_oneway) and
    /// [`invoke_with_budget`](CompadresClient::invoke_with_budget).
    ///
    /// A oneway invocation returns an empty body.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a servant exception.
    pub fn invoke_with(
        &self,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        opts: &InvokeOptions,
    ) -> Result<Vec<u8>, OrbError> {
        self.invoke_inner(object_key, operation, args, opts.oneway, opts.budget)
    }

    /// Performs a synchronous two-way invocation through the component
    /// pipeline: Orb → Transport → MessageProcessing → wire → back.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a servant exception.
    pub fn invoke(
        &self,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, OrbError> {
        self.invoke_with(object_key, operation, args, &InvokeOptions::twoway())
    }

    /// Like [`invoke`](CompadresClient::invoke), but under a deadline
    /// budget: the invocation becomes the root of a trace whose budget
    /// travels with the request — through the client pipeline, across
    /// the wire in the GIOP [`crate::giop::TRACE_CONTEXT_SLOT`], and
    /// through the server pipeline — so every hop journals its remaining
    /// budget and an overrun is attributable to the hop that spent it
    /// (DESIGN.md §5g). `None` traces without a deadline.
    ///
    /// # Errors
    ///
    /// Same as [`invoke`](CompadresClient::invoke); a blown budget is
    /// *recorded*, not turned into an error — deadline policy stays with
    /// the caller.
    pub fn invoke_with_budget(
        &self,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        budget: Option<std::time::Duration>,
    ) -> Result<Vec<u8>, OrbError> {
        self.invoke_with(
            object_key,
            operation,
            args,
            &InvokeOptions {
                oneway: false,
                budget,
            },
        )
    }

    /// Sends a **oneway** invocation through the component pipeline: the
    /// request is marshalled and put on the wire, no reply is waited for.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn invoke_oneway(
        &self,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
    ) -> Result<(), OrbError> {
        self.invoke_with(object_key, operation, args, &InvokeOptions::oneway())
            .map(|_| ())
    }

    /// Interns (once per distinct operation) the flight-recorder entity
    /// and round-trip histogram for `operation`.
    fn op_obs(&self, operation: &str) -> (u32, HistId) {
        let mut map = self.op_ids.lock();
        if let Some(&ids) = map.get(operation) {
            return ids;
        }
        let obs = self.app.observer();
        let safe: String = operation
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect();
        let ids = (
            obs.register_entity(&format!("giop:{operation}")),
            obs.histogram(&format!("rtcorba_roundtrip_{safe}_ns")),
        );
        map.insert(operation.to_string(), ids);
        ids
    }

    fn invoke_inner(
        &self,
        object_key: &[u8],
        operation: &str,
        args: &[u8],
        oneway: bool,
        budget: Option<std::time::Duration>,
    ) -> Result<Vec<u8>, OrbError> {
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (entity, hist) = self.op_obs(operation);
        let obs = Arc::clone(self.app.observer());
        // The invocation is the root of a trace; every pipeline hop below
        // becomes a child span and inherits the deadline budget.
        let root = if obs.tracing() {
            obs.new_trace(budget.map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)))
        } else {
            SpanCtx::NONE
        };
        if root.is_active() {
            obs.record_span(EventKind::SpanEnqueue, entity, root.deadline_ns, root);
        }
        let t0 = obs.now_ns();
        obs.record_at(EventKind::GiopRequest, entity, u64::from(request_id), t0);
        let sent = span::with_span(root, || {
            let mut mem = self.ctx.lock();
            self.app
                .with_component_on(&mut mem, "TheOrb", |ctx| -> Result<(), OrbError> {
                    // Copy the invocation into the pooled message's own
                    // buffers (cleared by `reset`, capacity kept).
                    let mut msg = ctx.get_message::<InvokeMsg>("ToTransport")?;
                    msg.request_id = request_id;
                    msg.object_key.extend_from_slice(object_key);
                    msg.operation.push_str(operation);
                    msg.payload.extend_from_slice(args);
                    msg.oneway = oneway;
                    ctx.send("ToTransport", msg, Priority::new(10))?;
                    Ok(())
                })
        });
        // Every port is synchronous, so whatever the pipeline made of
        // this request is filed by now — taken before a failed send is
        // reported, so that no entry outlives its invocation.
        let result = self.replies.lock().remove(&request_id);
        sent??;
        let rtt = obs.now_ns().saturating_sub(t0);
        obs.record(EventKind::GiopReply, entity, rtt);
        obs.observe(hist, rtt);
        if root.is_active() {
            let left = obs.budget_remaining(root);
            obs.record_span(EventKind::SpanEnd, entity, left as u64, root);
        }
        if let Some(Err(OrbError::Transport(TransportError::Deadline))) = &result {
            obs.inc(self.deadline_misses);
            obs.record(EventKind::RemoteDeadlineMiss, entity, rtt);
        }
        result.unwrap_or(Err(OrbError::UnexpectedMessage))
    }
}

fn client_round_trip(
    conn: &Arc<dyn Connection>,
    endian: Endian,
    pool: &SegPool,
    msg: &InvokeMsg,
    ctx: &mut HandlerCtx<'_>,
) -> Result<Vec<u8>, OrbError> {
    // This handler runs inside the pipeline hop's span: ship it across
    // the wire with whatever budget is left at this point.
    let cur = span::current();
    let slot;
    let traced;
    let mut service_context: &[(u32, &[u8])] = &[];
    if cur.is_active() {
        let obs = ctx.observer();
        let budget = match obs.budget_remaining(cur) {
            i64::MIN => 0,
            left if left <= 0 => 1, // overrun: a 1 ns stub keeps the flag
            left => left as u64,
        };
        slot = giop::trace_slot(cur.trace_id, cur.span_id, budget);
        traced = [(giop::TRACE_CONTEXT_SLOT, &slot[..])];
        service_context = &traced;
        let entity = obs.register_entity("giop:wire");
        obs.record_span(EventKind::SpanRemoteSend, entity, budget, cur);
    }
    // Marshal from the borrowed invocation fields straight into pool-
    // leased segments and scatter them to the socket with vectored I/O;
    // the segments recycle when the frame drops at the end of the
    // round trip.
    let frame = giop::encode_request_chain(
        msg.request_id,
        !msg.oneway,
        &msg.object_key,
        &msg.operation,
        &msg.payload,
        service_context,
        endian,
        pool,
    );
    conn.send_chain(&frame)?;
    if msg.oneway {
        return Ok(Vec::new());
    }
    let mut reply_frame = conn.recv_frame()?;
    // Decode in place over the received buffer, which then becomes the
    // result: the reply body is what is left of it once the headers in
    // front and the contexts behind are cut off.
    let body = {
        let parts = [&reply_frame[..]];
        let reply = giop::decode_view(&parts)?;
        if cur.is_active() {
            if let MessageView::Reply(r) = &reply {
                if let Some((_, _, echoed)) = r.trace_context() {
                    let obs = ctx.observer();
                    let entity = obs.register_entity("giop:wire");
                    obs.record_span(EventKind::SpanRemoteRecv, entity, echoed, cur);
                }
            }
        }
        match reply {
            MessageView::Reply(r) if r.request_id == msg.request_id => match r.status {
                ReplyStatus::NoException => giop::REPLY_BODY_AT..giop::REPLY_BODY_AT + r.body.len(),
                ReplyStatus::SystemException => {
                    let msg = String::from_utf8_lossy(&r.body).into_owned();
                    return Err(OrbError::Exception(msg));
                }
                ReplyStatus::ObjectNotExist => return Err(OrbError::ObjectNotExist),
            },
            MessageView::Reply(r) => {
                return Err(OrbError::RequestMismatch {
                    expected: msg.request_id,
                    got: r.request_id,
                })
            }
            _ => return Err(OrbError::UnexpectedMessage),
        }
    };
    reply_frame.truncate(body.end);
    reply_frame.drain(..body.start);
    Ok(reply_frame)
}

/// The component-assembled server ORB, serving TCP on the event-driven
/// reactor transport ([`crate::reactor`]). Dropping it shuts the reactor,
/// its workers and every connection down.
pub struct CompadresServer {
    app: Arc<App>,
    reactor: ReactorServer,
    _keepalive: Vec<ChildHandle>,
}

impl std::fmt::Debug for CompadresServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompadresServer({:?})", self.reactor.addr())
    }
}

impl CompadresServer {
    fn build_app(registry: Arc<ObjectRegistry>, pool: SegPool) -> Result<App, OrbError> {
        let endian = Endian::native();
        let app = AppBuilder::from_xml(SERVER_CDL, SERVER_CCL)?
            .bind_message_type::<WireMsg>("WireMsg")
            .register_handler("Poa", "Incoming", || {
                |msg: &mut WireMsg, ctx: &mut HandlerCtx<'_>| {
                    let mut fwd = ctx.get_message::<WireMsg>("ToTransport")?;
                    *fwd = std::mem::take(msg);
                    ctx.send("ToTransport", fwd, ctx.priority())
                }
            })
            .register_handler("STransport", "FromPoa", || {
                |msg: &mut WireMsg, ctx: &mut HandlerCtx<'_>| {
                    let mut fwd = ctx.get_message::<WireMsg>("ToProcessing")?;
                    *fwd = std::mem::take(msg);
                    ctx.send("ToProcessing", fwd, ctx.priority())
                }
            })
            .register_handler("RequestProcessing", "FromTransport", move || {
                let registry = Arc::clone(&registry);
                let pool = pool.clone();
                move |msg: &mut WireMsg, _ctx: &mut HandlerCtx<'_>| {
                    let Some(conn) = msg.conn.take() else {
                        return Ok(());
                    };
                    // Demarshal in place over the frame's segments (the
                    // same bytes the socket read landed in) and marshal
                    // the reply into pool-leased segments — no staging
                    // copy on either side of the dispatch.
                    let parts = msg.frame.slices();
                    match giop::decode_view(&parts) {
                        Ok(MessageView::Request(req)) => {
                            let reply = registry.dispatch_view(&req);
                            if req.response_expected {
                                let _ = conn.send_chain(&reply.encode_chain(endian, &pool));
                            }
                        }
                        Ok(_) => {}
                        Err(_) => {
                            // Undecodable frame: answer MessageError so the
                            // peer fails fast instead of waiting out its
                            // reply deadline.
                            let error = giop::encode_error(endian).to_vec();
                            let _ = conn.send_chain(&FrameBuf::from_vec(error));
                        }
                    }
                    Ok(())
                }
            })
            .build()?;
        app.start()?;
        Ok(app)
    }

    /// Binds `127.0.0.1:0` and serves it: one poll-loop thread
    /// multiplexes every connection and a small worker pool injects
    /// complete frames into the POA component pipeline. The POA/Acceptor
    /// and Transport components stay alive for the server's lifetime, as
    /// the paper's server keeps them.
    pub(crate) fn serve(
        registry: Arc<ObjectRegistry>,
        cfg: ReactorConfig,
    ) -> Result<CompadresServer, OrbError> {
        let pool = SegPool::new(SERVER_POOL_SEGS, DEFAULT_SEG_SIZE);
        CompadresServer::assemble(registry, cfg, pool)
    }

    /// The server assembly, marshalling replies into `pool`'s segments.
    fn assemble(
        registry: Arc<ObjectRegistry>,
        cfg: ReactorConfig,
        pool: SegPool,
    ) -> Result<CompadresServer, OrbError> {
        let app = Arc::new(Self::build_app(registry, pool)?);
        let keepalive = vec![app.connect("ThePoa")?, app.connect("ServerTransport")?];
        let app2 = Arc::clone(&app);
        let handler = move || -> FrameFn {
            let app = Arc::clone(&app2);
            // Each worker delivers on a memory context of its own.
            let mut ctx = Ctx::no_heap(app.model());
            Box::new(move |conn, frame| {
                // An injection failure (app shutting down) ends this
                // request; the reactor keeps the other connections alive.
                let _ = inject_frame(&app, &mut ctx, conn, frame);
            })
        };
        let reactor = ReactorServer::spawn(handler, Arc::clone(app.observer()), cfg)?;
        Ok(CompadresServer {
            app,
            reactor,
            _keepalive: keepalive,
        })
    }

    /// The TCP address clients connect to (always `Some`).
    pub fn addr(&self) -> Option<SocketAddr> {
        Some(self.reactor.addr())
    }

    /// A stringified `corbaloc` reference for `key` at this server
    /// (the CORBA `object_to_string` flow).
    pub fn object_ref(&self, key: &[u8]) -> Option<String> {
        Some(crate::ior::ObjectRef::for_addr(self.reactor.addr(), key.to_vec()).to_string())
    }

    /// The underlying component application (for instrumentation).
    pub fn app(&self) -> &App {
        &self.app
    }

    /// Stops accepting and serving.
    pub fn shutdown(&self) {
        self.reactor.shutdown();
    }
}

/// Injects one already-framed GIOP message into the POA in-port — the
/// role the acceptor's listening thread plays in the paper's server,
/// played here by the reactor's workers.
///
/// A request carrying a [`crate::giop::TRACE_CONTEXT_SLOT`] is adopted
/// into the server's journal before injection, so the POA pipeline's
/// spans become children of the client's wire span and the remaining
/// budget keeps counting down on the server's clock.
fn inject_frame(
    app: &App,
    ctx: &mut Ctx,
    conn: &Arc<dyn Connection>,
    frame: FrameBuf,
) -> Result<(), compadres_core::CompadresError> {
    let obs = app.observer();
    let span = match giop::peek_trace_parts(&frame.slices()) {
        Some((trace_id, parent, budget)) if obs.tracing() => {
            let entity = obs.register_entity("giop:wire");
            let s = obs.adopt_remote(trace_id, parent, budget);
            obs.record_span(EventKind::SpanRemoteRecv, entity, budget, s);
            s
        }
        _ => SpanCtx::NONE,
    };
    let msg = WireMsg {
        frame,
        conn: Some(Arc::clone(conn)),
    };
    let injected = span::with_span(span, || {
        app.send_to_on(ctx, "ThePoa", "Incoming", msg, Priority::new(10))
    });
    if span.is_active() {
        // Close the adopted span once injection (and, on the all-
        // synchronous POA pipeline, processing) completed: its
        // duration brackets the server-side work, so a stitched
        // critical path attributes self-time correctly.
        let entity = obs.register_entity("giop:wire");
        let left = obs.budget_remaining(span);
        obs.record_span(EventKind::SpanEnd, entity, left as u64, span);
    }
    injected
}

/// Convenience: an echo server on `127.0.0.1:0` plus a client connected
/// to it over TCP loopback — the paper's Fig. 11 setup ("single machine
/// connected via loopback network").
///
/// # Errors
///
/// Bind, connection, composition or memory failures.
pub fn loopback_echo_pair() -> Result<(CompadresServer, CompadresClient), OrbError> {
    let server = CompadresServer::serve(ObjectRegistry::with_echo(), ReactorConfig::default())?;
    let client = CompadresClient::tcp(server.reactor.addr())?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_echo_roundtrip() {
        let (_server, client) = loopback_echo_pair().unwrap();
        assert_eq!(
            client.invoke(b"echo", "echo", &[1, 2, 3]).unwrap(),
            vec![1, 2, 3]
        );
        for i in 0..50u8 {
            assert_eq!(client.invoke(b"echo", "echo", &[i, i]).unwrap(), vec![i, i]);
        }
    }

    #[test]
    fn giop_round_trips_are_observed() {
        let (_server, client) = loopback_echo_pair().unwrap();
        for i in 0..10u8 {
            client.invoke(b"echo", "echo", &[i]).unwrap();
        }
        let obs = client.app().observer();
        let hist = obs.histogram("rtcorba_roundtrip_echo_ns");
        let snap = obs.hist_snapshot(hist);
        assert_eq!(snap.count, 10, "one observation per invocation");
        assert!(snap.p50 > 0 && snap.max >= snap.p50);
        let events = obs.events();
        let requests = events
            .iter()
            .filter(|e| e.kind == EventKind::GiopRequest)
            .count();
        let replies = events
            .iter()
            .filter(|e| e.kind == EventKind::GiopReply)
            .count();
        assert_eq!(requests, 10);
        assert_eq!(replies, 10);
        assert!(
            events
                .iter()
                .any(|e| e.kind == EventKind::GiopRequest
                    && obs.entity_name(e.subject) == "giop:echo")
        );
        // The same journal carries the in-process port traffic too.
        assert!(events.iter().any(|e| e.kind == EventKind::PortEnqueue));
        assert!(client
            .app()
            .metrics_text()
            .contains("rtcorba_roundtrip_echo_ns_count 10"));
    }

    #[test]
    fn tcp_echo_roundtrip() {
        let server = crate::ServerBuilder::new(ObjectRegistry::with_echo())
            .serve()
            .unwrap();
        let client = crate::ClientBuilder::new()
            .connect(server.addr().unwrap())
            .unwrap();
        let payload = vec![0x5Au8; 1024];
        assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
        server.shutdown();
    }

    #[test]
    fn per_request_processing_component_lifecycle() {
        let (server, client) = loopback_echo_pair().unwrap();
        let before = server.app().activations_of("ServerProcessing").unwrap();
        client.invoke(b"echo", "echo", &[1]).unwrap();
        client.invoke(b"echo", "echo", &[2]).unwrap();
        let after = server.app().activations_of("ServerProcessing").unwrap();
        assert_eq!(after - before, 2, "RequestProcessing created per request");
        // The reply reaches the client slightly before the server-side
        // worker finishes releasing the request scope; poll.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while server.app().is_active("ServerProcessing").unwrap() {
            assert!(
                std::time::Instant::now() < deadline,
                "destroyed after reply"
            );
            std::thread::yield_now();
        }
        // Transport stays alive (connected).
        assert!(server.app().is_active("ServerTransport").unwrap());
    }

    #[test]
    fn client_processing_component_is_per_request_too() {
        let (_server, client) = loopback_echo_pair().unwrap();
        client.invoke(b"echo", "echo", &[1]).unwrap();
        assert!(!client.app().is_active("ClientProcessing").unwrap());
        assert!(client.app().is_active("ClientTransport").unwrap());
        let before = client.app().activations_of("ClientProcessing").unwrap();
        client.invoke(b"echo", "echo", &[2]).unwrap();
        assert_eq!(
            client.app().activations_of("ClientProcessing").unwrap(),
            before + 1
        );
    }

    #[test]
    fn exceptions_and_unknown_objects() {
        let (_server, client) = loopback_echo_pair().unwrap();
        assert!(matches!(
            client.invoke(b"ghost", "echo", &[]),
            Err(OrbError::ObjectNotExist)
        ));
        assert!(matches!(
            client.invoke(b"echo", "bad-op", &[]),
            Err(OrbError::Exception(_))
        ));
        // The ORB still works afterwards.
        assert_eq!(client.invoke(b"echo", "echo", &[5]).unwrap(), vec![5]);
    }

    #[test]
    fn threads_sharing_one_client_each_get_their_own_answer() {
        // The pooled messages circulate between the pipeline's hops, so
        // a result slot riding in them can be met by a later request
        // before its reader is back; results are filed per request id.
        const THREADS: u8 = 8;
        const ECHOES: u32 = 3_000;
        let (_server, client) = loopback_echo_pair().unwrap();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let client = &client;
                s.spawn(move || {
                    for i in 0..ECHOES {
                        let mut payload = [t; 12];
                        payload[..4].copy_from_slice(&i.to_be_bytes());
                        let got = client.invoke(b"echo", "echo", &payload);
                        assert_eq!(got.unwrap(), payload, "thread {t}, echo {i}");
                    }
                });
            }
        });
        assert!(client.replies.lock().is_empty(), "every answer was taken");
    }

    #[test]
    fn a_64_kib_echo_leases_no_heap_segment() {
        // A 64 KiB frame is 17 marshal segments: both pools hold it, so
        // no request or reply is built on `SegPool::lease`'s fallback.
        const ECHOES: u64 = 50;
        let client_pool = SegPool::new(CLIENT_POOL_SEGS, DEFAULT_SEG_SIZE);
        let server_pool = SegPool::new(SERVER_POOL_SEGS, DEFAULT_SEG_SIZE);
        let server = CompadresServer::assemble(
            ObjectRegistry::with_echo(),
            ReactorConfig::default(),
            server_pool.clone(),
        )
        .unwrap();
        let conn = TcpConn::connect(server.reactor.addr()).unwrap();
        let client = CompadresClient::assemble(Arc::new(conn), client_pool.clone()).unwrap();
        let payload = vec![0xA5u8; 64 << 10];
        for _ in 0..ECHOES {
            assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
        }
        for (side, pool) in [("client", client_pool), ("server", server_pool)] {
            let stats = pool.stats();
            assert!(stats.leased >= 17 * ECHOES, "{side}: {stats:?}");
            assert_eq!(stats.heap_fallbacks, 0, "{side}: {stats:?}");
        }
    }

    #[test]
    fn varied_message_sizes() {
        let (_server, client) = loopback_echo_pair().unwrap();
        for size in [32usize, 64, 128, 256, 512, 1024] {
            let payload = vec![(size % 251) as u8; size];
            assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
        }
    }
}
