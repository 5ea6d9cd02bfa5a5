//! ZenOrb — the hand-coded baseline ORB standing in for RTZen.
//!
//! The paper compares its Compadres-assembled ORB against RTZen, a
//! hand-written RTSJ RT-CORBA implementation that manages scoped memory
//! manually (§3.2–3.3). ZenOrb reproduces that comparator on the same
//! substrate: the same CDR/GIOP/transport stack, with the RTZen memory
//! architecture — client: ORB (immortal) → Transport scope → per-request
//! MessageProcessing scope; server: ORB (immortal) → POA/Acceptor scope →
//! per-connection Transport scope → per-request RequestProcessing scope —
//! but with direct function calls instead of components, ports and SMMs.
//! Policy checking is omitted, as in the paper's experiment.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use rtplatform::bufchain::{FrameBuf, SegPool, DEFAULT_SEG_SIZE};
use rtplatform::sync::Mutex;

use rtmem::{Ctx, MemoryModel, ScopePool, Wedge};

use crate::cdr::Endian;
use crate::giop::{self, MessageView, ReplyStatus};
use crate::service::ObjectRegistry;
use crate::transport::{Connection, TcpConn, TcpServer, TransportError};
use crate::{InvokeOptions, OrbError, CLIENT_POOL_SEGS, SERVER_POOL_SEGS};

const TRANSPORT_SCOPE: usize = 64 << 10;
const REQUEST_SCOPE: usize = 64 << 10;

/// The hand-coded client ORB.
///
/// Each `invoke` enters the persistent transport scope, creates (from a
/// pool) a message-processing scope, marshals the request there, performs
/// the round trip and reclaims the scope — RTZen's architecture in direct
/// code.
pub struct ZenClient {
    model: MemoryModel,
    conn: Arc<dyn Connection>,
    transport_scope: rtmem::RegionId,
    _transport_wedge: Wedge,
    processing_pool: ScopePool,
    seg_pool: SegPool,
    ctx: Mutex<Ctx>,
    next_id: AtomicU32,
    endian: Endian,
}

impl std::fmt::Debug for ZenClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ZenClient")
    }
}

impl ZenClient {
    /// Builds a client over an established connection.
    ///
    /// # Errors
    ///
    /// Fails if the scoped-memory architecture cannot be created.
    pub fn from_conn(conn: Arc<dyn Connection>) -> Result<ZenClient, OrbError> {
        let model = MemoryModel::new();
        let transport_scope = model.create_scoped(TRANSPORT_SCOPE)?;
        let wedge = Wedge::pin_from_base(&model, transport_scope)?;
        let processing_pool = ScopePool::new(&model, 2, REQUEST_SCOPE, 2)?;
        Ok(ZenClient {
            ctx: Mutex::new(Ctx::no_heap(&model)),
            model,
            conn,
            transport_scope,
            _transport_wedge: wedge,
            processing_pool,
            seg_pool: SegPool::new(CLIENT_POOL_SEGS, DEFAULT_SEG_SIZE),
            next_id: AtomicU32::new(1),
            endian: Endian::native(),
        })
    }

    pub(crate) fn tcp(addr: SocketAddr) -> Result<ZenClient, OrbError> {
        let conn = TcpConn::connect(addr)?;
        ZenClient::from_conn(Arc::new(conn))
    }

    pub(crate) fn tcp_with(
        addr: SocketAddr,
        policy: &rtplatform::fault::FaultPolicy,
    ) -> Result<ZenClient, OrbError> {
        let conn = TcpConn::connect_with(addr, policy)?;
        ZenClient::from_conn(Arc::new(conn))
    }

    /// Connects to the ORB endpoint named by a stringified `corbaloc`
    /// object reference (the CORBA `string_to_object` flow).
    ///
    /// # Errors
    ///
    /// Reference parse/resolution failures, then connection or
    /// memory-architecture failures.
    pub fn connect_ref(reference: &str) -> Result<(ZenClient, Vec<u8>), OrbError> {
        let obj = crate::ior::ObjectRef::parse(reference)?;
        let addr = obj.socket_addr()?;
        Ok((ZenClient::tcp(addr)?, obj.object_key))
    }

    /// The memory model (for instrumentation).
    pub fn model(&self) -> &MemoryModel {
        &self.model
    }

    /// Performs an invocation shaped by `opts` — two-way or oneway. The
    /// unified entry point behind [`invoke`](ZenClient::invoke) and
    /// [`invoke_oneway`](ZenClient::invoke_oneway). ZenOrb has no
    /// tracing subsystem, so `opts.budget` is ignored (see
    /// [`InvokeOptions::budget`]). A oneway invocation returns an empty
    /// body.
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
        let request_id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let oneway = opts.oneway;
        let mut ctx = self.ctx.lock();
        let lease = self.processing_pool.acquire()?;
        let processing = lease.region();
        let conn = Arc::clone(&self.conn);
        let endian = self.endian;
        let out: Result<Vec<u8>, OrbError> = ctx
            .enter(self.transport_scope, |ctx| {
                ctx.enter(processing, |_ctx| {
                    // Marshal inside the per-request scope, but into
                    // pool-leased segments: the bytes are written once
                    // (chain encoder) and scattered to the socket with
                    // vectored I/O. The segments recycle into the pool
                    // when the frame drops at the end of the request —
                    // the chain plays the role the staging copy used to.
                    let frame = giop::encode_request_chain(
                        request_id,
                        !oneway,
                        object_key,
                        operation,
                        args,
                        &[],
                        endian,
                        &self.seg_pool,
                    );
                    conn.send_chain(&frame)?;
                    if oneway {
                        return Ok(Vec::new());
                    }
                    let reply_frame = conn.recv_frame()?;
                    // Decode in place over the received buffer; the
                    // only copy taken is the reply body, which escapes
                    // the request scope to the caller.
                    let parts = [&reply_frame[..]];
                    match giop::decode_view(&parts)? {
                        MessageView::Reply(r) if r.request_id == request_id => match r.status {
                            ReplyStatus::NoException => Ok(r.body.into_owned()),
                            ReplyStatus::SystemException => Err(OrbError::Exception(
                                String::from_utf8_lossy(&r.body).into_owned(),
                            )),
                            ReplyStatus::ObjectNotExist => Err(OrbError::ObjectNotExist),
                        },
                        MessageView::Reply(r) => Err(OrbError::RequestMismatch {
                            expected: request_id,
                            got: r.request_id,
                        }),
                        _ => Err(OrbError::UnexpectedMessage),
                    }
                })?
            })
            .map_err(OrbError::from)?;
        out
    }

    /// Sends a **oneway** invocation: no reply is expected or waited for
    /// (GIOP `response_expected = false`).
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

    /// Performs a synchronous two-way invocation.
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
}

/// Handle to a running hand-coded server ORB: a [`TcpServer`] with one
/// `zen-transport` thread per client — the paper's RTZen comparator
/// architecture. Dropping it severs and joins every connection.
pub struct ZenServer {
    server: TcpServer,
}

impl std::fmt::Debug for ZenServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ZenServer({:?})", self.server.local_addr())
    }
}

/// The server-side memory architecture and dispatch logic, shared by
/// every connection's transport thread.
struct ServerCore {
    model: MemoryModel,
    registry: Arc<ObjectRegistry>,
    poa_scope: rtmem::RegionId,
    _poa_wedge: Wedge,
    request_pool: ScopePool,
    seg_pool: SegPool,
    endian: Endian,
}

impl ServerCore {
    fn new(registry: Arc<ObjectRegistry>) -> Result<ServerCore, OrbError> {
        let model = MemoryModel::new();
        let poa_scope = model.create_scoped(TRANSPORT_SCOPE)?;
        let poa_wedge = Wedge::pin_from_base(&model, poa_scope)?;
        let request_pool = ScopePool::new(&model, 3, REQUEST_SCOPE, 4)?;
        Ok(ServerCore {
            model,
            registry,
            poa_scope,
            _poa_wedge: poa_wedge,
            request_pool,
            seg_pool: SegPool::new(SERVER_POOL_SEGS, DEFAULT_SEG_SIZE),
            endian: Endian::native(),
        })
    }

    /// Serves one connection until it closes: POA scope → per-connection
    /// transport scope → per-request processing scope.
    fn serve_connection(&self, conn: TcpConn) {
        let mut ctx = Ctx::no_heap(&self.model);
        let Ok(transport_scope) = self.model.create_scoped(TRANSPORT_SCOPE) else {
            return;
        };
        let _ = ctx.enter(self.poa_scope, |ctx| {
            let _ = ctx.enter(transport_scope, |ctx| {
                while let Ok(frame) = conn.recv_frame() {
                    let Ok(lease) = self.request_pool.acquire() else {
                        break;
                    };
                    let request_region = lease.region();
                    let outcome = ctx.enter(request_region, |_ctx| {
                        // Decode in place over the received buffer: the key,
                        // operation and body are borrowed views, and the
                        // reply marshals into pool-leased segments sent with
                        // vectored I/O — no staging copy either way.
                        let parts = [&frame[..]];
                        match giop::decode_view(&parts) {
                            Ok(MessageView::Request(req)) => {
                                let reply = self.registry.dispatch_view(&req);
                                if req.response_expected {
                                    let out = reply.encode_chain(self.endian, &self.seg_pool);
                                    conn.send_chain(&out).is_ok()
                                } else {
                                    true
                                }
                            }
                            Ok(_) => false, // CloseConnection, or not a request
                            Err(_) => {
                                // Tell the peer its frame was garbage before
                                // hanging up, so it fails fast instead of
                                // waiting out its reply deadline.
                                let error = giop::encode_error(self.endian).to_vec();
                                let _ = conn.send_chain(&FrameBuf::from_vec(error));
                                false
                            }
                        }
                    });
                    if !matches!(outcome, Ok(true)) {
                        break;
                    }
                }
            });
        });
        let _ = self.model.destroy_scoped(transport_scope);
    }
}

impl ZenServer {
    /// Binds `127.0.0.1:0` and starts serving it.
    pub(crate) fn serve(registry: Arc<ObjectRegistry>) -> Result<ZenServer, OrbError> {
        let core = ServerCore::new(registry)?;
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(TransportError::Io)?;
        let server = TcpServer::spawn(listener, "zen-transport", move |conn| {
            core.serve_connection(conn)
        })
        .map_err(TransportError::Io)?;
        Ok(ZenServer { server })
    }

    /// The TCP address clients connect to (always `Some`).
    pub fn addr(&self) -> Option<SocketAddr> {
        Some(self.server.local_addr())
    }

    /// Stops accepting and severs every connection, so no further
    /// request is answered; the threads are joined on drop.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }
}

/// Convenience: an echo server on `127.0.0.1:0` plus a client connected
/// to it over TCP loopback (the paper's Fig. 11 setup).
///
/// # Errors
///
/// Bind, connection or memory-architecture failures.
pub fn loopback_echo_pair() -> Result<(ZenServer, ZenClient), OrbError> {
    let server = ZenServer::serve(ObjectRegistry::with_echo())?;
    let client = ZenClient::tcp(server.server.local_addr())?;
    Ok((server, client))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_echo_roundtrip() {
        let (_server, client) = loopback_echo_pair().unwrap();
        let reply = client.invoke(b"echo", "echo", &[1, 2, 3, 4]).unwrap();
        assert_eq!(reply, vec![1, 2, 3, 4]);
        // Request scopes are pooled and reclaimed; repeated invokes work.
        for i in 0..50u8 {
            let reply = client.invoke(b"echo", "echo", &[i]).unwrap();
            assert_eq!(reply, vec![i]);
        }
    }

    #[test]
    fn tcp_echo_roundtrip() {
        let server = crate::ServerBuilder::new(ObjectRegistry::with_echo())
            .serve_zen()
            .unwrap();
        let client = crate::ClientBuilder::new()
            .connect_zen(server.addr().unwrap())
            .unwrap();
        let payload = vec![9u8; 512];
        assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
        assert_eq!(
            client.invoke(b"echo", "reverse", &[1, 2, 3]).unwrap(),
            vec![3, 2, 1]
        );
        server.shutdown();
    }

    /// Threads named by `ZenServer`: its acceptor and one per connection.
    fn zen_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("zen-transport"))
            .count()
    }

    #[test]
    fn shutdown_severs_every_connection() {
        use std::time::{Duration, Instant};

        let server = ZenServer::serve(ObjectRegistry::with_echo()).unwrap();
        let addr = server.addr().unwrap();
        let client = ZenClient::tcp(addr).unwrap();
        assert_eq!(client.invoke(b"echo", "echo", &[1]).unwrap(), vec![1]);
        // A raw connection, answered once so it is past the acceptor.
        let raw = TcpConn::connect(addr).unwrap();
        let pool = SegPool::new(1, 256);
        let request =
            giop::encode_request_chain(1, true, b"echo", "echo", &[2], &[], Endian::Big, &pool);
        raw.send_chain(&request).unwrap();
        raw.recv_frame().unwrap();

        server.shutdown();
        assert!(
            client.invoke(b"echo", "echo", &[3]).is_err(),
            "a stopped server answers nothing"
        );
        raw.set_deadline(Some(Duration::from_secs(1))).unwrap();
        assert!(
            matches!(raw.recv_frame(), Err(TransportError::Closed)),
            "a stopped server hangs up rather than going silent"
        );
        // Other tests' servers end with them; poll rather than expect an
        // instantaneous zero.
        let deadline = Instant::now() + Duration::from_secs(10);
        while zen_threads() > 0 {
            assert!(
                Instant::now() < deadline,
                "zen-transport threads outlived shutdown"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    #[test]
    fn unknown_object_reported() {
        let (_server, client) = loopback_echo_pair().unwrap();
        assert!(matches!(
            client.invoke(b"ghost", "echo", &[]),
            Err(OrbError::ObjectNotExist)
        ));
    }

    #[test]
    fn servant_exception_propagates() {
        let (_server, client) = loopback_echo_pair().unwrap();
        match client.invoke(b"echo", "frobnicate", &[]) {
            Err(OrbError::Exception(msg)) => assert!(msg.contains("unknown operation")),
            other => panic!("expected exception, got {other:?}"),
        }
    }

    #[test]
    fn per_request_scope_reclaimed() {
        let (_server, client) = loopback_echo_pair().unwrap();
        client.invoke(b"echo", "echo", &[0; 128]).unwrap();
        let model = client.model();
        // Processing pool scopes are all free after the call.
        // (transport scope + pool scopes + heap/immortal)
        assert!(model.live_regions() >= 3);
        client.invoke(b"echo", "echo", &[0; 128]).unwrap();
    }
}
