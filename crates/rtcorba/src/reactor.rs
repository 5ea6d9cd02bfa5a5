//! Event-driven server transport: one epoll reactor thread multiplexing
//! every GIOP connection, a small fixed worker pool executing request
//! handlers (DESIGN.md §5h).
//!
//! A thread-per-connection server ([`crate::zen::ZenServer`], the
//! paper's RTZen comparator) is faithful to the paper's echo demo but
//! burns one OS thread (and its stack) per client — a hard wall well
//! before 10k concurrent connections. This module is the I/O model of
//! [`crate::corb::CompadresServer`]; the protocol, dispatch and
//! memory-architecture layers sit above it unchanged:
//!
//! * a **reactor thread** owns readiness: it accepts connections (all
//!   nonblocking), waits on an [`rtplatform::poll::Poller`], reads and
//!   reassembles partial GIOP frames per connection, and finishes the
//!   writes a full socket refused — on `EPOLLOUT`, with one **vectored
//!   write** that coalesces every reply queued behind it;
//! * complete frames flow to a **fixed worker pool** over an
//!   [`rtsched::PriorityFifo`] of connections, all at one priority.
//!   Scheduling is per connection, actor-style: a connection is queued
//!   at most once, a worker drains its inbox in FIFO order, and no two
//!   workers ever process the same connection concurrently — so
//!   pipelined requests on one connection are answered in order;
//! * the worker that builds a reply writes it: a [`ReactorConn`] is a
//!   [`Connection`] whose `send_chain` does the nonblocking `writev`
//!   itself and queues on the connection's outbox only what the socket
//!   refuses, arming `EPOLLOUT` for the reactor. The handler pipeline —
//!   spans, fault replies, service-context echoing — sees an ordinary
//!   [`Connection`].
//!
//! Observability (all on the server's [`Observer`]): `reactor_connections`
//! gauge (+ high-water mark), `reactor_queue_depth` gauge, the
//! `reactor_coalesced_writes` histogram (frames per vectored write),
//! `reactor_partial_frames_total`, `reactor_protocol_errors_total`,
//! `reactor_shed_total` and `reactor_outbox_full_total` counters.

use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtobs::{CounterId, EventKind, GaugeId, HistId, Observer};
use rtplatform::bufchain::{FrameBuf, RecvChain, SegPool, MAX_IOVECS};
use rtplatform::poll::{Interest, PollEvent, Poller, Waker};
use rtplatform::sync::Mutex;
use rtsched::{Priority, PriorityFifo};

use crate::cdr::Endian;
use crate::giop::{self, HEADER_LEN};
use crate::transport::{Connection, TransportError};

/// Token of the listening socket in the reactor's poller.
const TOKEN_LISTENER: u64 = 0;
/// Token of the shutdown eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Frames a worker processes from one connection before requeueing it,
/// so a firehose connection cannot starve its neighbours.
const WORKER_BATCH: usize = 16;

/// The one priority connections are queued at: the work queue is FIFO
/// across connections.
const CONN_PRIORITY: Priority = Priority::NORM;

/// Segments pre-allocated in the receive pool. Each is [`READ_CHUNK`]
/// bytes; exhaustion falls back to heap segments (never blocks the
/// reactor), it just loses the recycling benefit until frames drop.
const RECV_POOL_SEGS: usize = 16;

/// Segment size of the receive pool — the most bytes one `read` call
/// can deliver into a segment. 64 KiB of body plus 4 KiB for the
/// headers: a request of up to 64 KiB that starts a segment also ends
/// in it, so it is carved out as one part (no list) and its body is
/// decoded in place (no copy across a seam).
const READ_CHUNK: usize = (64 << 10) + (4 << 10);

/// Sizing and limits for a [`ReactorServer`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Worker threads executing frame handlers. Keep this at or below
    /// the server's per-request scope-pool size (the Compadres server
    /// CCL provisions 4 level-3 scopes): the pool then never blocks a
    /// worker on scope exhaustion.
    pub workers: usize,
    /// Most complete frames one connection's inbox may hold before the
    /// reactor sheds newly carved frames (`reactor_shed_total`). This is
    /// a coarse per-connection overload valve that ignores the frames'
    /// `RTCorbaPriority` — the shed client sees its recv deadline, not a
    /// wedged reactor. Priority-aware shedding happens downstream at the
    /// component in-ports (see `rtplatform::fault::AdmissionPolicy`).
    ///
    /// The same number caps the replies queued on a connection's
    /// outbox behind a socket that refuses writes: a peer that lets
    /// that many pile up is not reading, and its connection is closed
    /// (`reactor_outbox_full_total`).
    pub inbox_capacity: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        ReactorConfig {
            workers: 4,
            inbox_capacity: 1024,
        }
    }
}

/// One worker's per-frame callback, `(connection, frame)`: each worker
/// thread gets its own from the maker given to [`ReactorServer::spawn`],
/// so what it keeps between frames (a memory context) is that worker's.
/// The frame is a segment chain carved out of the reactor's receive
/// buffers without coalescing — decode it in place
/// ([`crate::giop::decode_view`] over [`FrameBuf::slices`]). Replies
/// (if any) go back through the connection's
/// [`Connection::send_chain`].
pub type FrameFn = Box<dyn FnMut(&Arc<dyn Connection>, FrameBuf) + Send>;

/// State shared between the reactor thread, the workers and every
/// [`ReactorConn`].
struct Shared {
    /// Readiness of the listener, the waker and every connection.
    /// `epoll_ctl` is thread-safe, so the thread that finds a socket
    /// full arms `EPOLLOUT` itself.
    poller: Poller,
    /// Wakes the reactor out of its poll for shutdown.
    waker: Waker,
    /// Receive segments shared by every connection's reassembly chain.
    recv_pool: SegPool,
    /// Connections with frames awaiting a worker. Each is queued at most
    /// once, so this holds no more than the live connections.
    work: PriorityFifo<Arc<ReactorConn>>,
    shutdown: AtomicBool,
    obs: Arc<Observer>,
    conns_gauge: GaugeId,
    depth_gauge: GaugeId,
    coalesce_hist: HistId,
    partial_frames: CounterId,
    protocol_errors: CounterId,
    shed: CounterId,
    outbox_full: CounterId,
    /// Journal subject of the reactor's own events.
    entity: u32,
    /// Most frames a connection's inbox may hold, and its outbox while
    /// the socket refuses writes: [`ReactorConfig::inbox_capacity`].
    frame_cap: usize,
}

impl Shared {
    /// Queues a connection for a worker if it isn't already queued (or
    /// being drained). Called by the reactor after appending to the
    /// inbox.
    fn schedule(&self, conn: &Arc<ReactorConn>) {
        if !conn.scheduled.swap(true, Ordering::SeqCst) {
            self.requeue(conn);
        }
    }

    /// Queues a connection that holds its schedule slot. Once the queue
    /// is closed (shutdown) the connection is simply not served again.
    fn requeue(&self, conn: &Arc<ReactorConn>) {
        if let Some(depth) = self.work.push_with_len(CONN_PRIORITY, Arc::clone(conn)) {
            self.obs.gauge_set(self.depth_gauge, depth as u64);
        }
    }
}

/// Write-side state of one connection: reply frames the socket refused,
/// plus how far into the front frame a partial write got. It holds at
/// most [`ReactorConfig::inbox_capacity`] frames.
#[derive(Default)]
struct OutBuf {
    queue: VecDeque<FrameBuf>,
    /// Bytes of `queue[0]` already written.
    offset: usize,
    /// The socket refused a write and `EPOLLOUT` is armed: new replies
    /// queue behind the rest and the reactor writes them out when the
    /// socket drains. Empty `queue` ⇔ not blocked, except on a
    /// connection that is closing.
    blocked: bool,
}

/// The worker-facing half of a reactor connection. Implements
/// [`Connection`]: `send_chain` writes the reply to the socket, queueing
/// what the socket refuses; `recv_frame` is unsupported (inbound frames
/// are delivered to the [`FrameFn`], never pulled).
pub struct ReactorConn {
    token: u64,
    /// Read by the reactor, written by whoever holds `outbox`. Owned
    /// here, so the fd stays open — and cannot be reused by a newer
    /// connection — while any worker still holds this one.
    stream: TcpStream,
    shared: Arc<Shared>,
    /// Complete inbound frames awaiting a worker, FIFO. Each frame
    /// shares (refcounts) the receive segments it was carved from.
    inbox: Mutex<VecDeque<FrameBuf>>,
    /// Whether this connection currently sits in the work queue (or is
    /// being drained by a worker).
    scheduled: AtomicBool,
    outbox: Mutex<OutBuf>,
    /// Set by `close()`, a protocol violation, a full outbox, a write
    /// error, or the reactor dropping the connection. Once nothing is
    /// queued the socket is shut down; the reactor sees the hang-up and
    /// drops the connection.
    closing: AtomicBool,
}

impl std::fmt::Debug for ReactorConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorConn(token={})", self.token)
    }
}

impl ReactorConn {
    /// Writes the outbox with vectored writes until it is empty or the
    /// socket refuses more, arming `EPOLLOUT` on a refusal and
    /// disarming it once the queue drains; shuts the socket down when a
    /// closing connection has nothing left to write. Runs under the
    /// outbox lock: from `send_chain` when nothing was queued, and from
    /// the reactor on `EPOLLOUT`.
    fn write_out(&self, out: &mut OutBuf) -> Result<(), TransportError> {
        while !out.queue.is_empty() {
            // Gather what is left of the head frame plus the frames
            // queued behind it: one syscall carries every reply queued
            // since the socket filled, each frame contributing its
            // segments as separate iovecs (never copied together). The
            // last frame gathered may be cut short by the list's
            // length; the byte count written says where to resume.
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            let mut set = 0;
            let mut frames_gathered = 0u64;
            for frame in &out.queue {
                if set == MAX_IOVECS {
                    break;
                }
                let skip = if frames_gathered == 0 { out.offset } else { 0 };
                set += frame.io_slices_from(skip, &mut iov[set..]);
                frames_gathered += 1;
            }
            self.shared
                .obs
                .observe(self.shared.coalesce_hist, frames_gathered);
            match (&self.stream).write_vectored(&iov[..set]) {
                Ok(mut written) => {
                    while written > 0 {
                        let head_left = out.queue[0].len() - out.offset;
                        if written >= head_left {
                            written -= head_left;
                            out.queue.pop_front();
                            out.offset = 0;
                        } else {
                            out.offset += written;
                            written = 0;
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if !out.blocked {
                        out.blocked = true;
                        self.set_interest(Interest::BOTH);
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    out.queue.clear();
                    out.offset = 0;
                    self.closing.store(true, Ordering::SeqCst);
                    let _ = self.stream.shutdown(Shutdown::Both);
                    return Err(TransportError::Io(e));
                }
            }
        }
        if out.blocked {
            out.blocked = false;
            self.set_interest(Interest::READ);
        }
        if self.closing.load(Ordering::SeqCst) {
            let _ = self.stream.shutdown(Shutdown::Both);
        }
        Ok(())
    }

    /// Changes what the reactor polls this socket for. Fails harmlessly
    /// once the reactor has deregistered it.
    fn set_interest(&self, interest: Interest) {
        let _ = self
            .shared
            .poller
            .modify(self.stream.as_raw_fd(), self.token, interest);
    }
}

impl Connection for ReactorConn {
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        if self.closing.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let mut out = self.outbox.lock();
        if out.blocked && out.queue.len() >= self.shared.frame_cap {
            // A full outbox behind a socket that takes no more: the
            // peer is not reading. Hang up instead of queueing without
            // bound.
            out.queue.clear();
            out.offset = 0;
            if !self.closing.swap(true, Ordering::SeqCst) {
                let shared = &self.shared;
                shared.obs.inc(shared.outbox_full);
                shared
                    .obs
                    .record(EventKind::OutboxFull, shared.entity, self.token);
            }
            let _ = self.write_out(&mut out);
            return Err(TransportError::Closed);
        }
        // Cloning a FrameBuf only bumps segment refcounts: the reply
        // bytes written by the chain encoder are the bytes scattered
        // into the socket, now or — behind a blocked socket — later.
        out.queue.push_back(frame.clone());
        if out.blocked {
            return Ok(());
        }
        self.write_out(&mut out)
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        Err(TransportError::Io(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor connections deliver frames to the handler; recv_frame is never valid",
        )))
    }

    fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let mut out = self.outbox.lock();
        if !out.blocked {
            // Nothing queued: hang up now. A blocked outbox is written
            // out on EPOLLOUT first, and the hang-up follows it.
            let _ = self.write_out(&mut out);
        }
    }
}

/// Read-side state owned exclusively by the reactor thread.
struct ConnEntry {
    conn: Arc<ReactorConn>,
    /// Partial-frame reassembly chain: reads land directly in pooled
    /// segments and complete frames are carved off as [`FrameBuf`]s
    /// sharing those segments — bytes are never copied together.
    chain: RecvChain,
}

/// Handle to a running reactor server. Dropping it shuts the reactor,
/// its workers and every connection down.
pub struct ReactorServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ReactorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorServer({:?})", self.addr)
    }
}

impl ReactorServer {
    /// Binds `127.0.0.1:0` and spawns the reactor thread plus
    /// `cfg.workers` worker threads; inbound frames are handed to the
    /// worker's own `make_handler()` callback.
    ///
    /// # Errors
    ///
    /// Bind, epoll or thread-spawn failures.
    pub fn spawn(
        make_handler: impl Fn() -> FrameFn,
        obs: Arc<Observer>,
        cfg: ReactorConfig,
    ) -> Result<ReactorServer, TransportError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(TransportError::Io)?;
        listener.set_nonblocking(true).map_err(TransportError::Io)?;
        let addr = listener.local_addr().map_err(TransportError::Io)?;
        let poller = Poller::new().map_err(TransportError::Io)?;
        poller
            .register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .map_err(TransportError::Io)?;
        let waker = Waker::new(&poller, TOKEN_WAKER).map_err(TransportError::Io)?;

        let shared = Arc::new(Shared {
            poller,
            waker,
            recv_pool: SegPool::new(RECV_POOL_SEGS, READ_CHUNK),
            work: PriorityFifo::new(),
            shutdown: AtomicBool::new(false),
            conns_gauge: obs.gauge("reactor_connections"),
            depth_gauge: obs.gauge("reactor_queue_depth"),
            coalesce_hist: obs.histogram("reactor_coalesced_writes"),
            partial_frames: obs.counter("reactor_partial_frames_total"),
            protocol_errors: obs.counter("reactor_protocol_errors_total"),
            shed: obs.counter("reactor_shed_total"),
            outbox_full: obs.counter("reactor_outbox_full_total"),
            entity: obs.register_entity("reactor"),
            frame_cap: cfg.inbox_capacity.max(1),
            obs,
        });

        let mut workers = Vec::with_capacity(cfg.workers.max(1));
        for i in 0..cfg.workers.max(1) {
            let shared2 = Arc::clone(&shared);
            let handler = make_handler();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("orb-reactor-worker-{i}"))
                    .spawn(move || worker_loop(&shared2, handler))
                    .map_err(TransportError::Io)?,
            );
        }
        let shared2 = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("orb-reactor".into())
            .spawn(move || reactor_loop(&shared2, listener))
            .map_err(TransportError::Io)?;

        Ok(ReactorServer {
            addr,
            shared,
            reactor: Some(reactor),
            workers,
        })
    }

    /// The bound address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the reactor and workers; all connections are severed.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.shared.work.close();
    }
}

impl Drop for ReactorServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.reactor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// Worker: take a connection from the work queue (parking while it is
/// empty), drain (a batch of) its inbox through the handler; stop once
/// the queue is closed and drained.
fn worker_loop(shared: &Shared, mut handler: FrameFn) {
    while let Some((_, conn)) = shared.work.pop() {
        shared
            .obs
            .gauge_set(shared.depth_gauge, shared.work.len() as u64);
        drain_conn(shared, &conn, &mut handler);
    }
}

/// Processes up to [`WORKER_BATCH`] frames from `conn`'s inbox in FIFO
/// order, then either requeues it (more work pending — fairness) or
/// releases its schedule slot with the usual lost-wakeup re-check.
fn drain_conn(shared: &Shared, conn: &Arc<ReactorConn>, handler: &mut FrameFn) {
    let as_dyn: Arc<dyn Connection> = Arc::clone(conn) as Arc<dyn Connection>;
    let mut handled = 0;
    while handled < WORKER_BATCH {
        let frame = conn.inbox.lock().pop_front();
        let Some(frame) = frame else { break };
        handler(&as_dyn, frame);
        handled += 1;
    }
    if handled == WORKER_BATCH && !conn.inbox.lock().is_empty() {
        // Requeue at the tail, still scheduled, so another worker
        // continues this connection after its peers.
        shared.requeue(conn);
        return;
    }
    conn.scheduled.store(false, Ordering::SeqCst);
    // Re-check: the reactor may have appended between the last pop and
    // the store. Whoever wins the swap in `schedule` owns the requeue.
    if !conn.inbox.lock().is_empty() {
        shared.schedule(conn);
    }
}

/// The reactor thread: accept, read/frame, finish refused writes,
/// repeat.
fn reactor_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<PollEvent> = Vec::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // The timeout is a shutdown-latency bound, not a poll interval:
        // all data paths wake the loop via fd readiness or the eventfd.
        if shared
            .poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => accept_ready(shared, &listener, &mut conns, &mut next_token),
                TOKEN_WAKER => shared.waker.drain(),
                token => {
                    if ev.readable || ev.closed {
                        read_ready(shared, &mut conns, token, ev.closed);
                    }
                    if ev.writable {
                        if let Some(entry) = conns.get(&token) {
                            // The socket drained: finish the replies it
                            // refused.
                            let _ = entry.conn.write_out(&mut entry.conn.outbox.lock());
                        }
                    }
                }
            }
        }
    }

    // Shutdown: sever every connection so blocked peers fail fast.
    for (_, entry) in conns.drain() {
        drop_conn(shared, &entry);
    }
}

fn accept_ready(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, ConnEntry>,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let token = *next_token;
                *next_token += 1;
                if shared
                    .poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                let conn = Arc::new(ReactorConn {
                    token,
                    stream,
                    shared: Arc::clone(shared),
                    inbox: Mutex::new(VecDeque::new()),
                    scheduled: AtomicBool::new(false),
                    outbox: Mutex::new(OutBuf::default()),
                    closing: AtomicBool::new(false),
                });
                conns.insert(
                    token,
                    ConnEntry {
                        conn,
                        chain: RecvChain::new(&shared.recv_pool),
                    },
                );
                shared.obs.gauge_add(shared.conns_gauge, 1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Drains the socket, reassembles frames, delivers them, and tears the
/// connection down on EOF/error (after delivering what arrived).
fn read_ready(shared: &Shared, conns: &mut HashMap<u64, ConnEntry>, token: u64, peer_closed: bool) {
    let Some(entry) = conns.get_mut(&token) else {
        return;
    };
    // Reads land directly in pooled segment memory; frames carved
    // below share those segments instead of being copied out.
    let eof = fill_chain(&mut entry.chain, &mut &entry.conn.stream, peer_closed);

    // Carve every complete frame out of the reassembly chain.
    let mut delivered = false;
    loop {
        let mut header = [0u8; HEADER_LEN];
        if !entry.chain.peek(0, &mut header) {
            if !entry.chain.is_empty() {
                shared.obs.inc(shared.partial_frames);
            }
            break;
        }
        let body = match giop::parse_header(&header) {
            Ok((_, _, b)) => b,
            Err(_) => {
                // Bad magic or absurd size: this is not a GIOP stream.
                // Tell the peer (MessageError), then hang up once the
                // reply has been written.
                shared.obs.inc(shared.protocol_errors);
                let error = giop::encode_error(Endian::native()).to_vec();
                let _ = entry.conn.send_chain(&FrameBuf::from_vec(error));
                entry.conn.close();
                let discard = entry.chain.len();
                let _ = entry.chain.take_frame(discard);
                return;
            }
        };
        let total = HEADER_LEN + body;
        if entry.chain.len() < total {
            shared.obs.inc(shared.partial_frames);
            break;
        }
        let frame = entry.chain.take_frame(total);
        {
            let mut inbox = entry.conn.inbox.lock();
            if inbox.len() >= shared.frame_cap {
                // Inbox over capacity: shed the frame instead of queueing
                // unboundedly. The peer learns via its recv deadline.
                drop(inbox);
                shared.obs.inc(shared.shed);
                continue;
            }
            inbox.push_back(frame);
        }
        delivered = true;
    }
    if delivered {
        shared.schedule(&entry.conn);
    }
    if eof {
        if let Some(entry) = conns.remove(&token) {
            drop_conn(shared, &entry);
        }
    }
}

/// Reads what the socket holds into `chain`; returns whether the peer
/// has gone (EOF, a socket error, or `peer_closed`). From a peer still
/// sending it stops once a segment's worth is buffered, so the caller
/// carves frames before reading on: a peer that writes faster than it
/// is served holds one segment here, not everything its socket
/// delivers, and the level-triggered poll returns for the rest. A peer
/// that has closed is read to EOF, so every request it sent first is
/// delivered.
fn fill_chain(chain: &mut RecvChain, stream: &mut impl io::Read, peer_closed: bool) -> bool {
    loop {
        match chain.read_from(stream) {
            Ok(0) => return true,
            Ok(_) if !peer_closed && chain.len() >= READ_CHUNK => return false,
            Ok(_) => {} // loop until WouldBlock (socket is nonblocking)
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return peer_closed,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
}

/// Stops polling a connection the reactor has forgotten and severs it.
/// A worker still holding it finds it closing.
fn drop_conn(shared: &Shared, entry: &ConnEntry) {
    let conn = &entry.conn;
    conn.closing.store(true, Ordering::SeqCst);
    shared.poller.deregister(conn.stream.as_raw_fd());
    let _ = conn.stream.shutdown(Shutdown::Both);
    shared.obs.gauge_sub(shared.conns_gauge, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::giop::{decode_view, MessageView};
    use crate::transport::TcpConn;

    fn pool() -> SegPool {
        SegPool::new(4, 256)
    }

    /// A handler that echoes the request body back in a reply frame,
    /// decoding in place over the delivered segment chain.
    fn echo_handler() -> FrameFn {
        let pool = pool();
        Box::new(move |conn, frame| {
            let parts = frame.slices();
            if let Ok(MessageView::Request(req)) = decode_view(&parts) {
                if req.response_expected {
                    let reply = giop::ReplyView {
                        request_id: req.request_id,
                        status: giop::ReplyStatus::NoException,
                        service_context: req.service_context,
                        body: req.body,
                    };
                    let _ = conn.send_chain(&reply.encode_chain(Endian::native(), &pool));
                }
            }
        })
    }

    fn request(id: u32, body: &[u8]) -> FrameBuf {
        giop::encode_request_chain(
            id,
            true,
            b"echo",
            "echo",
            body,
            &[],
            Endian::native(),
            &pool(),
        )
    }

    /// Receives one frame and returns its reply id and body.
    fn recv_reply(conn: &TcpConn) -> (u32, Vec<u8>) {
        let frame = conn.recv_frame().unwrap();
        match decode_view(&[&frame]).unwrap() {
            MessageView::Reply(r) => (r.request_id, r.body.into_owned()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn echo_roundtrip_through_reactor() {
        let srv =
            ReactorServer::spawn(echo_handler, Observer::new(), ReactorConfig::default()).unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        conn.send_chain(&request(1, &[1, 2, 3])).unwrap();
        assert_eq!(recv_reply(&conn), (1, vec![1, 2, 3]));
    }

    #[test]
    fn pipelined_requests_reply_in_order() {
        let srv =
            ReactorServer::spawn(echo_handler, Observer::new(), ReactorConfig::default()).unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        // Fire 50 requests before reading a single reply.
        for i in 0..50u32 {
            conn.send_chain(&request(i, &i.to_be_bytes())).unwrap();
        }
        for i in 0..50u32 {
            assert_eq!(recv_reply(&conn).0, i, "FIFO per connection");
        }
    }

    #[test]
    fn many_connections_multiplex() {
        let obs = Observer::new();
        let srv =
            ReactorServer::spawn(echo_handler, Arc::clone(&obs), ReactorConfig::default()).unwrap();
        let conns: Vec<TcpConn> = (0..64)
            .map(|_| TcpConn::connect(srv.addr()).unwrap())
            .collect();
        for (i, c) in conns.iter().enumerate() {
            c.send_chain(&request(i as u32, &[i as u8; 32])).unwrap();
        }
        for (i, c) in conns.iter().enumerate() {
            assert_eq!(recv_reply(c).1, vec![i as u8; 32]);
        }
        let g = obs.gauge("reactor_connections");
        assert!(obs.gauge_hwm(g) >= 64, "gauge saw all connections");
    }

    #[test]
    fn garbage_stream_gets_message_error_then_close() {
        let srv =
            ReactorServer::spawn(echo_handler, Observer::new(), ReactorConfig::default()).unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        let garbage = b"this is not giop at all.....".to_vec();
        conn.send_chain(&FrameBuf::from_vec(garbage)).unwrap();
        let frame = conn.recv_frame().unwrap();
        match decode_view(&[&frame]) {
            Ok(MessageView::Error) => {}
            other => panic!("expected MessageError, got {other:?}"),
        }
        assert!(matches!(
            conn.recv_frame(),
            Err(TransportError::Closed) | Err(TransportError::Io(_))
        ));
    }

    #[test]
    fn shutdown_severs_connections() {
        let srv =
            ReactorServer::spawn(echo_handler, Observer::new(), ReactorConfig::default()).unwrap();
        let conn = TcpConn::connect(srv.addr()).unwrap();
        conn.send_chain(&request(9, &[9])).unwrap();
        let _ = conn.recv_frame().unwrap();
        srv.shutdown();
        assert!(conn.recv_frame().is_err(), "severed on shutdown");
    }

    #[test]
    fn a_closed_peer_is_read_to_eof_an_open_one_a_segment_at_a_time() {
        let pool = SegPool::new(RECV_POOL_SEGS, READ_CHUNK);
        let sent = vec![0x3C; 3 * READ_CHUNK];
        // Still open: one segment's worth, then the caller carves.
        let mut chain = RecvChain::new(&pool);
        let mut src = &sent[..];
        assert!(!fill_chain(&mut chain, &mut src, false));
        assert_eq!(chain.len(), READ_CHUNK);
        // Half-closed: everything up to EOF, whatever it spans.
        let mut chain = RecvChain::new(&pool);
        let mut src = &sent[..];
        assert!(fill_chain(&mut chain, &mut src, true));
        assert_eq!(chain.len(), sent.len());
    }
}
