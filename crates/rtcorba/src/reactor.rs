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
//! * a **reactor thread** owns the listening socket and every accepted
//!   connection (all nonblocking), waits on an
//!   [`rtplatform::poll::Poller`], reassembles partial GIOP frames per
//!   connection, and writes replies back with **vectored writes** that
//!   coalesce whatever replies have queued since the last flush;
//! * complete frames flow to a **fixed worker pool** over an
//!   [`rtplatform::ring::MpmcRing`] readiness queue (workers park on an
//!   [`rtplatform::park::Gate`] when idle). Scheduling is per
//!   connection, actor-style: a connection is enqueued at most once, a
//!   worker drains its inbox in FIFO order, and no two workers ever
//!   process the same connection concurrently — so pipelined requests
//!   on one connection are answered in order;
//! * workers reply through a [`ReactorConn`] (a [`Connection`] whose
//!   `send_chain` enqueues the frame on the connection's outbox and nudges
//!   the reactor through an eventfd [`rtplatform::poll::Waker`]), which
//!   means the handler pipeline — spans, fault replies,
//!   service-context echoing — sees an ordinary [`Connection`].
//!
//! Observability (all on the server's [`Observer`]): `reactor_connections`
//! gauge (+ high-water mark), `reactor_queue_depth` gauge, the
//! `reactor_coalesced_writes` histogram (frames per vectored write),
//! `reactor_wakeups_total`, `reactor_partial_frames_total`,
//! `reactor_protocol_errors_total`, `reactor_backpressure_total`,
//! `reactor_shed_total` and `reactor_outbox_full_total` counters.

use std::collections::HashMap;
use std::io::{self, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rtobs::{CounterId, EventKind, GaugeId, HistId, Observer};
use rtplatform::bufchain::{FrameBuf, RecvChain, SegPool, MAX_IOVECS};
use rtplatform::park::Gate;
use rtplatform::poll::{Interest, PollEvent, Poller, Waker};
use rtplatform::ring::MpmcRing;
use rtplatform::sync::Mutex;

use crate::cdr::Endian;
use crate::giop::{self, HEADER_LEN};
use crate::transport::{Connection, TransportError};

/// Token of the listening socket in the reactor's poller.
const TOKEN_LISTENER: u64 = 0;
/// Token of the wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_FIRST_CONN: u64 = 2;

/// Frames a worker processes from one connection before requeueing it,
/// so a firehose connection cannot starve its neighbours.
const WORKER_BATCH: usize = 16;

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

/// Capacity of the readiness and flush queues between reactor and
/// workers (connections, not frames).
const QUEUE_CAPACITY: usize = 4096;

/// Sizing and limits for a [`ReactorServer`].
#[derive(Debug, Clone, Copy)]
pub struct ReactorConfig {
    /// Worker threads executing frame handlers. Keep this at or below
    /// the server's per-request scope-pool size (the Compadres server
    /// CCL provisions 4 level-3 scopes): the pool then never blocks a
    /// worker on scope exhaustion.
    pub workers: usize,
    /// Most complete frames one connection's inbox may hold before the
    /// reactor sheds newly carved frames (`reactor_shed_total`). GIOP
    /// frames carry no priority, so this is a coarse per-connection
    /// overload valve — the shed client sees its recv deadline, not a
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
    waker: Waker,
    /// Receive segments shared by every connection's reassembly chain.
    recv_pool: SegPool,
    /// Connections with frames awaiting processing (each at most once).
    work: MpmcRing<Arc<ReactorConn>>,
    work_gate: Gate,
    /// Connections with replies awaiting flushing (each at most once).
    flush: MpmcRing<u64>,
    /// Spillover when `flush` is momentarily full — never dropped.
    flush_overflow: Mutex<Vec<u64>>,
    shutdown: AtomicBool,
    obs: Arc<Observer>,
    conns_gauge: GaugeId,
    depth_gauge: GaugeId,
    wakeups: CounterId,
    coalesce_hist: HistId,
    partial_frames: CounterId,
    protocol_errors: CounterId,
    backpressure: CounterId,
    shed: CounterId,
    outbox_full: CounterId,
    /// Journal subject of the reactor's own events.
    entity: u32,
    /// Most frames a connection's inbox may hold, and its outbox while
    /// the socket refuses writes: [`ReactorConfig::inbox_capacity`].
    frame_cap: usize,
}

impl Shared {
    /// Queues `token` for a write flush (once) and wakes the reactor.
    fn request_flush(&self, conn: &ReactorConn) {
        if conn.flush_queued.swap(true, Ordering::SeqCst) {
            return;
        }
        if self.flush.push(conn.token).is_err() {
            self.flush_overflow.lock().push(conn.token);
        }
        self.obs.inc(self.wakeups);
        self.waker.wake();
    }

    /// Enqueues a connection for worker processing if it isn't already
    /// queued. Called by the reactor after appending to the inbox.
    fn schedule(&self, conn: &Arc<ReactorConn>) {
        if conn.scheduled.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut item = Arc::clone(conn);
        // The queue holds connections (not frames) so it only fills when
        // `QUEUE_CAPACITY` distinct connections all have pending work;
        // if that happens, the reactor yields until workers drain —
        // natural backpressure that ultimately flows back over TCP.
        while let Err(back) = self.work.push(item) {
            self.obs.inc(self.backpressure);
            std::thread::yield_now();
            item = back;
        }
        self.obs.gauge_set(self.depth_gauge, self.work.len() as u64);
        self.work_gate.notify_one();
    }
}

/// Write-side state of one connection: queued reply frames plus how far
/// into the front frame a partial write got. Once the socket refuses
/// writes it holds at most [`ReactorConfig::inbox_capacity`] frames.
#[derive(Default)]
struct OutBuf {
    queue: std::collections::VecDeque<FrameBuf>,
    /// Bytes of `queue[0]` already written.
    offset: usize,
}

/// The worker-facing half of a reactor connection. Implements
/// [`Connection`]: `send_chain` enqueues on the outbox and nudges the
/// reactor; `recv_frame` is unsupported (inbound frames are delivered to
/// the [`FrameFn`], never pulled).
pub struct ReactorConn {
    token: u64,
    shared: Arc<Shared>,
    /// Complete inbound frames awaiting a worker, FIFO. Each frame
    /// shares (refcounts) the receive segments it was carved from.
    inbox: Mutex<std::collections::VecDeque<FrameBuf>>,
    /// Whether this connection currently sits in the work queue (or is
    /// being drained by a worker).
    scheduled: AtomicBool,
    outbox: Mutex<OutBuf>,
    /// Whether the socket refused the last write (EPOLLOUT armed): the
    /// peer is not keeping up. Written by the reactor only.
    write_blocked: AtomicBool,
    flush_queued: AtomicBool,
    /// Set by `close()`, a protocol violation, a full outbox, or the
    /// reactor dropping the connection. The reactor flushes the outbox,
    /// then hangs up.
    closing: AtomicBool,
}

impl std::fmt::Debug for ReactorConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ReactorConn(token={})", self.token)
    }
}

impl Connection for ReactorConn {
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        if self.closing.load(Ordering::SeqCst) {
            return Err(TransportError::Closed);
        }
        let mut out = self.outbox.lock();
        if out.queue.len() >= self.shared.frame_cap && self.write_blocked.load(Ordering::SeqCst) {
            // A full outbox behind a socket that takes no more: the
            // peer is not reading. Hang up instead of queueing without
            // bound; the reactor drops the connection at its next flush.
            out.queue.clear();
            out.offset = 0;
            drop(out);
            if !self.closing.swap(true, Ordering::SeqCst) {
                let shared = &self.shared;
                shared.obs.inc(shared.outbox_full);
                shared
                    .obs
                    .record(EventKind::OutboxFull, shared.entity, self.token);
            }
            self.shared.request_flush(self);
            return Err(TransportError::Closed);
        }
        // Cloning a FrameBuf only bumps segment refcounts: the reply
        // bytes written by the chain encoder are the bytes the reactor
        // later scatters into the socket.
        out.queue.push_back(frame.clone());
        drop(out);
        self.shared.request_flush(self);
        Ok(())
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        Err(TransportError::Io(io::Error::new(
            io::ErrorKind::Unsupported,
            "reactor connections deliver frames to the handler; recv_frame is never valid",
        )))
    }

    fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        self.shared.request_flush(self);
    }
}

/// Read-side state owned exclusively by the reactor thread.
struct ConnEntry {
    stream: TcpStream,
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
            waker,
            recv_pool: SegPool::new(RECV_POOL_SEGS, READ_CHUNK),
            work: MpmcRing::new(QUEUE_CAPACITY),
            work_gate: Gate::new(),
            flush: MpmcRing::new(QUEUE_CAPACITY),
            flush_overflow: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            conns_gauge: obs.gauge("reactor_connections"),
            depth_gauge: obs.gauge("reactor_queue_depth"),
            wakeups: obs.counter("reactor_wakeups_total"),
            coalesce_hist: obs.histogram("reactor_coalesced_writes"),
            partial_frames: obs.counter("reactor_partial_frames_total"),
            protocol_errors: obs.counter("reactor_protocol_errors_total"),
            backpressure: obs.counter("reactor_backpressure_total"),
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
            .spawn(move || reactor_loop(&shared2, poller, listener))
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
        self.shared.work_gate.notify_all();
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

/// Worker: pop a connection, drain (a batch of) its inbox through the
/// handler, park when there is nothing to do.
fn worker_loop(shared: &Arc<Shared>, mut handler: FrameFn) {
    loop {
        match shared.work.pop() {
            Some(conn) => {
                shared
                    .obs
                    .gauge_set(shared.depth_gauge, shared.work.len() as u64);
                drain_conn(shared, conn, &mut handler);
            }
            None => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let deadline = std::time::Instant::now() + Duration::from_millis(100);
                shared.work_gate.wait(Some(deadline), || {
                    !shared.work.is_empty() || shared.shutdown.load(Ordering::SeqCst)
                });
            }
        }
    }
}

/// Processes up to [`WORKER_BATCH`] frames from `conn`'s inbox in FIFO
/// order, then either requeues it (more work pending — fairness) or
/// releases its schedule slot with the usual lost-wakeup re-check.
fn drain_conn(shared: &Arc<Shared>, conn: Arc<ReactorConn>, handler: &mut FrameFn) {
    let as_dyn: Arc<dyn Connection> = Arc::clone(&conn) as Arc<dyn Connection>;
    let mut handled = 0;
    loop {
        let frame = conn.inbox.lock().pop_front();
        match frame {
            Some(frame) => {
                handler(&as_dyn, frame);
                handled += 1;
                if handled >= WORKER_BATCH {
                    if conn.inbox.lock().is_empty() {
                        continue; // next iteration observes the empty inbox
                    }
                    // Requeue at the tail, still scheduled, so another
                    // worker continues this connection after its peers.
                    let mut item = Arc::clone(&conn);
                    while let Err(back) = shared.work.push(item) {
                        std::thread::yield_now();
                        item = back;
                    }
                    shared.work_gate.notify_one();
                    return;
                }
            }
            None => {
                conn.scheduled.store(false, Ordering::SeqCst);
                // Re-check: the reactor may have appended between the
                // empty pop and the store. Whoever wins the swap owns
                // the requeue.
                if !conn.inbox.lock().is_empty() && !conn.scheduled.swap(true, Ordering::SeqCst) {
                    let mut item = Arc::clone(&conn);
                    while let Err(back) = shared.work.push(item) {
                        std::thread::yield_now();
                        item = back;
                    }
                    shared.work_gate.notify_one();
                }
                return;
            }
        }
    }
}

/// The reactor thread: accept, read/frame, flush, repeat.
fn reactor_loop(shared: &Arc<Shared>, poller: Poller, listener: TcpListener) {
    let mut conns: HashMap<u64, ConnEntry> = HashMap::new();
    let mut next_token = TOKEN_FIRST_CONN;
    let mut events: Vec<PollEvent> = Vec::new();
    // Connections to flush this pass; kept (with its capacity) across
    // passes.
    let mut pending: Vec<u64> = Vec::new();

    while !shared.shutdown.load(Ordering::SeqCst) {
        // The timeout is a shutdown-latency bound, not a poll interval:
        // all data paths wake the loop via fd readiness or the eventfd.
        if poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .is_err()
        {
            break;
        }
        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(shared, &poller, &listener, &mut conns, &mut next_token)
                }
                TOKEN_WAKER => shared.waker.drain(),
                token => {
                    if ev.readable || ev.closed {
                        read_ready(shared, &poller, &mut conns, token, ev.closed);
                    }
                    if ev.writable {
                        flush_conn(shared, &poller, &mut conns, token);
                    }
                }
            }
        }
        // Replies queued by workers since the last pass.
        pending.append(&mut shared.flush_overflow.lock());
        while let Some(token) = shared.flush.pop() {
            pending.push(token);
        }
        for token in pending.drain(..) {
            if let Some(entry) = conns.get(&token) {
                // Clear before flushing: a send racing the flush then
                // re-queues rather than being lost.
                entry.conn.flush_queued.store(false, Ordering::SeqCst);
            }
            flush_conn(shared, &poller, &mut conns, token);
        }
    }

    // Shutdown: sever every connection so blocked peers fail fast.
    for (_, entry) in conns.drain() {
        entry.conn.closing.store(true, Ordering::SeqCst);
        poller.deregister(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(std::net::Shutdown::Both);
    }
    shared.work_gate.notify_all();
}

fn accept_ready(
    shared: &Arc<Shared>,
    poller: &Poller,
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
                if poller
                    .register(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                let conn = Arc::new(ReactorConn {
                    token,
                    shared: Arc::clone(shared),
                    inbox: Mutex::new(std::collections::VecDeque::new()),
                    scheduled: AtomicBool::new(false),
                    outbox: Mutex::new(OutBuf::default()),
                    write_blocked: AtomicBool::new(false),
                    flush_queued: AtomicBool::new(false),
                    closing: AtomicBool::new(false),
                });
                conns.insert(
                    token,
                    ConnEntry {
                        stream,
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
fn read_ready(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    token: u64,
    peer_closed: bool,
) {
    let Some(entry) = conns.get_mut(&token) else {
        return;
    };
    // Reads land directly in pooled segment memory; frames carved
    // below share those segments instead of being copied out.
    let eof = fill_chain(&mut entry.chain, &mut entry.stream, peer_closed);

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
                // reply has flushed.
                shared.obs.inc(shared.protocol_errors);
                let error = giop::encode_error(Endian::native()).to_vec();
                let _ = entry.conn.send_chain(&FrameBuf::from_vec(error));
                entry.conn.closing.store(true, Ordering::SeqCst);
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
        let conn = Arc::clone(&entry.conn);
        shared.schedule(&conn);
    }
    if eof {
        drop_conn(shared, poller, conns, token);
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

/// Flushes the outbox with vectored writes, arming/disarming EPOLLOUT as
/// the socket blocks/unblocks, and completes a deferred close once the
/// outbox is empty.
fn flush_conn(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    token: u64,
) {
    let Some(entry) = conns.get_mut(&token) else {
        return;
    };
    loop {
        let mut out = entry.conn.outbox.lock();
        if out.queue.is_empty() {
            drop(out);
            if entry.conn.write_blocked.swap(false, Ordering::SeqCst) {
                let _ = poller.modify(entry.stream.as_raw_fd(), token, Interest::READ);
            }
            if entry.conn.closing.load(Ordering::SeqCst) {
                drop_conn(shared, poller, conns, token);
            }
            return;
        }
        // Gather what is left of the head frame plus the frames queued
        // behind it: one syscall carries every reply coalesced since the
        // last flush, each frame contributing its segments as separate
        // iovecs (never copied together). The last frame gathered may
        // be cut short by the list's length; the byte count written
        // says where the next pass resumes.
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
        shared.obs.observe(shared.coalesce_hist, frames_gathered);
        match entry.stream.write_vectored(&iov[..set]) {
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
                // Loop: either more queued frames, or empty → epilogue.
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                drop(out);
                if !entry.conn.write_blocked.swap(true, Ordering::SeqCst) {
                    let _ = poller.modify(entry.stream.as_raw_fd(), token, Interest::BOTH);
                }
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                drop(out);
                drop_conn(shared, poller, conns, token);
                return;
            }
        }
    }
}

fn drop_conn(
    shared: &Arc<Shared>,
    poller: &Poller,
    conns: &mut HashMap<u64, ConnEntry>,
    token: u64,
) {
    if let Some(entry) = conns.remove(&token) {
        entry.conn.closing.store(true, Ordering::SeqCst);
        poller.deregister(entry.stream.as_raw_fd());
        let _ = entry.stream.shutdown(std::net::Shutdown::Both);
        shared.obs.gauge_sub(shared.conns_gauge, 1);
    }
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
