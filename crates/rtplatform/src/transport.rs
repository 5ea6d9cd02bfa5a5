//! Transports carrying GIOP frames: TCP, and an in-process pair.
//!
//! The paper's evaluation runs client and server "on a single machine
//! connected via loopback network" (§3.3), which is [`TcpConn`] to
//! `127.0.0.1`. [`LoopbackConn`] is the in-process [`Connection`] that
//! tests put under a client ORB or a `chaos` wrapper when no server is
//! wanted. Both frame messages as GIOP does, so the ORB code is
//! transport-agnostic. Every blocking GIOP socket — both ORBs' clients,
//! ZenOrb's server, core's remote ports — is a [`TcpConn`]; [`TcpServer`]
//! serves them, a thread per connection.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::bufchain::FrameBuf;
use crate::fault::FaultPolicy;
use crate::giop::{self, HEADER_LEN};
use crate::poll::Acceptor;
use crate::sync::{Condvar, Mutex};

/// Transport errors.
///
/// Each injectable network fault class maps to exactly one variant (the
/// mapping is exercised by rtcorba's `tests/fault_mapping.rs`):
///
/// | fault class                  | variant        |
/// |------------------------------|----------------|
/// | dropped frame / stalled peer | [`Deadline`](TransportError::Deadline) — indistinguishable on the wire: in both cases no bytes arrive before the recv deadline |
/// | mid-frame disconnect         | [`Closed`](TransportError::Closed) — the stream ends inside a frame |
/// | corrupt / truncated framing  | [`Protocol`](TransportError::Protocol) — bytes arrive but violate GIOP |
/// | any other socket failure     | [`Io`](TransportError::Io) |
#[derive(Debug)]
pub enum TransportError {
    /// Underlying socket error.
    Io(io::Error),
    /// The peer closed the connection.
    Closed,
    /// The incoming frame violated GIOP framing.
    Protocol(giop::GiopError),
    /// The operation did not complete before its configured deadline
    /// (see [`Connection::set_deadline`] and [`FaultPolicy`]). The
    /// connection itself may still be usable, but a caller that cannot
    /// tell a late reply from a lost one should drop it and reconnect.
    Deadline,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Closed => write!(f, "connection closed by peer"),
            TransportError::Protocol(e) => write!(f, "framing error: {e}"),
            TransportError::Deadline => write!(f, "operation missed its deadline"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<io::Error> for TransportError {
    /// A socket timeout — `TimedOut` or `WouldBlock`, by platform.
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => TransportError::Deadline,
            _ => TransportError::Io(e),
        }
    }
}

/// A bidirectional, framed GIOP connection.
pub trait Connection: Send + Sync {
    /// Sends one complete GIOP frame held as a segment chain. [`TcpConn`]
    /// scatters the segments into the socket with vectored writes, never
    /// copying them together; decorators forward the chain unchanged.
    ///
    /// # Errors
    ///
    /// I/O failures or a closed peer.
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError>;

    /// Receives one complete GIOP frame (header + body), blocking.
    ///
    /// # Errors
    ///
    /// [`TransportError::Closed`] at end of stream; framing violations;
    /// [`TransportError::Deadline`] when a recv deadline is set and
    /// elapses.
    fn recv_frame(&self) -> Result<Vec<u8>, TransportError>;

    /// Bounds how long a subsequent [`recv_frame`](Connection::recv_frame)
    /// may block (`None` = block forever, the default). Implementations
    /// that cannot honour deadlines keep the default no-op — callers that
    /// *require* bounded blocking must use a deadline-capable transport
    /// ([`TcpConn`], [`LoopbackConn`], or a wrapper delegating to one).
    ///
    /// # Errors
    ///
    /// Socket-option failures.
    fn set_deadline(&self, _recv: Option<Duration>) -> Result<(), TransportError> {
        Ok(())
    }

    /// Closes the connection; subsequent operations fail.
    fn close(&self);
}

// ---------------------------------------------------------------------
// Loopback (in-process) transport
// ---------------------------------------------------------------------

#[derive(Default)]
struct Pipe {
    queue: Mutex<(VecDeque<Vec<u8>>, bool)>,
    cond: Condvar,
}

impl Pipe {
    fn push(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let mut g = self.queue.lock();
        if g.1 {
            return Err(TransportError::Closed);
        }
        g.0.push_back(frame);
        drop(g);
        self.cond.notify_one();
        Ok(())
    }

    fn pop(&self, deadline: Option<Duration>) -> Result<Vec<u8>, TransportError> {
        let timeout_at = deadline.map(|d| std::time::Instant::now() + d);
        let mut g = self.queue.lock();
        loop {
            if let Some(frame) = g.0.pop_front() {
                return Ok(frame);
            }
            if g.1 {
                return Err(TransportError::Closed);
            }
            match timeout_at {
                None => self.cond.wait(&mut g),
                Some(at) => {
                    if self.cond.wait_until(&mut g, at).timed_out() && g.0.is_empty() && !g.1 {
                        return Err(TransportError::Deadline);
                    }
                }
            }
        }
    }

    fn close(&self) {
        self.queue.lock().1 = true;
        self.cond.notify_all();
    }
}

/// One endpoint of an in-process loopback connection.
pub struct LoopbackConn {
    tx: Arc<Pipe>,
    rx: Arc<Pipe>,
    recv_deadline: Mutex<Option<Duration>>,
}

impl std::fmt::Debug for LoopbackConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LoopbackConn")
    }
}

/// Creates a connected pair of loopback endpoints.
pub fn loopback_pair() -> (LoopbackConn, LoopbackConn) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        LoopbackConn {
            tx: Arc::clone(&a),
            rx: Arc::clone(&b),
            recv_deadline: Mutex::new(None),
        },
        LoopbackConn {
            tx: b,
            rx: a,
            recv_deadline: Mutex::new(None),
        },
    )
}

impl Connection for LoopbackConn {
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        self.tx.push(frame.to_vec())
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        let deadline = *self.recv_deadline.lock();
        self.rx.pop(deadline)
    }

    fn set_deadline(&self, recv: Option<Duration>) -> Result<(), TransportError> {
        *self.recv_deadline.lock() = recv;
        Ok(())
    }

    fn close(&self) {
        self.tx.close();
        self.rx.close();
    }
}

// ---------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------

/// A framed GIOP connection over a TCP socket (loopback in the paper's
/// setup).
pub struct TcpConn {
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("TcpConn")
    }
}

impl TcpConn {
    /// Wraps a connected stream; disables Nagle for latency fidelity.
    ///
    /// # Errors
    ///
    /// Propagates socket option / clone failures.
    pub fn new(stream: TcpStream) -> Result<TcpConn, TransportError> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(TcpConn {
            reader: Mutex::new(reader),
            writer: Mutex::new(stream),
        })
    }

    /// Connects to a listening ORB endpoint (5 s connect deadline, no
    /// send/recv deadlines — the historical behaviour).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> Result<TcpConn, TransportError> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        TcpConn::new(stream)
    }

    /// Connects under a [`FaultPolicy`]: honours its connect deadline and
    /// arms the socket's send/recv deadlines, so no later operation on
    /// this connection blocks past the policy's bounds.
    ///
    /// # Errors
    ///
    /// [`TransportError::Deadline`] when the connect deadline elapses;
    /// other connection failures.
    pub fn connect_with(addr: SocketAddr, policy: &FaultPolicy) -> Result<TcpConn, TransportError> {
        let stream = TcpStream::connect_timeout(&addr, policy.connect_timeout)?;
        stream.set_write_timeout(Some(policy.send_timeout))?;
        stream.set_read_timeout(Some(policy.recv_timeout))?;
        TcpConn::new(stream)
    }

    /// Receives one frame into `buf[..len]`, `buf` reused from frame to
    /// frame: it grows only for a frame larger than any before. A recv
    /// deadline that passes before the frame's first byte is `Ok(None)`,
    /// an idle link that stays usable; one that passes inside a frame is
    /// [`TransportError::Deadline`], and the connection must be dropped.
    ///
    /// # Errors
    ///
    /// As [`recv_frame`](Connection::recv_frame); `buf` does not grow for
    /// a header declaring more than [`giop::MAX_BODY`].
    pub fn recv_into(&self, buf: &mut Vec<u8>) -> Result<Option<usize>, TransportError> {
        let mut r = self.reader.lock();
        let mut header = [0u8; HEADER_LEN];
        let got = loop {
            match r.read(&mut header) {
                Ok(0) => return Err(TransportError::Closed),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => match TransportError::from(e) {
                    TransportError::Deadline => return Ok(None),
                    e => return Err(e),
                },
            }
        };
        read_exact_or_closed(&mut *r, &mut header[got..])?;
        let (_, _, body) = giop::parse_header(&header).map_err(TransportError::Protocol)?;
        let len = HEADER_LEN + body;
        if buf.len() < len {
            buf.resize(len, 0);
        }
        buf[..HEADER_LEN].copy_from_slice(&header);
        read_exact_or_closed(&mut *r, &mut buf[HEADER_LEN..len])?;
        Ok(Some(len))
    }
}

impl Connection for TcpConn {
    /// Scatter-gathers the chain's segments straight into the socket
    /// (`writev`), advancing across partial writes.
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        let mut w = self.writer.lock();
        frame.write_all_to(&mut *w)?;
        w.flush()?;
        Ok(())
    }

    /// [`TcpConn::recv_into`] a fresh `Vec`; an idle deadline is [`TransportError::Deadline`] too.
    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        let mut frame = Vec::new();
        self.recv_into(&mut frame)?
            .ok_or(TransportError::Deadline)?;
        Ok(frame)
    }

    fn set_deadline(&self, recv: Option<Duration>) -> Result<(), TransportError> {
        // `set_read_timeout(Some(0))` is an invalid argument; treat a zero
        // deadline as "already missed" semantics via the smallest timeout.
        let recv = recv.map(|d| d.max(Duration::from_nanos(1)));
        self.reader.lock().set_read_timeout(recv)?;
        Ok(())
    }

    fn close(&self) {
        let _ = self.writer.lock().shutdown(std::net::Shutdown::Both);
    }
}

fn read_exact_or_closed(r: &mut impl Read, buf: &mut [u8]) -> Result<(), TransportError> {
    match r.read_exact(buf) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Err(TransportError::Closed),
        Err(e) => Err(e.into()),
    }
}

/// A [`TcpServer`]'s live connections by id: a clone of the stream to
/// sever it by, and its thread. Each is removed by its thread as it ends.
type Conns = Mutex<HashMap<u64, (TcpStream, JoinHandle<()>)>>;

/// A thread-per-connection GIOP server: an [`Acceptor`] hands each
/// accepted stream to a thread of its own that serves it as a
/// [`TcpConn`]. Shutdown severs through the table's clone, not
/// [`TcpConn::close`], which would wait behind a blocked reply write.
pub struct TcpServer {
    local_addr: SocketAddr,
    acceptor: Mutex<Option<Acceptor>>,
    conns: Arc<Conns>,
}

impl TcpServer {
    /// Runs `serve` on every connection accepted on `listener`, each on
    /// its own thread; all the server's threads are called `name`.
    ///
    /// # Errors
    ///
    /// Poller, waker or thread creation failures.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        serve: impl Fn(TcpConn) + Send + Sync + 'static,
    ) -> io::Result<TcpServer> {
        let conns = Arc::new(Mutex::new(HashMap::new()));
        let table = Arc::clone(&conns);
        let serve = Arc::new(serve);
        let thread_name = name.to_string();
        let mut next_id = 0u64;
        let acceptor = Acceptor::spawn(listener, name, move |stream| {
            let (Ok(sever), Ok(conn)) = (stream.try_clone(), TcpConn::new(stream)) else {
                return;
            };
            next_id += 1;
            let id = next_id;
            let (serve, table2) = (Arc::clone(&serve), Arc::clone(&table));
            // Inserted under the lock the thread's own removal takes, so
            // the entry exists before the thread can end.
            let mut conns = table.lock();
            let handle = std::thread::Builder::new()
                .name(thread_name.clone())
                .spawn(move || {
                    serve(conn);
                    drop(serve); // so a dropped server holds nothing
                    table2.lock().remove(&id);
                });
            if let Ok(h) = handle {
                conns.insert(id, (sever, h));
            }
        })?;
        Ok(TcpServer {
            local_addr: acceptor.local_addr(),
            acceptor: Mutex::new(Some(acceptor)),
            conns,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting — the acceptor is joined, so no connection is
    /// handed out after — and severs every live connection, whose
    /// threads then end; dropping the server also joins them.
    pub fn shutdown(&self) {
        drop(self.acceptor.lock().take());
        for (stream, _) in self.conns.lock().values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown();
        let live = std::mem::take(&mut *self.conns.lock());
        for (_, h) in live.into_values() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bufchain::SegPool;
    use crate::cdr::Endian;
    use crate::giop::{decode_view, encode_request_chain, MessageView};
    use std::time::Instant;

    /// A request frame with a `body`-byte body, marshalled into
    /// `seg`-byte segments.
    fn chain_of(body: usize, endian: Endian, seg: usize) -> FrameBuf {
        let pool = SegPool::new(8, seg);
        encode_request_chain(1, true, b"k", "op", &vec![5; body], &[], endian, &pool)
    }

    fn chain(endian: Endian, seg: usize) -> FrameBuf {
        chain_of(100, endian, seg)
    }

    fn frame() -> FrameBuf {
        chain(Endian::Big, 256)
    }

    /// A loopback listener and the address clients reach it at.
    fn listen() -> (TcpListener, SocketAddr) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        (listener, addr)
    }

    fn accept(listener: &TcpListener) -> TcpConn {
        TcpConn::new(listener.accept().unwrap().0).unwrap()
    }

    /// A connected pair: a [`TcpConn`] and the raw stream at its peer.
    fn raw_pair() -> (TcpConn, TcpStream) {
        let (listener, addr) = listen();
        let raw = TcpStream::connect(addr).unwrap();
        (accept(&listener), raw)
    }

    #[test]
    fn loopback_roundtrip() {
        let (a, b) = loopback_pair();
        a.send_chain(&frame()).unwrap();
        let got = b.recv_frame().unwrap();
        assert_eq!(got, frame().to_vec());
        // And back.
        b.send_chain(&frame()).unwrap();
        assert_eq!(a.recv_frame().unwrap(), frame().to_vec());
    }

    #[test]
    fn loopback_close_unblocks() {
        let (a, b) = loopback_pair();
        let h = std::thread::spawn(move || b.recv_frame());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert!(matches!(h.join().unwrap(), Err(TransportError::Closed)));
        assert!(matches!(
            a.send_chain(&frame()),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn tcp_roundtrip_with_framing() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let conn = accept(&listener);
            let incoming = conn.recv_frame().unwrap();
            // Echo it straight back.
            conn.send_chain(&FrameBuf::from_vec(incoming)).unwrap();
        });
        let client = TcpConn::connect(addr).unwrap();
        client.send_chain(&frame()).unwrap();
        let reply = client.recv_frame().unwrap();
        match decode_view(&[&reply]).unwrap() {
            MessageView::Request(r) => assert_eq!(r.body.len(), 100),
            other => panic!("unexpected {other:?}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn tcp_close_detected() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let conn = accept(&listener);
            drop(conn); // immediately hang up
        });
        let client = TcpConn::connect(addr).unwrap();
        server.join().unwrap();
        assert!(matches!(client.recv_frame(), Err(TransportError::Closed)));
    }

    #[test]
    fn tcp_send_chain_vectored_roundtrip() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let conn = accept(&listener);
            let a = conn.recv_frame().unwrap();
            let b = conn.recv_frame().unwrap();
            (a, b)
        });
        let client = TcpConn::connect(addr).unwrap();
        let chain = chain(Endian::Big, 64);
        assert!(chain.as_single().is_none(), "frame must span segments");
        client.send_chain(&chain).unwrap();
        client.send_chain(&chain).unwrap();
        let (a, b) = server.join().unwrap();
        assert_eq!(a, chain.to_vec(), "vectored write is exact");
        assert_eq!(b, a, "frame boundaries preserved");
    }

    #[test]
    fn loopback_send_chain_is_exact() {
        let (a, b) = loopback_pair();
        let chain = chain(Endian::Little, 32);
        assert!(chain.as_single().is_none(), "frame must span segments");
        a.send_chain(&chain).unwrap();
        assert_eq!(b.recv_frame().unwrap(), chain.to_vec());
    }

    #[test]
    fn multiple_frames_preserve_boundaries() {
        let (listener, addr) = listen();
        let server = std::thread::spawn(move || {
            let conn = accept(&listener);
            let mut sizes = Vec::new();
            for _ in 0..3 {
                sizes.push(conn.recv_frame().unwrap().len());
            }
            sizes
        });
        let client = TcpConn::connect(addr).unwrap();
        for _ in 0..3 {
            client.send_chain(&frame()).unwrap();
        }
        let sizes = server.join().unwrap();
        assert_eq!(sizes, vec![frame().len(); 3]);
    }

    #[test]
    fn idle_deadline_at_a_frame_boundary_is_not_an_error() {
        let (conn, mut raw) = raw_pair();
        conn.set_deadline(Some(Duration::from_millis(30))).unwrap();
        let mut buf = Vec::new();
        assert!(matches!(conn.recv_into(&mut buf), Ok(None)), "idle");
        // The link is still usable: the next frame reads whole.
        raw.write_all(&frame().to_vec()).unwrap();
        let len = conn.recv_into(&mut buf).unwrap().expect("a frame");
        assert_eq!(&buf[..len], &frame().to_vec()[..]);
    }

    #[test]
    fn deadline_inside_a_header_is_a_stall() {
        let (conn, mut raw) = raw_pair();
        conn.set_deadline(Some(Duration::from_millis(30))).unwrap();
        raw.write_all(b"GIOP\x01\x00").unwrap(); // 6 of 12 header bytes
        let mut buf = Vec::new();
        assert!(matches!(
            conn.recv_into(&mut buf),
            Err(TransportError::Deadline)
        ));
    }

    #[test]
    fn oversize_header_is_refused_before_the_buffer_grows() {
        let (conn, mut raw) = raw_pair();
        let mut claim = b"GIOP\x01\x00\x00\x00".to_vec(); // a big-endian Request
        claim.extend_from_slice(&(1u32 << 30).to_be_bytes()); // of 1 GiB
        raw.write_all(&claim).unwrap();
        let mut buf = Vec::with_capacity(64);
        assert!(matches!(
            conn.recv_into(&mut buf),
            Err(TransportError::Protocol(_))
        ));
        assert_eq!(buf.capacity(), 64, "nothing sized for the claim");
    }

    #[test]
    fn one_buffer_carries_many_frames() {
        let (conn, mut raw) = raw_pair();
        // The largest frame first: it sets the capacity for the rest.
        let frames: Vec<Vec<u8>> = (0..100)
            .map(|i| chain_of([4000, 10, 700, 0][i % 4], Endian::Big, 1024).to_vec())
            .collect();
        let sent = frames.clone();
        let writer = std::thread::spawn(move || {
            for f in &sent {
                raw.write_all(f).unwrap();
            }
        });
        let mut buf = Vec::new();
        let mut cap = 0;
        for (i, f) in frames.iter().enumerate() {
            let len = conn.recv_into(&mut buf).unwrap().expect("a frame");
            assert_eq!(&buf[..len], &f[..]);
            if i == 0 {
                cap = buf.capacity();
            }
            assert_eq!(buf.capacity(), cap, "frame {i} regrew the buffer");
        }
        writer.join().unwrap();
    }

    #[test]
    fn connections_leave_the_table_when_they_end() {
        let (listener, _) = listen();
        let server = TcpServer::spawn(listener, "test-tcp-server", |conn| {
            while let Ok(f) = conn.recv_frame() {
                let _ = conn.send_chain(&FrameBuf::from_vec(f));
            }
        })
        .unwrap();
        for _ in 0..50 {
            let client = TcpConn::connect(server.local_addr()).unwrap();
            client.send_chain(&frame()).unwrap();
            // Echoed, so the connection was in the table.
            client.recv_frame().unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let live = server.conns.lock().len();
            if live == 0 {
                break;
            }
            assert!(Instant::now() < deadline, "{live} ended connections kept");
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}
