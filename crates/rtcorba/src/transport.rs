//! Transports carrying GIOP frames: TCP, and an in-process pair.
//!
//! The paper's evaluation runs client and server "on a single machine
//! connected via loopback network" (§3.3), which is [`TcpConn`] to
//! `127.0.0.1`. [`LoopbackConn`] is the in-process [`Connection`] that
//! tests put under a client ORB or a `chaos` wrapper when no server is
//! wanted. Both frame messages exactly the same way — a GIOP header
//! announcing the body size — so the ORB code is transport-agnostic.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use rtplatform::bufchain::FrameBuf;
use rtplatform::fault::FaultPolicy;
use rtplatform::sync::{Condvar, Mutex};

use crate::giop::{self, HEADER_LEN};

/// Transport errors.
///
/// Each injectable network fault class maps to exactly one variant (the
/// mapping is exercised by `tests/fault_mapping.rs`):
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
    Io(std::io::Error),
    /// The peer closed the connection.
    Closed,
    /// The incoming frame violated GIOP framing.
    Protocol(giop::GiopError),
    /// The operation did not complete before its configured deadline
    /// (see [`Connection::set_deadline`] and
    /// [`rtplatform::fault::FaultPolicy`]). The connection itself may
    /// still be usable, but a caller that cannot tell a late reply from
    /// a lost one should drop it and reconnect.
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

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        if is_timeout(&e) {
            TransportError::Deadline
        } else {
            TransportError::Io(e)
        }
    }
}

/// Socket timeouts surface as `TimedOut` or `WouldBlock` depending on
/// platform; both mean "the deadline elapsed".
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock
    )
}

/// A bidirectional, framed GIOP connection.
pub trait Connection: Send + Sync {
    /// Sends one complete GIOP frame.
    ///
    /// # Errors
    ///
    /// I/O failures or a closed peer.
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError>;

    /// Sends one complete GIOP frame held as a segment chain. The
    /// default coalesces into a `Vec` for transports without
    /// scatter-gather; [`TcpConn`] overrides it with a vectored write
    /// so chain segments reach the socket without being copied
    /// together first.
    ///
    /// # Errors
    ///
    /// I/O failures or a closed peer.
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        match frame.as_single() {
            Some(bytes) => self.send_frame(bytes),
            None => self.send_frame(&frame.to_vec()),
        }
    }

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
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError> {
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
}

impl Connection for TcpConn {
    fn send_frame(&self, frame: &[u8]) -> Result<(), TransportError> {
        let mut w = self.writer.lock();
        w.write_all(frame)?;
        w.flush()?;
        Ok(())
    }

    /// Scatter-gathers the chain's segments straight into the socket
    /// (`writev`), advancing across partial writes.
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        let mut w = self.writer.lock();
        frame.write_all_to(&mut *w)?;
        w.flush()?;
        Ok(())
    }

    /// Receives one frame. With a recv deadline armed, a timeout returns
    /// [`TransportError::Deadline`]; if it strikes *mid-frame* the stream
    /// position is inside a message, so the connection must be dropped,
    /// not reused — exactly what the retry layers do. A header that
    /// declares more than the frame limit is a
    /// [`TransportError::Protocol`] and nothing is allocated for it.
    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        let mut r = self.reader.lock();
        let mut header = [0u8; HEADER_LEN];
        read_exact_or_closed(&mut *r, &mut header)?;
        let (_, _, body_len) = giop::parse_header(&header).map_err(TransportError::Protocol)?;
        let mut frame = vec![0u8; HEADER_LEN + body_len];
        frame[..HEADER_LEN].copy_from_slice(&header);
        read_exact_or_closed(&mut *r, &mut frame[HEADER_LEN..])?;
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
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Err(TransportError::Closed),
        Err(e) => Err(e.into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdr::Endian;
    use crate::giop::{decode_view, encode_request_chain, MessageView};
    use rtplatform::bufchain::SegPool;
    use std::net::TcpListener;

    /// A request frame marshalled into `seg`-byte segments.
    fn chain(response_expected: bool, endian: Endian, seg: usize) -> FrameBuf {
        let pool = SegPool::new(8, seg);
        encode_request_chain(
            1,
            response_expected,
            b"k",
            "op",
            &[5; 100],
            &[],
            endian,
            &pool,
        )
    }

    fn frame() -> Vec<u8> {
        chain(true, Endian::Big, 256).to_vec()
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

    #[test]
    fn loopback_roundtrip() {
        let (a, b) = loopback_pair();
        a.send_frame(&frame()).unwrap();
        let got = b.recv_frame().unwrap();
        assert_eq!(got, frame());
        // And back.
        b.send_frame(&frame()).unwrap();
        assert_eq!(a.recv_frame().unwrap(), frame());
    }

    #[test]
    fn loopback_close_unblocks() {
        let (a, b) = loopback_pair();
        let h = std::thread::spawn(move || b.recv_frame());
        std::thread::sleep(Duration::from_millis(20));
        a.close();
        assert!(matches!(h.join().unwrap(), Err(TransportError::Closed)));
        assert!(matches!(
            a.send_frame(&frame()),
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
            conn.send_frame(&incoming).unwrap();
        });
        let client = TcpConn::connect(addr).unwrap();
        client.send_frame(&frame()).unwrap();
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
        let chain = chain(true, Endian::Big, 64);
        assert!(chain.as_single().is_none(), "frame must span segments");
        client.send_chain(&chain).unwrap();
        client.send_chain(&chain).unwrap();
        let (a, b) = server.join().unwrap();
        assert_eq!(a, chain.to_vec(), "vectored write is exact");
        assert_eq!(b, a, "frame boundaries preserved");
    }

    #[test]
    fn loopback_send_chain_matches_send_frame() {
        let (a, b) = loopback_pair();
        let chain = chain(false, Endian::Little, 32);
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
            client.send_frame(&frame()).unwrap();
        }
        let sizes = server.join().unwrap();
        assert_eq!(sizes, vec![frame().len(); 3]);
    }
}
