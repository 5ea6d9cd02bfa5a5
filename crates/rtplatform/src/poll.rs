//! Thin readiness-polling wrapper over Linux `epoll`, for the
//! event-driven ORB transport (DESIGN.md §5h).
//!
//! The workspace is dependency-free by design, so instead of `libc` or
//! `mio` this module declares the four syscall wrappers it needs
//! directly against the C library the Rust standard library already
//! links. The surface is deliberately tiny and `mio`-shaped:
//!
//! * [`Poller`] — an epoll instance: register/modify/deregister file
//!   descriptors with a `u64` token and an [`Interest`], then
//!   [`Poller::wait`] for [`PollEvent`]s (level-triggered, so a handler
//!   that drains only part of a socket is re-notified);
//! * [`Waker`] — an `eventfd` registered with the poller, letting worker
//!   threads interrupt a parked `wait` from outside the poll loop;
//! * [`Acceptor`] — a listener thread built from the two: it hands each
//!   accepted stream to a closure and can always be stopped, because
//!   stopping it is a wake, not a connection to itself;
//! * [`raise_nofile_limit`] — lifts `RLIMIT_NOFILE`'s soft limit to the
//!   hard limit, which multi-thousand-connection load benches need.
//!
//! Everything here is Linux-specific (the repo's CI and target
//! platform); the FFI is confined to this module the same way `unsafe`
//! is confined to `ring`.

#![allow(unsafe_code)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::thread::JoinHandle;
use std::time::Duration;

type CInt = i32;

/// `struct epoll_event`. On x86-64 the kernel ABI packs it (64-bit
/// alignment would pad `data` to offset 8; the kernel expects 4).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

/// `struct rlimit` for `RLIMIT_NOFILE`.
#[repr(C)]
struct RLimit {
    rlim_cur: u64,
    rlim_max: u64,
}

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: CInt = 1;
const EPOLL_CTL_DEL: CInt = 2;
const EPOLL_CTL_MOD: CInt = 3;
const EPOLL_CLOEXEC: CInt = 0x80000;

const EFD_CLOEXEC: CInt = 0x80000;
const EFD_NONBLOCK: CInt = 0x800;

const RLIMIT_NOFILE: CInt = 7;

extern "C" {
    fn epoll_create1(flags: CInt) -> CInt;
    fn epoll_ctl(epfd: CInt, op: CInt, fd: CInt, event: *mut EpollEvent) -> CInt;
    fn epoll_wait(epfd: CInt, events: *mut EpollEvent, maxevents: CInt, timeout: CInt) -> CInt;
    fn eventfd(initval: u32, flags: CInt) -> CInt;
    fn read(fd: CInt, buf: *mut u8, count: usize) -> isize;
    fn write(fd: CInt, buf: *const u8, count: usize) -> isize;
    fn close(fd: CInt) -> CInt;
    fn getrlimit(resource: CInt, rlim: *mut RLimit) -> CInt;
    fn setrlimit(resource: CInt, rlim: *const RLimit) -> CInt;
}

fn cvt(ret: CInt) -> io::Result<CInt> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Which readiness a registration asks for. Error/hang-up conditions are
/// always reported regardless of interest (epoll semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Notify when the fd is readable (or the peer half-closed).
    pub read: bool,
    /// Notify when the fd is writable.
    pub write: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        read: false,
        write: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        read: true,
        write: true,
    };

    fn mask(self) -> u32 {
        let mut m = EPOLLRDHUP;
        if self.read {
            m |= EPOLLIN;
        }
        if self.write {
            m |= EPOLLOUT;
        }
        m
    }
}

/// One readiness notification from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered with.
    pub token: u64,
    /// The fd has bytes to read (or a pending accept).
    pub readable: bool,
    /// The fd can accept more bytes.
    pub writable: bool,
    /// The fd is in an error state, or the peer closed/half-closed; the
    /// owner should read to completion and drop the connection.
    pub closed: bool,
}

/// A level-triggered epoll instance.
#[derive(Debug)]
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// Creates an epoll instance.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure, if any.
    pub fn new() -> io::Result<Poller> {
        // SAFETY: plain syscall, no pointers.
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: CInt, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest.mask(),
            data: token,
        };
        // SAFETY: `ev` outlives the call; the kernel copies it.
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any (e.g. the fd is already
    /// registered).
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Changes the interest (and/or token) of a registered fd.
    ///
    /// # Errors
    ///
    /// The `epoll_ctl` failure, if any.
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Stops watching `fd`. Harmless to call for an fd that was never
    /// registered (the error is swallowed — deregistration is a cleanup
    /// path).
    pub fn deregister(&self, fd: RawFd) {
        let mut ev = EpollEvent { events: 0, data: 0 };
        // SAFETY: `ev` outlives the call (pre-2.6.9 kernels dereference
        // the pointer even for DEL).
        let _ = unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks until at least one registered fd is ready or `timeout`
    /// elapses (`None` = forever), appending into `events` (cleared
    /// first). Returns the number of events delivered; `0` means the
    /// timeout elapsed. A signal-interrupted wait retries internally.
    ///
    /// # Errors
    ///
    /// The `epoll_wait` failure, if any.
    pub fn wait(
        &self,
        events: &mut Vec<PollEvent>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let timeout_ms: CInt = match timeout {
            None => -1,
            // Round up so a 100 µs deadline doesn't busy-spin at 0 ms.
            Some(d) => CInt::try_from(d.as_millis().max(1).min(i32::MAX as u128)).unwrap_or(-1),
        };
        const MAX_EVENTS: usize = 256;
        let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
        let n = loop {
            // SAFETY: `raw` is a valid buffer of MAX_EVENTS entries for
            // the duration of the call.
            let rc =
                unsafe { epoll_wait(self.epfd, raw.as_mut_ptr(), MAX_EVENTS as CInt, timeout_ms) };
            if rc >= 0 {
                break rc as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &raw[..n] {
            // Copy out of the (possibly packed) struct before using.
            let bits = ev.events;
            let token = ev.data;
            events.push(PollEvent {
                token,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                closed: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: closing the fd we own.
        let _ = unsafe { close(self.epfd) };
    }
}

/// Cross-thread wakeup for a parked [`Poller::wait`]: an `eventfd`
/// registered under a caller-chosen token. [`Waker::wake`] is safe from
/// any thread; the poll loop calls [`Waker::drain`] when the token
/// surfaces, then processes whatever the waking thread published.
#[derive(Debug)]
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Creates the eventfd and registers it with `poller` under `token`.
    ///
    /// # Errors
    ///
    /// `eventfd` or registration failures.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        // SAFETY: plain syscall, no pointers.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        if let Err(e) = poller.register(fd, token, Interest::READ) {
            // SAFETY: closing the fd we just created.
            let _ = unsafe { close(fd) };
            return Err(e);
        }
        Ok(Waker { fd })
    }

    /// Wakes the poll loop. Cheap and coalescing: multiple wakes before
    /// the drain collapse into one readiness event.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writing 8 bytes from a stack value to an owned fd. An
        // EAGAIN (counter saturated) still leaves the fd readable, which
        // is all a wakeup needs.
        let _ = unsafe { write(self.fd, one.to_ne_bytes().as_ptr(), 8) };
    }

    /// Clears pending wakeups so the level-triggered poller stops
    /// reporting the token.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: reading 8 bytes into a stack buffer from an owned fd.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        // SAFETY: closing the fd we own.
        let _ = unsafe { close(self.fd) };
    }
}

/// A thread that accepts connections on a listener and hands each
/// stream to a closure, until stopped.
///
/// The thread parks in a [`Poller`] on the (non-blocking) listener and a
/// [`Waker`], so [`stop`](Acceptor::stop) needs no file descriptor, no
/// route to the listener and no room in its backlog — unlike the usual
/// trick of connecting to oneself to unblock `accept()`. Accepted
/// streams are blocking. Dropping the acceptor stops and joins it.
#[derive(Debug)]
pub struct Acceptor {
    local_addr: SocketAddr,
    stop: Waker,
    thread: Option<JoinHandle<()>>,
}

impl Acceptor {
    /// Spawns a thread called `name` that runs `on_conn` for every
    /// connection accepted on `listener`, one at a time.
    ///
    /// # Errors
    ///
    /// Poller, waker or thread creation failures.
    pub fn spawn(
        listener: TcpListener,
        name: &str,
        mut on_conn: impl FnMut(TcpStream) + Send + 'static,
    ) -> io::Result<Acceptor> {
        const LISTENER: u64 = 0;
        const STOP: u64 = 1;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), LISTENER, Interest::READ)?;
        let stop = Waker::new(&poller, STOP)?;
        let thread = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let mut events = Vec::new();
                // The stop waker is never drained, so once woken every
                // wait reports it: a stop cannot be missed, however
                // busy the listener.
                while poller.wait(&mut events, None).is_ok()
                    && events.iter().all(|e| e.token != STOP)
                {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            if stream.set_nonblocking(false).is_ok() {
                                on_conn(stream);
                            }
                        }
                        // The peer gave up between the wakeup and here.
                        Err(e)
                            if matches!(
                                e.kind(),
                                io::ErrorKind::WouldBlock
                                    | io::ErrorKind::ConnectionAborted
                                    | io::ErrorKind::Interrupted
                            ) => {}
                        Err(_) => break,
                    }
                }
            })?;
        Ok(Acceptor {
            local_addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Tells the thread to stop accepting. Returns at once; connections
    /// still queued in the backlog are dropped with the listener.
    pub fn stop(&self) {
        self.stop.wake();
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Raises the soft `RLIMIT_NOFILE` to the hard limit and returns the
/// resulting soft limit. Ten thousand sockets need ~20k descriptors in
/// a single-process client+server bench; default soft limits (1024) are
/// far below that.
///
/// # Errors
///
/// `getrlimit`/`setrlimit` failures.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` outlives both calls; the kernel fills/reads it.
    cvt(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) })?;
    if lim.rlim_cur < lim.rlim_max {
        lim.rlim_cur = lim.rlim_max;
        cvt(unsafe { setrlimit(RLIMIT_NOFILE, &lim) })?;
    }
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::sync::{mpsc, Arc};
    use std::time::Instant;

    extern "C" {
        fn listen(fd: CInt, backlog: CInt) -> CInt;
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn readable_after_peer_write() {
        let (mut a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        // Nothing yet: times out.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        // Level-triggered: still readable until drained.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(50)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 1];
        let mut c = &b;
        c.read_exact(&mut buf).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn peer_close_reports_closed() {
        let (a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 1, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.closed));
    }

    #[test]
    fn modify_changes_interest() {
        let (_a, b) = pair();
        let poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 2, Interest::READ).unwrap();
        // An idle socket with write interest is immediately writable.
        poller.modify(b.as_raw_fd(), 2, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == 2 && e.writable));
        poller.deregister(b.as_raw_fd());
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn waker_interrupts_wait_and_coalesces() {
        let poller = Arc::new(Poller::new().unwrap());
        let waker = Arc::new(Waker::new(&poller, u64::MAX).unwrap());
        let w2 = Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            // Multiple wakes collapse into one readiness report.
            w2.wake();
            w2.wake();
            w2.wake();
        });
        let mut events = Vec::new();
        let t = Instant::now();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(t.elapsed() < Duration::from_secs(5), "woken, not timed out");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, u64::MAX);
        waker.drain();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "drained waker stops reporting");
        h.join().unwrap();
    }

    #[test]
    fn acceptor_stops_with_the_backlog_full() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        // Shrink the accept queue so a handful of connections fill it.
        // SAFETY: plain syscall on an fd we own, no pointers.
        assert_eq!(unsafe { listen(listener.as_raw_fd(), 1) }, 0);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let acceptor = Acceptor::spawn(listener, "test-acceptor", move |_stream| {
            entered_tx.send(()).unwrap();
            let _ = release_rx.recv();
        })
        .unwrap();
        let addr = acceptor.local_addr();
        // Park the thread inside its handler, then queue connections
        // behind it until the kernel stops answering: from here on a
        // connect to the listener — the old way of waking an acceptor —
        // cannot get through.
        let _held = TcpStream::connect(addr).unwrap();
        entered_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        let mut queued = Vec::new();
        while let Ok(s) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
            queued.push(s);
            assert!(queued.len() < 64, "the backlog never filled");
        }

        acceptor.stop();
        release_tx.send(()).unwrap();
        drop(acceptor);
        assert!(
            entered_rx.try_recv().is_err(),
            "a stopped acceptor hands out no more connections"
        );
    }

    #[test]
    fn nofile_limit_is_queryable_and_raisable() {
        let lim = raise_nofile_limit().unwrap();
        assert!(lim >= 256, "soft nofile limit unexpectedly tiny: {lim}");
        // Idempotent.
        assert_eq!(raise_nofile_limit().unwrap(), lim);
    }
}
