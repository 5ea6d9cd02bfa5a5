//! Deterministic fault injection and self-healing connection wrappers.
//!
//! Two composable [`Connection`] decorators:
//!
//! * [`FaultyConn`] — a fault-injection shim for tests and soaks: wraps
//!   any connection and, driven by a seeded SplitMix64 stream, drops,
//!   delays, truncates or disconnects on the receive path. One random
//!   draw per delivered frame, so a fixed seed over a fixed frame
//!   sequence replays the exact same fault schedule.
//! * [`ReconnectingConn`] — the client-side fault-tolerance layer: a
//!   [`Connection`] over the one resumable [`Link`], which lazily
//!   (re)establishes the underlying connection through a factory and
//!   retries sends under a [`FaultPolicy`] with decorrelated-jitter
//!   backoff. What this type adds is the receive side: it arms recv
//!   deadlines and poisons the connection on any recv failure (a late
//!   reply on a kept connection would desynchronise request ids). Wire
//!   an [`Observer`] in to get the link's counters and flight-recorder
//!   events ([`Link::set_observer`]).
//!
//! Stack them factory-side — `ReconnectingConn` over a factory returning
//! `FaultyConn(TcpConn)` — to soak an ORB under seeded chaos
//! (`examples/chaos_echo.rs`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use compadres_core::link::{Link, LinkState};
use rtobs::Observer;
use rtplatform::bufchain::FrameBuf;
use rtplatform::fault::FaultPolicy;
use rtplatform::rng::SplitMix64;
use rtplatform::sync::Mutex;

use crate::giop::HEADER_LEN;
use crate::transport::{Connection, TransportError};

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Per-frame fault probabilities for a [`FaultyConn`]. Probabilities are
/// evaluated in order — drop, truncate, disconnect, delay — from a single
/// uniform draw per received frame (delay uses a second draw for its
/// duration), so the injected schedule is a pure function of the seed and
/// the frame sequence.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// RNG seed; equal seeds replay equal fault schedules.
    pub seed: u64,
    /// Probability a received frame is silently swallowed.
    pub drop: f64,
    /// Probability a received frame is truncated mid-body (undecodable).
    pub truncate: f64,
    /// Probability the connection is torn down instead of delivering.
    pub disconnect: f64,
    /// Probability a received frame is delivered late.
    pub delay: f64,
    /// Injected delay bounds when `delay` fires.
    pub delay_range: (Duration, Duration),
}

impl FaultPlan {
    /// A plan that never injects anything (baseline runs).
    pub fn quiet(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.0,
            truncate: 0.0,
            disconnect: 0.0,
            delay: 0.0,
            delay_range: (Duration::ZERO, Duration::ZERO),
        }
    }

    /// A moderately hostile network: ~9% of frames faulted.
    pub fn hostile(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop: 0.03,
            truncate: 0.02,
            disconnect: 0.02,
            delay: 0.02,
            delay_range: (Duration::from_millis(1), Duration::from_millis(5)),
        }
    }
}

/// Injected-fault tallies (one per fault class), for deterministic
/// assertions in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Frames swallowed.
    pub dropped: u64,
    /// Frames delivered truncated.
    pub truncated: u64,
    /// Connections torn down.
    pub disconnected: u64,
    /// Frames delivered late.
    pub delayed: u64,
}

/// A fault-injecting [`Connection`] decorator. See [`FaultPlan`].
pub struct FaultyConn {
    inner: Arc<dyn Connection>,
    plan: FaultPlan,
    rng: Mutex<SplitMix64>,
    dropped: AtomicU64,
    truncated: AtomicU64,
    disconnected: AtomicU64,
    delayed: AtomicU64,
}

impl std::fmt::Debug for FaultyConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FaultyConn(seed={})", self.plan.seed)
    }
}

impl FaultyConn {
    /// Wraps `inner` with the fault schedule described by `plan`.
    pub fn new(inner: Arc<dyn Connection>, plan: FaultPlan) -> FaultyConn {
        FaultyConn {
            rng: Mutex::new(SplitMix64::new(plan.seed)),
            inner,
            plan,
            dropped: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            disconnected: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// Snapshot of injected-fault tallies.
    pub fn injected(&self) -> FaultCounts {
        FaultCounts {
            dropped: self.dropped.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            disconnected: self.disconnected.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
        }
    }
}

enum FaultRoll {
    Deliver,
    Drop,
    Truncate,
    Disconnect,
    Delay(Duration),
}

impl FaultyConn {
    fn roll(&self) -> FaultRoll {
        let mut rng = self.rng.lock();
        let x = rng.next_f64();
        let p = &self.plan;
        if x < p.drop {
            FaultRoll::Drop
        } else if x < p.drop + p.truncate {
            FaultRoll::Truncate
        } else if x < p.drop + p.truncate + p.disconnect {
            FaultRoll::Disconnect
        } else if x < p.drop + p.truncate + p.disconnect + p.delay {
            let (lo, hi) = p.delay_range;
            let d = if hi > lo {
                Duration::from_nanos(
                    rng.range_f64(lo.as_nanos() as f64, hi.as_nanos() as f64) as u64
                )
            } else {
                lo
            };
            FaultRoll::Delay(d)
        } else {
            FaultRoll::Deliver
        }
    }
}

impl Connection for FaultyConn {
    /// Sends pass through untouched: all faults are injected on the
    /// receive path, which keeps the schedule a function of the frames
    /// actually delivered (a dropped *reply* and a dropped *request* look
    /// identical to the requester anyway — no bytes before the deadline).
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        self.inner.send_chain(frame)
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        loop {
            let mut frame = self.inner.recv_frame()?;
            match self.roll() {
                FaultRoll::Deliver => return Ok(frame),
                FaultRoll::Drop => {
                    // Swallow and keep receiving: the caller sees silence
                    // until its deadline, exactly like a lossy link.
                    self.dropped.fetch_add(1, Ordering::Relaxed);
                }
                FaultRoll::Truncate => {
                    self.truncated.fetch_add(1, Ordering::Relaxed);
                    if frame.len() > HEADER_LEN {
                        // Keep the header (so the declared size survives)
                        // but lose half the body — a classic short read.
                        frame.truncate(HEADER_LEN + (frame.len() - HEADER_LEN) / 2);
                    }
                    return Ok(frame);
                }
                FaultRoll::Disconnect => {
                    self.disconnected.fetch_add(1, Ordering::Relaxed);
                    self.inner.close();
                    return Err(TransportError::Closed);
                }
                FaultRoll::Delay(d) => {
                    self.delayed.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                    return Ok(frame);
                }
            }
        }
    }

    fn set_deadline(&self, recv: Option<Duration>) -> Result<(), TransportError> {
        self.inner.set_deadline(recv)
    }

    fn close(&self) {
        self.inner.close();
    }
}

// ---------------------------------------------------------------------
// Reconnection / retry layer
// ---------------------------------------------------------------------

/// A self-healing [`Connection`]: connects lazily through its factory,
/// retries failed sends/connects under the [`FaultPolicy`] (bounded
/// attempts, decorrelated-jitter backoff), and drops the underlying
/// connection on *any* recv failure so stale replies die with it.
///
/// Intended for request/reply use from one thread at a time (the
/// Compadres client pipeline is synchronous); concurrent senders
/// serialise on an internal lock, including backoff sleeps.
pub struct ReconnectingConn {
    factory: Box<dyn Fn() -> Result<Arc<dyn Connection>, TransportError> + Send + Sync>,
    link: Link,
    state: Mutex<LinkState<Arc<dyn Connection>>>,
}

impl std::fmt::Debug for ReconnectingConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ReconnectingConn")
    }
}

impl ReconnectingConn {
    /// Creates the layer; no connection is attempted until first use.
    /// `seed` drives backoff jitter (determinism under test).
    pub fn new(
        policy: FaultPolicy,
        seed: u64,
        factory: impl Fn() -> Result<Arc<dyn Connection>, TransportError> + Send + Sync + 'static,
    ) -> ReconnectingConn {
        let link = Link::new(policy);
        ReconnectingConn {
            state: Mutex::new(link.state(seed)),
            link,
            factory: Box::new(factory),
        }
    }

    /// Wires the link's fault metrics into `obs` (see
    /// [`Link::set_observer`]), with flight-recorder events under the
    /// entity `remote:{name}`.
    pub fn set_observer(&self, obs: &Arc<Observer>, name: &str) {
        self.link.set_observer(obs, &format!("remote:{name}"));
    }

    /// Failed attempts that were retried.
    pub fn retries(&self) -> u64 {
        self.link.retries()
    }

    /// Connections re-established after the initial one.
    pub fn reconnects(&self) -> u64 {
        self.link.reconnects()
    }

    /// Recv deadlines missed.
    pub fn deadline_misses(&self) -> u64 {
        self.link.deadline_misses()
    }

    fn dial(&self) -> Result<Arc<dyn Connection>, TransportError> {
        let conn = (self.factory)()?;
        conn.set_deadline(Some(self.link.policy().recv_timeout))?;
        Ok(conn)
    }
}

impl Connection for ReconnectingConn {
    fn send_chain(&self, frame: &FrameBuf) -> Result<(), TransportError> {
        self.link.send(
            &mut self.state.lock(),
            || self.dial(),
            // Broken pipe (or send deadline): the link drops its handle
            // and redials; close the connection for a receiver that may
            // still hold one.
            |conn| conn.send_chain(frame).inspect_err(|_| conn.close()),
        )
    }

    fn recv_frame(&self) -> Result<Vec<u8>, TransportError> {
        // Clone out of the lock so a blocking recv doesn't hold it.
        let conn = self.state.lock().conn().cloned();
        let Some(conn) = conn else {
            return Err(TransportError::Closed);
        };
        conn.recv_frame().inspect_err(|e| {
            if matches!(e, TransportError::Deadline) {
                self.link
                    .note_deadline_miss(self.link.policy().recv_timeout);
            }
            // Any recv failure poisons the connection (if it is still
            // the current one): a late reply surfacing on a kept
            // connection would be matched against the wrong request.
            let mut st = self.state.lock();
            if st.conn().is_some_and(|cur| Arc::ptr_eq(cur, &conn)) {
                conn.close();
                st.tear_down();
            }
        })
    }

    fn set_deadline(&self, recv: Option<Duration>) -> Result<(), TransportError> {
        if let Some(c) = self.state.lock().conn() {
            c.set_deadline(recv)?;
        }
        Ok(())
    }

    fn close(&self) {
        if let Some(c) = self.state.lock().tear_down() {
            c.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    fn frame_of(n: u8) -> FrameBuf {
        let pool = rtplatform::bufchain::SegPool::new(1, 256);
        let body = [n; 64];
        crate::giop::encode_request_chain(
            u32::from(n),
            true,
            b"k",
            "op",
            &body,
            &[],
            crate::cdr::Endian::Big,
            &pool,
        )
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = |seed: u64| {
            let (a, b) = loopback_pair();
            let faulty = FaultyConn::new(Arc::new(b), FaultPlan::hostile(seed));
            faulty
                .set_deadline(Some(Duration::from_millis(10)))
                .unwrap();
            for i in 0..200u8 {
                a.send_chain(&frame_of(i)).unwrap();
            }
            let mut delivered = 0u64;
            while faulty.recv_frame().is_ok() {
                delivered += 1;
            }
            (delivered, faulty.injected())
        };
        let (d1, c1) = run(0xC0FFEE);
        let (d2, c2) = run(0xC0FFEE);
        assert_eq!((d1, c1), (d2, c2), "same seed, same schedule");
        assert!(
            c1.dropped + c1.truncated + c1.disconnected + c1.delayed > 0,
            "hostile plan injected nothing over 200 frames: {c1:?}"
        );
    }

    #[test]
    fn quiet_plan_is_transparent() {
        let (a, b) = loopback_pair();
        let faulty = FaultyConn::new(Arc::new(b), FaultPlan::quiet(1));
        for i in 0..50u8 {
            a.send_chain(&frame_of(i)).unwrap();
            assert_eq!(faulty.recv_frame().unwrap(), frame_of(i).to_vec());
        }
        assert_eq!(faulty.injected(), FaultCounts::default());
    }

    #[test]
    fn reconnecting_conn_survives_peer_disconnects() {
        // Factory hands out fresh loopback pairs; the "server" side echoes
        // one frame then hangs up, so every second send needs a reconnect.
        let policy = FaultPolicy::tight();
        let conn = ReconnectingConn::new(policy, 7, move || {
            let (client, server) = loopback_pair();
            std::thread::spawn(move || {
                if let Ok(f) = server.recv_frame() {
                    let _ = server.send_chain(&FrameBuf::from_vec(f));
                }
                server.close();
            });
            Ok(Arc::new(client) as Arc<dyn Connection>)
        });
        for i in 0..5u8 {
            conn.send_chain(&frame_of(i)).unwrap();
            assert_eq!(conn.recv_frame().unwrap(), frame_of(i).to_vec());
            // Second recv on the same link hits the hangup and poisons it.
            assert!(conn.recv_frame().is_err());
        }
        assert_eq!(conn.reconnects(), 4, "one reconnect per follow-up send");
    }

    #[test]
    fn send_retries_are_bounded() {
        let policy = FaultPolicy {
            max_retries: 3,
            ..FaultPolicy::tight()
        };
        let attempts = Arc::new(AtomicU64::new(0));
        let attempts2 = Arc::clone(&attempts);
        let conn = ReconnectingConn::new(policy, 9, move || {
            attempts2.fetch_add(1, Ordering::Relaxed);
            Err(TransportError::Closed)
        });
        assert!(conn.send_chain(&frame_of(0)).is_err());
        assert_eq!(attempts.load(Ordering::Relaxed), 4, "1 try + 3 retries");
        assert_eq!(conn.retries(), 3);
    }
}
