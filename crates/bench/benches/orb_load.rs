//! `orb_load` — open-loop GIOP load against the reactor ORB server.
//!
//! Measures what the event-driven transport (DESIGN.md §5h) was built
//! for: many concurrent connections multiplexed by one poll loop. For
//! each connection count (default 1k/4k/10k) the bench:
//!
//! 1. opens N client connections to a reactor-transport
//!    reactor server (echo registry), reused for every phase below;
//! 2. runs an **open-loop** fixed-rate phase: requests fire on a
//!    schedule derived from the target rate, spread round-robin over
//!    the connections, and each latency is measured from the request's
//!    *scheduled* send time — a stalled driver or server inflates the
//!    recorded latencies instead of silently thinning the load
//!    (no coordinated omission);
//! 3. ramps the target rate ×2 per step until the achieved throughput
//!    falls below 90% of target, recording the last sustained rate.
//!
//! The client side is its own mini-reactor (nonblocking sockets on an
//! `rtplatform::poll::Poller` across a few driver threads), so 10k
//! connections need 10k fds, not 10k threads. Each request body carries
//! its scheduled send time; the echo servant returns it, which makes
//! every reply self-timestamping with no id → time map. Because the
//! server lives in the same process, each connection costs two fds; a
//! small `RLIMIT_NOFILE` hard cap scales the count down with a printed
//! notice, never silently.
//!
//! Printed per connection count: the per-request latency summary at
//! the fixed rate, each ramp step, and the maximum sustained rate.
//!
//! Environment knobs (CI smoke uses small values on every PR):
//! `ORB_LOAD_CONNS` (comma list, default `1024,4096,10240`),
//! `ORB_LOAD_FIXED_RATE` (req/s, default 10000 — far enough below
//! saturation that the latency stat measures the transport, not the
//! queue), `ORB_LOAD_FIXED_MS` (default 3000), `ORB_LOAD_START_RATE`
//! (default 8000), `ORB_LOAD_STEP_MS` (default 800).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rtcorba::cdr::Endian;
use rtcorba::giop::{self, MessageView, HEADER_LEN};
use rtcorba::service::ObjectRegistry;
use rtplatform::bufchain::SegPool;
use rtplatform::poll::{Interest, PollEvent, Poller};
use rtsched::LatencyRecorder;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_conns() -> Vec<usize> {
    std::env::var("ORB_LOAD_CONNS")
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .filter(|&n: &usize| n > 0)
                .collect()
        })
        .unwrap_or_else(|_| vec![1024, 4096, 10240])
}

/// One driver thread's shard of the load: its connections plus the
/// client-side poller multiplexing them.
struct Driver {
    conns: Vec<DriverConn>,
    poller: Poller,
    endian: Endian,
    /// Marshal segments for outgoing requests (one small frame each).
    pool: SegPool,
}

struct DriverConn {
    stream: TcpStream,
    inbuf: Vec<u8>,
}

impl Driver {
    fn new(streams: Vec<TcpStream>) -> Driver {
        let poller = Poller::new().expect("client poller");
        let conns: Vec<DriverConn> = streams
            .into_iter()
            .map(|stream| {
                stream.set_nonblocking(true).expect("nonblocking client");
                DriverConn {
                    stream,
                    inbuf: Vec::new(),
                }
            })
            .collect();
        for (i, c) in conns.iter().enumerate() {
            poller
                .register(c.stream.as_raw_fd(), i as u64, Interest::READ)
                .expect("register client conn");
        }
        Driver {
            conns,
            poller,
            endian: Endian::native(),
            pool: SegPool::new(2, 256),
        }
    }

    /// Writes all of `frame`, spinning through `WouldBlock`. The time a
    /// full socket buffer costs here is charged to the open-loop
    /// schedule, which is exactly where backpressure should show up.
    fn send_all(&mut self, idx: usize, frame: &[u8]) {
        let mut off = 0;
        while off < frame.len() {
            match self.conns[idx].stream.write(&frame[off..]) {
                Ok(n) => off += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => panic!("client send: {e}"),
            }
        }
    }

    /// Fires one request on connection `idx`, stamped with its
    /// *scheduled* (not actual) send time.
    fn fire(&mut self, idx: usize, sched_ns: u64) {
        let frame = giop::encode_request_chain(
            0,
            true,
            b"echo",
            "echo",
            &sched_ns.to_le_bytes(),
            &[],
            self.endian,
            &self.pool,
        );
        let bytes = frame.as_single().expect("a request fits one segment");
        self.send_all(idx, bytes);
    }

    /// Drains readable connections, decoding replies into latencies
    /// (now − scheduled send, per the timestamp echoed in the body).
    fn drain(
        &mut self,
        events: &[PollEvent],
        epoch: Instant,
        scratch: &mut [u8],
        latencies: &mut Vec<u64>,
    ) {
        for ev in events {
            let idx = ev.token as usize;
            loop {
                match self.conns[idx].stream.read(scratch) {
                    Ok(0) => break,
                    Ok(n) => {
                        self.conns[idx].inbuf.extend_from_slice(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("client recv: {e}"),
                }
            }
            let now_ns = epoch.elapsed().as_nanos() as u64;
            let inbuf = &mut self.conns[idx].inbuf;
            while inbuf.len() >= HEADER_LEN {
                let mut header = [0u8; HEADER_LEN];
                header.copy_from_slice(&inbuf[..HEADER_LEN]);
                let (_, _, body) = giop::parse_header(&header).expect("server sends valid GIOP");
                if inbuf.len() < HEADER_LEN + body {
                    break;
                }
                let frame: Vec<u8> = inbuf.drain(..HEADER_LEN + body).collect();
                if let Ok(MessageView::Reply(r)) = giop::decode_view(&[&frame]) {
                    let sched = u64::from_le_bytes(r.body[..8].try_into().expect("timestamp body"));
                    latencies.push(now_ns.saturating_sub(sched));
                }
            }
        }
    }

    /// Discards whatever is still in flight from a previous (saturated)
    /// phase, so stale replies cannot pollute the next phase's clock.
    fn discard_stale(&mut self, scratch: &mut [u8]) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            self.poller
                .wait(&mut events, Some(Duration::from_millis(50)))
                .expect("client poll");
            if events.is_empty() {
                return;
            }
            for ev in std::mem::take(&mut events) {
                let idx = ev.token as usize;
                loop {
                    match self.conns[idx].stream.read(scratch) {
                        Ok(0) => break,
                        Ok(n) if n < scratch.len() => break,
                        Ok(_) => {}
                        Err(_) => break,
                    }
                }
                self.conns[idx].inbuf.clear();
            }
        }
    }

    /// Open-loop phase: `count` requests at `interval_ns` spacing,
    /// round-robin over this driver's connections, then drain stragglers.
    /// Returns (latencies, wall-clock of the whole phase incl. drain).
    fn run_open_loop(&mut self, count: u64, interval_ns: u64) -> (Vec<u64>, Duration) {
        let mut events: Vec<PollEvent> = Vec::new();
        let mut scratch = vec![0u8; 64 << 10];
        self.discard_stale(&mut scratch);
        let epoch = Instant::now();
        let mut latencies = Vec::with_capacity(count as usize);
        let mut sent: u64 = 0;
        let mut rr = 0usize;
        while latencies.len() < count as usize {
            let now_ns = epoch.elapsed().as_nanos() as u64;
            while sent < count && sent * interval_ns <= now_ns {
                let sched = sent * interval_ns;
                self.fire(rr, sched);
                rr = (rr + 1) % self.conns.len();
                sent += 1;
            }
            let timeout = if sent < count {
                Duration::from_nanos((sent * interval_ns).saturating_sub(now_ns).max(1))
            } else {
                Duration::from_millis(20)
            };
            if epoch.elapsed() > Duration::from_secs(30) {
                break; // server wedged: report what we have
            }
            self.poller
                .wait(&mut events, Some(timeout.min(Duration::from_millis(20))))
                .expect("client poll");
            let evs = std::mem::take(&mut events);
            self.drain(&evs, epoch, &mut scratch, &mut latencies);
            events = evs;
        }
        (latencies, epoch.elapsed())
    }
}

/// Connects `n` clients (in parallel batches — 10k serial connects are
/// slow) and returns the raw streams.
fn connect_all(addr: std::net::SocketAddr, n: usize) -> Vec<TcpStream> {
    let threads = 8.min(n).max(1);
    let per = n.div_ceil(threads);
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let take = per.min(n.saturating_sub(t * per));
            std::thread::spawn(move || {
                (0..take)
                    .map(|_| {
                        let s = TcpStream::connect(addr).expect("connect to reactor server");
                        s.set_nodelay(true).expect("nodelay");
                        s
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("connect thread"))
        .collect()
}

/// Long-lived driver threads sharing one connection set across every
/// phase of a connection count — reconnecting per phase would churn
/// tens of thousands of TIME_WAIT ephemeral ports.
struct DriverPool {
    cmd_txs: Vec<mpsc::Sender<(u64, u64)>>,
    res_rx: mpsc::Receiver<(Vec<u64>, Duration)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl DriverPool {
    fn new(addr: std::net::SocketAddr, conns: usize) -> DriverPool {
        let drivers = 4.min(conns).max(1);
        let streams = connect_all(addr, conns);
        let mut shards: Vec<Vec<TcpStream>> = (0..drivers).map(|_| Vec::new()).collect();
        for (i, s) in streams.into_iter().enumerate() {
            shards[i % drivers].push(s);
        }
        let (res_tx, res_rx) = mpsc::channel();
        let mut cmd_txs = Vec::new();
        let mut handles = Vec::new();
        for shard in shards {
            let (cmd_tx, cmd_rx) = mpsc::channel::<(u64, u64)>();
            let res_tx = res_tx.clone();
            cmd_txs.push(cmd_tx);
            handles.push(std::thread::spawn(move || {
                let mut driver = Driver::new(shard);
                while let Ok((count, interval_ns)) = cmd_rx.recv() {
                    let _ = res_tx.send(driver.run_open_loop(count, interval_ns));
                }
            }));
        }
        DriverPool {
            cmd_txs,
            res_rx,
            handles,
        }
    }

    /// Runs one open-loop phase at `rate` req/s for `dur_ms` across all
    /// drivers. Returns the merged latencies and the achieved aggregate
    /// throughput (replies/sec over the slowest driver's wall clock).
    fn phase(&self, rate: u64, dur_ms: u64) -> (Vec<u64>, f64) {
        let drivers = self.cmd_txs.len() as u64;
        let per_rate = (rate / drivers).max(1);
        let count = (per_rate * dur_ms / 1000).max(1);
        let interval_ns = 1_000_000_000 / per_rate;
        for tx in &self.cmd_txs {
            tx.send((count, interval_ns)).expect("driver alive");
        }
        let mut all = Vec::new();
        let mut slowest = Duration::ZERO;
        for _ in 0..self.cmd_txs.len() {
            let (lat, wall) = self.res_rx.recv().expect("driver result");
            all.extend(lat);
            slowest = slowest.max(wall);
        }
        let achieved = all.len() as f64 / slowest.as_secs_f64().max(1e-9);
        (all, achieved)
    }
}

impl Drop for DriverPool {
    fn drop(&mut self) {
        self.cmd_txs.clear(); // disconnects every cmd channel
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn main() {
    // Keep freed memory mapped for the whole run — latency percentiles
    // should measure the reactor, not glibc arena-trim refault churn
    // (see EXPERIMENTS.md "msgpass shared_object/1024 cliff").
    rtplatform::heap::retain_freed_memory();

    let fd_limit = match rtplatform::poll::raise_nofile_limit() {
        Ok(limit) => {
            println!("fd limit: {limit}");
            limit
        }
        Err(e) => {
            println!("fd limit could not be raised: {e}");
            1024
        }
    };
    let fixed_rate = env_u64("ORB_LOAD_FIXED_RATE", 10_000);
    let fixed_ms = env_u64("ORB_LOAD_FIXED_MS", 3_000);
    let start_rate = env_u64("ORB_LOAD_START_RATE", 8_000);
    let step_ms = env_u64("ORB_LOAD_STEP_MS", 800);

    println!("== orb_load: open-loop GIOP load against the reactor server ==");
    for conns in env_conns() {
        // Client + server sides both hold one fd per connection, plus
        // listener/poller/stdio headroom. Scale down loudly, never cap
        // silently.
        let budget = (fd_limit.saturating_sub(128) / 2) as usize;
        let conns = if conns > budget {
            println!("fd limit {fd_limit} cannot hold {conns} conns; running {budget} instead");
            budget.max(1)
        } else {
            conns
        };
        let server = rtcorba::ServerBuilder::new(ObjectRegistry::with_echo())
            .serve()
            .expect("spawn reactor server");
        let addr = server.addr().expect("tcp addr");
        let pool = DriverPool::new(addr, conns);

        // Warmup (discarded): absorbs accept/registration churn and
        // lets every thread fault in its working set.
        let _ = pool.phase(fixed_rate, 500.min(fixed_ms));

        // Fixed-rate phase: the headline p50/p99 under steady load.
        let (latencies, achieved) = pool.phase(fixed_rate, fixed_ms);
        let expected = fixed_rate * fixed_ms / 1000;
        println!(
            "conns {conns}: fixed {fixed_rate}/s → {}/{} replies, achieved {achieved:.0}/s",
            latencies.len(),
            expected,
        );
        let mut rec = LatencyRecorder::with_capacity(latencies.len());
        for ns in latencies {
            rec.record(Duration::from_nanos(ns));
        }
        // No reply at all is a wedged server: `summary` panics, loudly.
        println!("  open-loop latency {}", rec.summary());

        // Ramp: double the target until it stops being sustained.
        let mut rate = start_rate;
        let mut sustained: u64 = 0;
        loop {
            let (lat, achieved) = pool.phase(rate, step_ms);
            let wanted = (rate * step_ms / 1000) as usize;
            let ok = lat.len() >= wanted * 9 / 10 && achieved >= rate as f64 * 0.9;
            println!(
                "  ramp {rate:>7}/s: {} of {} replies, achieved {achieved:>9.0}/s → {}",
                lat.len(),
                wanted,
                if ok { "sustained" } else { "saturated" }
            );
            if !ok {
                break;
            }
            sustained = achieved as u64;
            if rate >= 1_048_576 {
                break; // avoid unbounded ramp on very fast machines
            }
            rate *= 2;
        }
        let interval = 1_000_000_000u64
            .checked_div(sustained)
            .unwrap_or(u64::MAX / 2);
        println!("  max sustained rate ≈ {sustained}/s ({interval} ns/request)");
        drop(pool);
        server.shutdown();
        drop(server);
    }
}
