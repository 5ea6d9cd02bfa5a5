//! Steady-state allocation guard for a 64 KiB ORB echo: the request
//! and the reply are 17 marshal segments each and the request crosses
//! two of the reactor's receive segments, so this is the path on which
//! a per-segment cost shows. `steady_state_allocs.rs` is the 64-byte
//! sibling, `alloc_sites.rs` (`SZ=65536`) the tool that names the
//! sites counted here.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use rtcorba::corb::loopback_echo_pair;

#[test]
fn a_64_kib_echo_allocates_within_its_budget() {
    const WARM_UP: u64 = 50;
    const REQUESTS: u64 = 300;
    /// Measured: exactly 8 (14 while every per-request activation
    /// built its record, 54 while every frozen segment cost an `Arc`)
    /// — the 3 of a 64-byte echo, named in `steady_state_allocs.rs`,
    /// and by call site —
    ///
    /// * the marshal chain's list of segments past the first, reserved
    ///   once per frame in `BufChain::put` and moved into the frame
    ///   (request and reply = 2);
    /// * two more part lists: `RecvChain::take_frame`'s, for a request
    ///   that spans two receive segments, and the clone of the reply
    ///   frame `ReactorConn::send_chain` queues on the outbox (2);
    /// * one copy: the request body straddles two receive segments, so
    ///   `CdrDecoder::take_view` cannot lend it and copies it out (1).
    ///
    /// The budget is the measurement, no slack.
    const BUDGET_PER_REQUEST: u64 = 8;

    let (_server, client) = loopback_echo_pair().unwrap();
    let payload = vec![0x5Au8; 64 << 10];
    let echo = |n: u64| {
        let before = common::allocations();
        for _ in 0..n {
            assert_eq!(client.invoke(b"echo", "echo", &payload).unwrap(), payload);
        }
        common::allocations() - before
    };

    echo(WARM_UP);
    let allocated = echo(REQUESTS);
    common::assert_budget(allocated as i64, REQUESTS, BUDGET_PER_REQUEST, "echo");
}
