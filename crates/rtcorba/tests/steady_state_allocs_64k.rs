//! Steady-state allocation guard for a 64 KiB ORB echo: the request
//! and the reply are 17 marshal segments each, so this is the path on
//! which a per-segment cost shows. `steady_state_allocs.rs` is the
//! 64-byte sibling, `alloc_sites.rs` (`SZ=65536`) the tool that names
//! the sites counted here.
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
    /// Measured: exactly 2 (8 while part lists were made per frame and
    /// receive segments were 64 KiB, 14 while every per-request
    /// activation built its record), the two of a 64-byte echo:
    ///
    /// * the `Vec` a `Servant` returns (`EchoServant`'s `args.to_vec()`);
    /// * the `Vec` `TcpConn::recv_into` fills under `recv_frame`.
    ///
    /// The part lists of the request and reply chains
    /// (`BufChain::put`) and of the reply's outbox clone
    /// (`ReactorConn::send_chain`) are lent by the marshal pools and
    /// given back when the frames drop. A receive segment holds 64 KiB
    /// plus the headers, so the request is carved out as one part and
    /// its body decoded in place. The budget is the measurement, no
    /// slack.
    const BUDGET_PER_REQUEST: u64 = 2;

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
