//! Steady-state allocation guard for the ORB request path (ROADMAP
//! aim 3): what one echo through `CompadresClient` → TCP loopback →
//! `CompadresServer` and back takes from the heap once the pools are
//! warm, client and server threads together. `alloc_sites.rs` is the
//! tool that names the sites counted here.
//!
//! One `#[test]` in this file on purpose: the counter is process-wide,
//! and a second test thread would pollute it.

#[path = "../../core/tests/common/mod.rs"]
mod common;

use rtcorba::corb::loopback_echo_pair;

#[test]
fn an_echo_allocates_within_its_budget() {
    const WARM_UP: u64 = 100;
    const REQUESTS: u64 = 1_000;
    /// Measured: exactly 2 (3 while an injection boxed its message, 9
    /// while every per-request activation built its record), both
    /// pinned by interfaces the benchmark implements or calls:
    ///
    /// * the `Vec` a `Servant` returns (`EchoServant`'s `args.to_vec()`);
    /// * the `Vec` `TcpConn::recv_into` fills under `recv_frame`, which
    ///   `invoke` cuts down to the reply body and hands to its caller.
    ///
    /// The reactor worker's injection into the POA in-port moves the
    /// frame into a box its port's pool lends. The per-request
    /// `ClientProcessing` and `ServerProcessing` activations, Fig. 10's
    /// create/destroy, refill their instance's record and take nothing
    /// (`activation_allocs.rs` in core holds one activation to 0), and
    /// nothing on the path grows a buffer it already has: the budget is
    /// the measurement, no slack.
    const BUDGET_PER_REQUEST: u64 = 2;

    let (_server, client) = loopback_echo_pair().unwrap();
    let echo = |payload: &[u8], n: u64| {
        let before = common::allocations();
        for _ in 0..n {
            assert_eq!(client.invoke(b"echo", "echo", payload).unwrap(), payload);
        }
        common::allocations() - before
    };

    let small = [0x5Au8; 64];
    echo(&small, WARM_UP);
    let allocated = echo(&small, REQUESTS);
    common::assert_budget(allocated as i64, REQUESTS, BUDGET_PER_REQUEST, "echo");
}
