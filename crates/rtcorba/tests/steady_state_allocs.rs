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
    /// Measured: exactly 3 (9 while every per-request activation
    /// built its record, 14 before pool slots carried their own counts
    /// and the client and the workers kept a context), all pinned by
    /// interfaces the benchmark implements or calls: the `Vec` a
    /// `Servant` returns; the `Vec` `TcpConn::recv_frame` returns,
    /// which `invoke` cuts down to the reply body and hands to its
    /// caller; the boxed payload of `App::send_to_on`, by which the
    /// reactor's worker injects the frame into the POA in-port.
    ///
    /// The per-request `ClientProcessing` and `ServerProcessing`
    /// activations, Fig. 10's create/destroy, refill their instance's
    /// record and take nothing (`activation_allocs.rs` in core holds
    /// one activation to 0). Freezing a filled segment takes nothing
    /// (`steady_state_allocs_64k.rs` holds the 64 KiB echo, 34 segments
    /// a request, to the same), and nothing on the path grows a buffer
    /// it already has: the budget is the measurement, no slack.
    const BUDGET_PER_REQUEST: u64 = 3;

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
