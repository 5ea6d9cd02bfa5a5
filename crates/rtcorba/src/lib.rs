//! # rtcorba — a small RT-CORBA stack for the Compadres evaluation
//!
//! Reproduces the real-world example of the Compadres paper (§3.2–3.3):
//! a simple Real-Time CORBA ORB built twice over the same substrate —
//!
//! * [`zen`] — **ZenOrb**, a hand-coded ORB standing in for RTZen: direct
//!   function calls, manually managed scoped memory, one server thread
//!   per connection;
//! * [`corb`] — the **Compadres ORB**, assembled from Compadres components
//!   with the paper's scope structure (client 3 levels, server 4 levels),
//!   its server on the event-driven [`reactor`].
//!
//! Shared substrate — one implementation of each: [`cdr`] marshalling
//! (the computationally intensive part the paper highlights; one encoder
//! generic over its byte sink, one decoder over borrowed parts), [`giop`]
//! message framing (chain encode, in-place decode; owned messages are a
//! conversion), [`transport`] (TCP, plus an in-process [`Connection`]
//! test double), and [`service`] servant dispatch; the first three live
//! in `rtplatform`, beneath core, and are re-exported here. Servers and
//! clients are built with [`ServerBuilder`] / [`ClientBuilder`].
//!
//! [`Connection`]: transport::Connection
//!
//! ```
//! use rtcorba::corb;
//!
//! // An echo server on 127.0.0.1:0 and a client over TCP loopback.
//! let (_server, client) = corb::loopback_echo_pair()?;
//! assert_eq!(client.invoke(b"echo", "echo", &[1, 2, 3])?, vec![1, 2, 3]);
//! # Ok::<(), rtcorba::OrbError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod chaos;
pub mod corb;
pub mod ior;
pub mod naming;
pub mod reactor;
pub mod service;
pub mod shard;
pub mod zen;

pub use builder::{ClientBuilder, ServerBuilder};
pub use rtplatform::{cdr, giop, transport};

/// Segments in a client's marshal pool, on both ORBs (Fig. 11 compares
/// them sized alike): a 64 KiB request (17 segments) fits, so the
/// pool's heap fallback (see [`rtplatform::bufchain`]) is for larger
/// frames, not for the steady state.
pub(crate) const CLIENT_POOL_SEGS: usize = 32;
/// Segments in a server's marshal pool, on both ORBs, which every
/// connection's replies share: three 64 KiB replies in flight at once
/// fit.
pub(crate) const SERVER_POOL_SEGS: usize = 64;

/// How an invocation should be performed, shared by
/// [`corb::CompadresClient::invoke_with`] and
/// [`zen::ZenClient::invoke_with`]. `invoke` / `invoke_oneway` /
/// `invoke_with_budget` are thin wrappers over presets of this struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvokeOptions {
    /// Fire-and-forget: the request is marshalled and put on the wire
    /// with GIOP `response_expected = false`; no reply is waited for and
    /// the returned body is empty.
    pub oneway: bool,
    /// Deadline budget for the invocation. On the Compadres ORB the
    /// invocation becomes the root of a trace whose remaining budget
    /// travels with the request (DESIGN.md §5g); a blown budget is
    /// *recorded*, not turned into an error. ZenOrb, the hand-coded
    /// comparator without the tracing subsystem, ignores it.
    pub budget: Option<std::time::Duration>,
}

impl InvokeOptions {
    /// A synchronous two-way invocation (the default).
    pub const fn twoway() -> InvokeOptions {
        InvokeOptions {
            oneway: false,
            budget: None,
        }
    }

    /// A fire-and-forget oneway invocation.
    pub const fn oneway() -> InvokeOptions {
        InvokeOptions {
            oneway: true,
            budget: None,
        }
    }

    /// A two-way invocation under a deadline budget.
    pub const fn with_budget(budget: std::time::Duration) -> InvokeOptions {
        InvokeOptions {
            oneway: false,
            budget: Some(budget),
        }
    }
}

/// Errors surfaced by ORB invocations.
#[derive(Debug)]
pub enum OrbError {
    /// Transport-level failure.
    Transport(transport::TransportError),
    /// GIOP protocol violation.
    Giop(giop::GiopError),
    /// Malformed or unresolvable object reference.
    Ior(ior::IorError),
    /// Memory-model violation.
    Memory(rtmem::RtmemError),
    /// Component-framework failure (Compadres ORB only).
    Framework(compadres_core::CompadresError),
    /// The servant raised an exception.
    Exception(String),
    /// The object key was not registered at the server.
    ObjectNotExist,
    /// A reply arrived for a different request id.
    RequestMismatch {
        /// The id we sent.
        expected: u32,
        /// The id that came back.
        got: u32,
    },
    /// A message of an unexpected kind arrived.
    UnexpectedMessage,
}

impl std::fmt::Display for OrbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrbError::Transport(e) => write!(f, "transport: {e}"),
            OrbError::Giop(e) => write!(f, "protocol: {e}"),
            OrbError::Ior(e) => write!(f, "object reference: {e}"),
            OrbError::Memory(e) => write!(f, "memory: {e}"),
            OrbError::Framework(e) => write!(f, "framework: {e}"),
            OrbError::Exception(msg) => write!(f, "servant exception: {msg}"),
            OrbError::ObjectNotExist => write!(f, "object does not exist"),
            OrbError::RequestMismatch { expected, got } => {
                write!(f, "reply for request {got}, expected {expected}")
            }
            OrbError::UnexpectedMessage => write!(f, "unexpected GIOP message"),
        }
    }
}

impl std::error::Error for OrbError {}

impl From<transport::TransportError> for OrbError {
    fn from(e: transport::TransportError) -> Self {
        OrbError::Transport(e)
    }
}

impl From<giop::GiopError> for OrbError {
    fn from(e: giop::GiopError) -> Self {
        OrbError::Giop(e)
    }
}

impl From<ior::IorError> for OrbError {
    fn from(e: ior::IorError) -> Self {
        OrbError::Ior(e)
    }
}

impl From<rtmem::RtmemError> for OrbError {
    fn from(e: rtmem::RtmemError) -> Self {
        OrbError::Memory(e)
    }
}

impl From<compadres_core::CompadresError> for OrbError {
    fn from(e: compadres_core::CompadresError) -> Self {
        OrbError::Framework(e)
    }
}
