//! # rtsched — real-time scheduling substrate for the Compadres reproduction
//!
//! Provides the threading machinery the Compadres component framework
//! (Hu et al., MIDDLEWARE 2007) attaches to every in-port:
//!
//! * [`Priority`] — message/thread priorities (messages are prioritized at
//!   `send()`, paper Section 2.2);
//! * [`PriorityFifo`] — priority-ordered FIFO dispatch queues (the CCL
//!   `BufferSize` bound is core's per-port claim, not a queue here);
//! * [`ThreadPool`] — dynamic min/max thread pools whose workers inherit
//!   the priority of the message they process;
//! * [`current_priority`] / [`with_priority`] — the priority a thread
//!   is executing at;
//! * [`LatencyRecorder`] / [`SteadyState`] — the paper's measurement
//!   protocol (steady state, 10 000 observations, median + jitter).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod periodic;
mod pool;
mod priority;
mod queue;
mod thread;
mod time;

pub use periodic::PeriodicTimer;
pub use pool::{Job, PoolConfig, Task, ThreadPool};
pub use priority::Priority;
pub use queue::{PriorityFifo, PushRefusal};
pub use thread::{current_priority, with_priority};
pub use time::{LatencyRecorder, LatencySummary, SteadyState};
