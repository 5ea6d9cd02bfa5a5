//! # rtcheck — model-based conformance & linearizability harness
//!
//! In-tree correctness tooling for the Compadres reproduction, three
//! instruments in one crate (all offline, seeded, and dependency-free):
//!
//! 1. **Differential conformance** ([`gen`], [`oracle`], [`diff`]):
//!    a property-based generator of random CDL/CCL assemblies and an
//!    independent reference oracle for the paper's static rules (the
//!    Table 1 scope-access matrix, single-parent nesting, exact
//!    message-type matching, loop freedom). Every generated assembly
//!    is judged by both the production `core::validate`/compiler path
//!    and the oracle; any disagreement is shrunk to a minimal
//!    counterexample and printed with its reproducing seed.
//! 2. **Linearizability checking** ([`history`], [`lin`], [`spec`]):
//!    a Wing–Gong-style checker over concurrent histories recorded
//!    from `rtplatform::ring`, `rtsched::PriorityFifo` and
//!    `rtmem::ScopePool`, against small sequential specs.
//! 3. **Deterministic interleaving** ([`sched`]): bounded-preemption
//!    schedule enumeration over the yield points instrumented behind
//!    `rtplatform`'s `rtcheck-hooks` feature (the parking `Gate`
//!    handshake and the Treiber free-list CAS windows).
//! 4. **Distribution specs** ([`membership`], [`shardmap`]): a
//!    model-based history checker for the membership/failover protocol
//!    (no failover without suspicion, no split-brain, rebind exactly
//!    once) with mutation-based negative controls, and property checks
//!    for the rendezvous shard map behind sharded naming (consistent
//!    routing, minimal movement under membership churn).
//!
//! The fixed-seed subset runs in tier 1 (`scripts/check.sh`); CI adds a
//! time-boxed randomized sweep. See DESIGN.md §5f and §5k.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod gen;
pub mod history;
pub mod lin;
pub mod membership;
pub mod oracle;
pub mod record;
pub mod sched;
pub mod shardmap;
pub mod spec;
