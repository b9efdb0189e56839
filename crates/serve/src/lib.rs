//! qd-serve: a concurrent unlearning-as-a-service front end.
//!
//! QuickDrop's durable request journal (qd-core) already makes a single
//! stream of unlearning requests crash-consistent. This crate puts a
//! *service* in front of it: many tenants submit seeded streams of
//! forget requests, bounded per-tenant queues apply admission control,
//! a deficit-round-robin scheduler shares service fairly, and
//! compatible requests coalesce into journal batches that amortize one
//! recovery pass over several forget sets — the paper's "requests
//! arrive sequentially" observation turned into throughput.
//!
//! # Plan / Execute split
//!
//! The service is deliberately two-phase:
//!
//! 1. **Plan** ([`build_plan`]): a *pure function* of [`ServeConfig`].
//!    Arrival streams are generated concurrently on a hand-rolled
//!    [`ThreadPool`] (the only concurrency in the crate), then merged
//!    deterministically; queuing, fairness, coalescing and the virtual
//!    clock all run single-threaded over the merged stream. Same
//!    config ⇒ same plan, always.
//! 2. **Execute** ([`run_service`]): walks the planned units through
//!    the journaled serving calls in order. All durability lives here,
//!    in qd-core's journal protocol.
//!
//! The split is what makes crash recovery trivial: after a kill, the
//! journal says how many planned units completed, and re-planning from
//! the same config reproduces the identical unit list to continue
//! from. The chaos tests assert the resulting model, journal, and
//! [`ServeStats`] are bit-for-bit equal to an unfailed run.
//!
//! Everything reported in [`ServeStats`] uses the plan's virtual clock
//! — no wall time anywhere — so benchmarks are reproducible across
//! machines and across kill/resume schedules.
//!
//! # Failure isolation
//!
//! [`run_service`] with an active [`IsolationConfig`] runs the same
//! plan/execute split through a degraded-mode executor (see
//! `executor`): a unit the guard rejects climbs a deterministic retry
//! ladder of tightened policies, a poisoned coalesced batch is bisected down to the guilty members,
//! those members are quarantined to a dead-letter journal instead of
//! aborting the run, and per-tenant circuit breakers shed a repeatedly
//! poisonous tenant's queue. All knobs ([`IsolationConfig`]) default
//! off, and an inactive config is bit-for-bit the plain service.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod config;
pub mod executor;
pub mod plan;
pub mod pool;
pub mod service;
pub mod stats;

pub use config::ServeConfig;
pub use executor::{
    frontier_summary, isolate_poison, ladder_policy, FrontierSummary, IsolationConfig,
    TenantBreaker, MAX_UNIT_RETRIES,
};
pub use plan::{build_plan, Arrival, Plan, PlannedBatch, RequestTag};
pub use pool::ThreadPool;
pub use service::{run_service, ServiceError, ServiceRun};
pub use stats::{percentile_us, ServeStats};
