//! qd-chaos: whole-system deterministic fault orchestration.
//!
//! A FoundationDB-style simulation harness over the whole QuickDrop
//! stack. One seeded, serializable [`ChaosSchedule`] composes faults
//! across every layer — a lossy training network, Byzantine clients
//! (training poison and serving ascent spikes), storage faults, and
//! process deaths at storage syscalls or journal boundaries — over a
//! single deploy → serve → crash → resume → relearn run. After every
//! run a pluggable [`Invariant`] registry checks the terminal state:
//! journal frontier consistency, bit-for-bit kill-and-resume
//! equivalence against a fault-free reference, `ServeStats` accounting
//! identities, guard monotonicity, and no orphaned tmp files. When an
//! invariant trips, [`shrink`](shrink::shrink) reduces the schedule to
//! a minimal reproducer serialized as `chaos-repro.json`, which
//! `qd chaos --replay` re-executes deterministically.
//!
//! The core discipline is the *environment vs failures* split: the
//! workload half of a schedule (training mix, serving traffic, spikes)
//! runs in both the reference and the faulted run; the failure half
//! (storage faults, crash points) runs only in the faulted run. Any
//! divergence between the two terminal states is therefore a crash-
//! recovery bug, not workload noise.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod invariant;
pub mod scenario;
pub mod schedule;
pub mod shrink;

pub use invariant::{registry, Invariant, Violation};
pub use scenario::{ChaosError, Harness, RunOutcome, RunReport, Terminal};
pub use schedule::{
    Boundary, ChaosSchedule, CrashPoint, FaultSpec, InjectedFault, StorageFault, Workload,
};
pub use shrink::{shrink, Repro};
