//! Plan execution over the request journal.
//!
//! [`run_service`] drives the planned service units through
//! `QuickDrop::serve_batch_journaled`, in plan order; a singleton unit
//! is simply a batch of one. Progress lives entirely in the journal, so
//! crash recovery is: reload checkpoint + journal (which finishes any
//! partially-applied unit via `QuickDrop::resume_requests`), then call
//! [`run_service`] again with the same config — it rebuilds the same
//! plan, maps the journal back onto it, and continues from the first
//! incomplete unit. The final model, journal records and
//! [`ServeStats`] match an unfailed run bit-for-bit.
//!
//! With an active [`crate::IsolationConfig`] the same entry point
//! routes through the failure-isolation executor
//! ([`crate::run_service_isolated`]): diverging units walk a retry
//! ladder, poison members are bisected into a dead-letter set, and
//! per-tenant circuit breakers shed work from repeat offenders — see
//! `crate::executor`.

use crate::config::ServeConfig;
use crate::executor::map_journal;
use crate::plan::build_plan;
use crate::stats::ServeStats;
use qd_core::{BatchPreempt, BatchRun, QuickDrop, RequestJournal, ServeError};
use qd_fed::Federation;
use qd_tensor::rng::Rng;
use qd_unlearn::{ForgetSet, GuardPolicy};

/// Why a service run failed.
#[derive(Debug)]
pub enum ServiceError {
    /// The config was unrunnable or the planner failed.
    Plan(String),
    /// A journaled serving call failed (I/O or guard divergence).
    Serve(ServeError),
    /// The journal does not belong to this service plan: its records
    /// cannot be aligned with the planned units (wrong config, a
    /// relearn stream, or a journal from some other deployment).
    /// Progress counting on such a journal would silently corrupt the
    /// run, so it is refused up front.
    ForeignJournal(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Plan(msg) => write!(f, "service plan: {msg}"),
            ServiceError::Serve(e) => e.fmt(f),
            ServiceError::ForeignJournal(msg) => {
                write!(f, "journal does not match this service plan: {msg}")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServeError> for ServiceError {
    fn from(e: ServeError) -> Self {
        ServiceError::Serve(e)
    }
}

/// A deterministic crash stand-in: stop the run right after `boundary`
/// of planned unit `unit_index` becomes durable, exactly as a kill at
/// that instant would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosKill {
    /// Index into the plan's unit list.
    pub unit_index: usize,
    /// The journal boundary to die at. `Unlearned(k)` past the unit's
    /// size fires after its last member (see [`BatchPreempt`]). The
    /// isolation-only boundaries (`Quarantined`, `Failed`) only fire
    /// under an active [`crate::IsolationConfig`]; the plain path
    /// never reaches them.
    pub boundary: BatchPreempt,
}

impl ChaosKill {
    /// The serve-side reading of a unified [`qd_core::CrashPoint`]:
    /// boundary points become a `ChaosKill`, storage points are
    /// [`qd_core::FaultFs::arm`]'s to consume (and return `None`
    /// here). A chaos schedule holds at most one `CrashPoint` per
    /// process lifetime, so routing every kill through these two
    /// translations means it can never express contradictory deaths.
    pub fn from_point(point: &qd_core::CrashPoint) -> Option<ChaosKill> {
        match *point {
            qd_core::CrashPoint::VfsOp(_) => None,
            qd_core::CrashPoint::Boundary { unit, boundary } => Some(ChaosKill {
                unit_index: unit,
                boundary,
            }),
        }
    }
}

/// What a [`run_service`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// Full SLA accounting. Plan-derived and identical across resumes;
    /// when `preempted` is true the stats are marked
    /// [partial](ServeStats::partial) and the latency/throughput
    /// fields are zeroed, because they would describe a schedule that
    /// never finished.
    pub stats: ServeStats,
    /// Units this call executed (not counting ones a previous process
    /// had already completed).
    pub executed_units: u64,
    /// Units already certified by the journal when this call started.
    pub resumed_units: u64,
    /// True when a [`ChaosKill`] stopped the run early; the journal
    /// holds the partial progress and a later call continues it.
    pub preempted: bool,
    /// The dead-letter set: requests whose members were isolated to
    /// QUARANTINED. Empty on the plain path and on any run without
    /// poison.
    pub dead_letter: ForgetSet,
}

/// Plans and executes the whole service run for `cfg` — or, when the
/// journal already holds progress from a killed run *of the same
/// config*, the remainder of it.
///
/// The journal must be dedicated to this service run: its records are
/// aligned with the plan's units before anything executes, and a
/// journal that cannot be aligned (wrong config, relearn records, some
/// other deployment's history) is refused with
/// [`ServiceError::ForeignJournal`] instead of being silently
/// miscounted. Callers resuming after a crash should first restore the
/// deployment (`QuickDrop::recover_deployment`, which finishes any
/// partially-applied unit), then call this with the same config.
///
/// This is the *plain* (isolation-off) path: every unit, singleton or
/// coalesced, goes through `QuickDrop::serve_batch_journaled`. It is
/// also what [`crate::run_service_isolated`] runs when its
/// [`crate::IsolationConfig`] is all off, so the two agree bit-for-bit
/// in that case.
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config,
/// [`ServiceError::ForeignJournal`] when the journal cannot be aligned
/// with the plan, or [`ServiceError::Serve`] when a unit fails (guard
/// divergence aborts the run; the journal keeps the diverged unit at
/// its last durable state, so a retry surfaces the same error
/// deterministically).
#[allow(clippy::too_many_arguments)]
pub fn run_service(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    cfg: &ServeConfig,
    policy: Option<&GuardPolicy>,
    rng: &mut Rng,
    kill: Option<ChaosKill>,
) -> Result<ServiceRun, ServiceError> {
    let plan = build_plan(cfg).map_err(ServiceError::Plan)?;
    let frontier = map_journal(&plan, journal)?;
    let resumed_units = frontier.done as u64;
    let mut stats = ServeStats::from_plan(&plan);
    let mut executed_units = 0u64;
    let mut preempted = false;
    for (index, unit) in plan.batches.iter().enumerate().skip(frontier.done) {
        let preempt_at = kill.filter(|k| k.unit_index == index).map(|k| k.boundary);
        let run = qd.serve_batch_journaled(fed, journal, &unit.members, policy, rng, preempt_at)?;
        if matches!(run, BatchRun::Preempted { .. }) {
            preempted = true;
            break;
        }
        executed_units += 1;
    }
    let final_frontier = map_journal(&plan, journal)?;
    crate::executor::apply_failure_stats(&mut stats, &plan, &final_frontier, None);
    if preempted {
        stats.mark_partial();
    }
    let dead_letter = final_frontier.dead_letter(&plan);
    Ok(ServiceRun {
        stats,
        executed_units,
        resumed_units,
        preempted,
        dead_letter,
    })
}
