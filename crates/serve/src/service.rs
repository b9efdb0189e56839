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
//! With an active [`IsolationConfig`] the same entry point runs the
//! failure-isolation executor (`crate::executor`): diverging units walk
//! a retry ladder, poison members are bisected into a dead-letter set,
//! and per-tenant circuit breakers shed work from repeat offenders.
//!
//! Crashes are not modeled here: a test kills a run by failing a
//! storage operation of its [`qd_core::FaultFs`], which surfaces as an
//! error from [`run_service`], exactly as a dying process would leave
//! the journal.

use crate::config::ServeConfig;
use crate::executor::{apply_failure_stats, map_journal, IsolationConfig, TenantBreaker};
use crate::plan::{build_plan, Plan};
use crate::stats::ServeStats;
use qd_core::{QuickDrop, RequestJournal, ServeError};
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

/// What a [`run_service`] call did.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRun {
    /// Full SLA accounting. Plan-derived and identical across resumes.
    pub stats: ServeStats,
    /// Units this call executed (not counting ones a previous process
    /// had already completed).
    pub executed_units: u64,
    /// Units already certified by the journal when this call started.
    pub resumed_units: u64,
    /// Always false: a run either serves every unit or returns an
    /// error, and a crash is an error. Kept because callers read it.
    pub preempted: bool,
    /// The dead-letter set: requests whose members were isolated to
    /// QUARANTINED. Empty on the plain path and on any run without
    /// poison.
    pub dead_letter: ForgetSet,
}

impl ServiceRun {
    /// The run's result as the journal certifies it: SLA stats folded
    /// over the final journal↔plan frontier (and the breaker fold, when
    /// one was in force), plus the dead-letter set.
    pub(crate) fn from_journal(
        plan: &Plan,
        journal: &RequestJournal,
        breaker: Option<&TenantBreaker>,
        executed_units: u64,
        resumed_units: u64,
    ) -> Result<ServiceRun, ServiceError> {
        let frontier = map_journal(plan, journal)?;
        let mut stats = ServeStats::from_plan(plan);
        apply_failure_stats(&mut stats, plan, &frontier, breaker);
        Ok(ServiceRun {
            stats,
            executed_units,
            resumed_units,
            preempted: false,
            dead_letter: frontier.dead_letter(plan),
        })
    }
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
/// Without an active `iso` (`None`, or every knob off) this is the
/// *plain* path: every unit, singleton or coalesced, goes through
/// `QuickDrop::serve_batch_journaled`, and the first diverging unit
/// aborts the run. An active `iso` runs the failure-isolation executor
/// instead (see `crate::executor`), which needs a guard `policy`. Its
/// crash recovery differs: reopen the checkpoint and journal
/// **without** the plain resume call (`QuickDrop::recover_deployment`
/// would finish the in-flight unit under the base policy) and call
/// this again with the same config; it re-derives the winning ladder
/// rung and the breaker fold from the journal and reaches the same
/// model bits, journal records, dead-letter set and [`ServeStats`].
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config, an invalid `iso`
/// or an active `iso` without a guard policy,
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
    iso: Option<&IsolationConfig>,
) -> Result<ServiceRun, ServiceError> {
    if let Some(iso) = iso {
        iso.validate().map_err(ServiceError::Plan)?;
        if iso.active() {
            return crate::executor::run_isolated(qd, fed, journal, cfg, policy, iso, rng);
        }
    }
    let plan = build_plan(cfg).map_err(ServiceError::Plan)?;
    let frontier = map_journal(&plan, journal)?;
    let mut executed_units = 0u64;
    for unit in plan.batches.iter().skip(frontier.done) {
        qd.serve_batch_journaled(fed, journal, &unit.members, policy, rng)?;
        executed_units += 1;
    }
    ServiceRun::from_journal(&plan, journal, None, executed_units, frontier.done as u64)
}
