//! Failure isolation: the poison-tolerant service executor.
//!
//! The plain path of [`crate::run_service`] has one failure mode:
//! the first unit the divergence guard rejects aborts the whole run,
//! and every request queued behind it starves. This module gives the
//! service the opposite contract — **no request can take down the
//! service** — through three mechanisms, all off by default
//! ([`IsolationConfig`]) and all journal-derivable so a killed run
//! resumes bit-for-bit:
//!
//! 1. **Retry ladder** ([`ladder_policy`]): a unit the guard rejects is
//!    re-tried under progressively tightened policies — each rung
//!    halves both the ascent-LR scale and the drift budget — up to
//!    `unit_retries` rungs past the base policy.
//! 2. **Batch bisection** ([`isolate_poison`]): when no rung serves a
//!    coalesced unit, the member set is bisected to isolate the poison
//!    members; only those are quarantined to the dead-letter set
//!    (typed QUARANTINED journal records), and the survivors are
//!    served normally.
//! 3. **Per-tenant circuit breakers** ([`TenantBreaker`]): tenants
//!    whose requests keep getting quarantined trip an
//!    CLOSED → OPEN → HALF-OPEN breaker (modeled on qd-fed's
//!    per-client health tracking) and have their queued work shed to
//!    FAILED records instead of burning ladder probes on it.
//!
//! # Probe-first execution
//!
//! The executor never lets the real (journaled) execution diverge.
//! Every ladder rung is first evaluated as a **side-effect-free
//! probe** ([`qd_core::QuickDrop::probe_unit`]) from the unit's
//! pre-state; the real execution runs only for a rung whose probe
//! accepted, and a probe acceptance guarantees the identical real
//! operation sequence accepts too. Three properties fall out:
//!
//! - partially-applied units in the journal can only come from
//!   crashes, never from divergence — so the qd-core resume protocol
//!   needs no rollback machinery;
//! - the winning rung is **derivable**: it is a pure function of the
//!   unit's pre-state, which the RECEIVED records pin. A resumed run
//!   re-runs the probes and lands on the same rung without the rung
//!   ever being serialized;
//! - quarantining never touches the model: a fully-quarantined unit's
//!   QUARANTINED records carry the unchanged pre-unit state.
//!
//! # Execution = resume
//!
//! The executor appends a unit's atomic RECEIVED set itself and then
//! drives *all* model work through
//! [`qd_core::QuickDrop::resume_requests`] — a fresh unit and a
//! crash-resumed one execute identical code from identical
//! journal-derived state, which is what makes the kill-at-every-boundary
//! matrix in `tests/poison.rs` pass bit-for-bit.

use crate::plan::{build_plan, Plan, PlannedBatch};
use crate::service::{ServiceError, ServiceRun};
use crate::stats::ServeStats;
use crate::ServeConfig;
use qd_core::{FailReason, JournalRecord, QuickDrop, RequestJournal, RequestState, ServeError};
use qd_fed::Federation;
use qd_tensor::rng::Rng;
use qd_unlearn::{ForgetSet, GuardPolicy, UnlearnRequest};
use std::collections::BTreeMap;

/// Highest retry-ladder rung accepted: beyond 2^-16 the halved
/// ascent-LR scale is numerically dead anyway.
pub const MAX_UNIT_RETRIES: u32 = 16;

/// Failure-isolation knobs. The default is everything **off**, and
/// [`crate::run_service`] with an all-off config takes the exact plain
/// path — journal bytes, model bits and stats unchanged from a build
/// without this module.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IsolationConfig {
    /// Retry-ladder rungs past the base policy (rung k halves the
    /// ascent-LR scale and drift budget k times). `0` = no ladder.
    pub unit_retries: u32,
    /// Bisect diverging coalesced units to isolate poison members
    /// instead of quarantining the whole unit.
    pub bisect: bool,
    /// Quarantined units from one tenant before its breaker trips
    /// OPEN. `0` = breaker disabled.
    pub breaker_trip: u32,
    /// Units an OPEN breaker sheds before probing the tenant again
    /// (HALF-OPEN). Required ≥ 1 when `breaker_trip` > 0.
    pub breaker_cooldown: u32,
}

impl IsolationConfig {
    /// True when any isolation mechanism is enabled. Inactive configs
    /// take the plain path (bit-for-bit the pre-isolation behaviour).
    pub fn active(&self) -> bool {
        self.unit_retries > 0 || self.bisect || self.breaker_trip > 0
    }

    /// Rejects nonsensical combinations.
    ///
    /// # Errors
    ///
    /// A message naming the offending knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.unit_retries > MAX_UNIT_RETRIES {
            return Err(format!(
                "unit retries capped at {MAX_UNIT_RETRIES}, got {}",
                self.unit_retries
            ));
        }
        if self.breaker_trip > 0 && self.breaker_cooldown == 0 {
            return Err("a breaker trip threshold needs a cooldown of at least 1 unit".to_string());
        }
        Ok(())
    }
}

/// The retry ladder: rung 0 is the base policy; each higher rung
/// halves both the ascent-LR scale (gentler ascent) and the drift
/// budget (stricter acceptance), per the deterministic tightening
/// schedule. A disabled drift budget (`0.0`) stays disabled.
pub fn ladder_policy(base: &GuardPolicy, rung: u32) -> GuardPolicy {
    let tighten = 0.5f32.powi(rung.min(MAX_UNIT_RETRIES) as i32);
    GuardPolicy {
        drift_budget: base.drift_budget * tighten,
        ascent_lr_scale: base.ascent_lr_scale * tighten,
        ..*base
    }
}

/// Bisects `members` into the subset the predicate blames: an element
/// ends up in the result iff every probed subset containing it failed
/// down to the singleton. Called with a `probe` that answers "would
/// this subset serve cleanly?", the result is the poison member set.
///
/// The recursion prunes aggressively: a passing half is exonerated
/// wholesale (`probe` is monotone for per-member poison — a subset
/// without poison members passes). When *both* halves of a failing set
/// pass — an interaction-only failure bisection cannot localize — the
/// result is empty and the caller falls back to quarantining the whole
/// set.
pub fn isolate_poison<T: Copy>(members: &[T], probe: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    // The recursion only reaches a singleton through a *failed* probe
    // of that singleton, so the base case convicts without re-probing;
    // the top-level entry has no such evidence yet and must probe.
    if let [one] = members {
        return if probe(members) {
            Vec::new()
        } else {
            vec![*one]
        };
    }
    fn go<T: Copy>(set: &[T], probe: &mut dyn FnMut(&[T]) -> bool, out: &mut Vec<T>) {
        match set {
            [] => {}
            [one] => out.push(*one),
            _ => {
                let (left, right) = set.split_at(set.len() / 2);
                match (probe(left), probe(right)) {
                    // Interaction-only failure: neither half is
                    // individually to blame; report nothing from here.
                    (true, true) => {}
                    (true, false) => go(right, probe, out),
                    (false, true) => go(left, probe, out),
                    (false, false) => {
                        go(left, probe, out);
                        go(right, probe, out);
                    }
                }
            }
        }
    }
    let mut out = Vec::new();
    go(members, probe, &mut out);
    out
}

/// Per-tenant circuit breaker (CLOSED → OPEN → HALF-OPEN), modeled on
/// qd-fed's per-client health tracking. Strikes accumulate per
/// quarantined unit; at `trip` strikes the breaker OPENs and the
/// tenant's queued members are shed to FAILED for `cooldown` units;
/// then HALF-OPEN lets one unit through — served closes the breaker,
/// another quarantine re-opens it.
///
/// Nothing here is serialized: the state is a pure fold over the
/// journal's per-unit outcomes, so a resumed run replays the completed
/// units and lands on the identical state (`TenantBreaker::replay`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantBreaker {
    trip: u32,
    cooldown: u32,
    strikes: Vec<u32>,
    /// Remaining shed units; > 0 means OPEN.
    cooldowns: Vec<u32>,
    half_open: Vec<bool>,
}

impl TenantBreaker {
    /// A breaker per tenant, all CLOSED. `trip == 0` disables tripping
    /// entirely.
    pub fn new(tenants: usize, trip: u32, cooldown: u32) -> TenantBreaker {
        TenantBreaker {
            trip,
            cooldown,
            strikes: vec![0; tenants],
            cooldowns: vec![0; tenants],
            half_open: vec![false; tenants],
        }
    }

    /// Is tenant `t`'s breaker OPEN (its members get shed)?
    pub fn is_open(&self, t: usize) -> bool {
        self.cooldowns.get(t).is_some_and(|&c| c > 0)
    }

    /// Advances the unit clock: every OPEN breaker's cooldown
    /// decrements, and one that reaches zero goes HALF-OPEN.
    pub fn tick(&mut self) {
        for (cooldown, half_open) in self.cooldowns.iter_mut().zip(&mut self.half_open) {
            if *cooldown > 0 {
                *cooldown -= 1;
                if *cooldown == 0 {
                    *half_open = true;
                }
            }
        }
    }

    /// A unit of tenant `t`'s was quarantined: strike, and trip (or
    /// re-open a HALF-OPEN probe that failed).
    fn record_quarantine(&mut self, t: usize) {
        if self.trip == 0 {
            return;
        }
        let (Some(strikes), Some(cooldown), Some(half_open)) = (
            self.strikes.get_mut(t),
            self.cooldowns.get_mut(t),
            self.half_open.get_mut(t),
        ) else {
            return;
        };
        if *half_open {
            *half_open = false;
            *cooldown = self.cooldown;
            *strikes = 0;
        } else {
            *strikes += 1;
            if *strikes >= self.trip {
                *cooldown = self.cooldown;
                *strikes = 0;
            }
        }
    }

    /// A unit of tenant `t`'s was served to RECOVERED: clear strikes
    /// (and close a HALF-OPEN probe that succeeded).
    fn record_served(&mut self, t: usize) {
        if let (Some(strikes), Some(half_open)) =
            (self.strikes.get_mut(t), self.half_open.get_mut(t))
        {
            *strikes = 0;
            *half_open = false;
        }
    }

    /// Applies one completed unit's outcomes, in the canonical order
    /// (quarantines before serves, member order within each): the same
    /// fold live execution and journal replay both use.
    fn feed(&mut self, unit: &PlannedBatch, quarantined: &[usize], shed: &[usize]) {
        for &i in quarantined {
            if let Some(t) = owner_tenant(unit, i) {
                self.record_quarantine(t);
            }
        }
        for i in 0..unit.members.len() {
            if quarantined.contains(&i) || shed.contains(&i) {
                continue;
            }
            if let Some(t) = owner_tenant(unit, i) {
                self.record_served(t);
            }
        }
    }

    /// Rebuilds breaker state from the journal-derived outcomes of the
    /// leading completed units — the resume path. Because live
    /// execution applies [`TenantBreaker::feed`] with exactly the
    /// outcomes the journal certifies, the replayed state is identical
    /// to the state the killed process held.
    pub(crate) fn replay(&mut self, plan: &Plan, frontier: &Frontier) {
        for (unit, progress) in plan.batches.iter().zip(&frontier.units).take(frontier.done) {
            self.tick();
            let quarantined: Vec<usize> = progress.quarantined.iter().map(|&(i, _)| i).collect();
            self.feed(unit, &quarantined, &progress.failed);
        }
    }

    /// Human-readable state of tenant `t`: `"closed"`, `"open(n)"` or
    /// `"half-open"`.
    pub fn label(&self, t: usize) -> String {
        match (self.cooldowns.get(t), self.half_open.get(t)) {
            (Some(&c), _) if c > 0 => format!("open({c})"),
            (_, Some(true)) => "half-open".to_string(),
            _ => "closed".to_string(),
        }
    }

    /// [`TenantBreaker::label`] for every tenant.
    pub fn labels(&self) -> Vec<String> {
        (0..self.strikes.len()).map(|t| self.label(t)).collect()
    }
}

/// The tenant accountable for a unit member: the first rider's tenant
/// (coalescing merges identical requests, so the first arrival owns
/// the ascent; later riders are free-riders).
fn owner_tenant(unit: &PlannedBatch, member: usize) -> Option<usize> {
    unit.riders
        .get(member)
        .and_then(|r| r.first())
        .map(|tag| tag.tenant)
}

/// Journal-derived progress of one planned unit.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnitProgress {
    /// The unit's atomic RECEIVED set is durable.
    pub started: bool,
    /// Sequence number per member position (full once `started`).
    pub received_seqs: Vec<u64>,
    /// Member positions isolated to QUARANTINED, with the typed reason.
    pub quarantined: Vec<(usize, FailReason)>,
    /// Member positions shed to FAILED.
    pub failed: Vec<usize>,
    /// Member positions served to RECOVERED.
    pub recovered: Vec<usize>,
}

impl UnitProgress {
    /// Every member holds a terminal state.
    fn complete(&self, members: usize) -> bool {
        self.received_seqs.len() == members
            && self.recovered.len() + self.quarantined.len() + self.failed.len() == members
    }
}

/// Where a journal stands relative to a plan.
#[derive(Debug, Clone)]
pub(crate) struct Frontier {
    /// Per-unit progress, index-aligned with `plan.batches`.
    pub units: Vec<UnitProgress>,
    /// Leading units whose every member is terminal.
    pub done: usize,
}

impl Frontier {
    /// The dead-letter set: every quarantined member's request.
    pub fn dead_letter(&self, plan: &Plan) -> ForgetSet {
        let mut set = ForgetSet::empty();
        for (unit, progress) in plan.batches.iter().zip(&self.units) {
            for &(i, _) in &progress.quarantined {
                if let Some(&request) = unit.members.get(i) {
                    set.insert(request);
                }
            }
        }
        set
    }
}

fn foreign(msg: String) -> ServiceError {
    ServiceError::ForeignJournal(msg)
}

/// Aligns the journal's records with the plan's units, record by
/// record: RECEIVED records must arrive in plan order (unit by unit,
/// member by member — each unit's set is one atomic frame, so its
/// records are contiguous), and every later record must reference a
/// sequence number some RECEIVED record introduced. Anything else —
/// RELEARNED records, unknown sequence numbers, requests that do not
/// match the plan — means the journal belongs to some other deployment
/// or config, and progress counting on it would silently corrupt the
/// run: the typed [`ServiceError::ForeignJournal`] refuses it up
/// front.
pub(crate) fn map_journal(plan: &Plan, journal: &RequestJournal) -> Result<Frontier, ServiceError> {
    let mut units: Vec<UnitProgress> = plan
        .batches
        .iter()
        .map(|_| UnitProgress::default())
        .collect();
    // BTreeMap, not HashMap: serve-crate iteration order is
    // lint-enforced deterministic.
    let mut seq_owner: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    let mut next_unit = 0usize;
    let mut next_member = 0usize;
    for record in journal.records() {
        match record.state {
            RequestState::Received => {
                let Some(unit) = plan.batches.get(next_unit) else {
                    return Err(foreign(format!(
                        "RECEIVED record seq {} is beyond the plan's {} units",
                        record.seq,
                        plan.batches.len()
                    )));
                };
                let expected = unit.members.get(next_member).copied();
                if expected != Some(record.request) {
                    return Err(foreign(format!(
                        "RECEIVED record seq {} carries {}, but plan unit {} member {} is {}",
                        record.seq,
                        record.request,
                        next_unit,
                        next_member,
                        expected.map_or_else(|| "absent".to_string(), |r| r.to_string()),
                    )));
                }
                seq_owner.insert(record.seq, (next_unit, next_member));
                if let Some(progress) = units.get_mut(next_unit) {
                    progress.started = true;
                    progress.received_seqs.push(record.seq);
                }
                next_member += 1;
                if next_member == unit.members.len() {
                    next_unit += 1;
                    next_member = 0;
                }
            }
            RequestState::Relearned => {
                return Err(foreign(format!(
                    "RELEARNED record seq {} — relearn streams never come from this service",
                    record.seq
                )));
            }
            state => {
                if next_member != 0 {
                    return Err(foreign(format!(
                        "{state} record seq {} interleaves unit {next_unit}'s RECEIVED set",
                        record.seq
                    )));
                }
                let Some(&(u, m)) = seq_owner.get(&record.seq) else {
                    return Err(foreign(format!(
                        "{state} record references unknown seq {}",
                        record.seq
                    )));
                };
                let Some(progress) = units.get_mut(u) else {
                    continue;
                };
                match state {
                    RequestState::Unlearned => {}
                    RequestState::Recovered => progress.recovered.push(m),
                    RequestState::Quarantined => progress
                        .quarantined
                        .push((m, record.reason.unwrap_or(FailReason::Diverged))),
                    RequestState::Failed => progress.failed.push(m),
                    RequestState::Received | RequestState::Relearned => {}
                }
            }
        }
    }
    if next_member != 0 {
        return Err(foreign(format!(
            "journal ends inside unit {next_unit}'s RECEIVED set"
        )));
    }
    let done = plan
        .batches
        .iter()
        .zip(&units)
        .take_while(|(unit, progress)| progress.complete(unit.members.len()))
        .count();
    Ok(Frontier { units, done })
}

/// Serves one planned unit under failure isolation: shed OPEN-breaker
/// tenants to FAILED, probe the retry ladder, bisect and quarantine
/// what no rung serves, execute the survivors via the resume protocol.
/// `progress` carries the journal-derived state of a unit a killed run
/// left in flight. Returns the member positions quarantined and shed;
/// every other member ends RECOVERED.
#[allow(clippy::too_many_arguments)]
fn serve_unit(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    unit: &PlannedBatch,
    unit_index: usize,
    policy: &GuardPolicy,
    iso: &IsolationConfig,
    breaker: &TenantBreaker,
    rng: &mut Rng,
    progress: Option<&UnitProgress>,
) -> Result<(Vec<usize>, Vec<usize>), ServiceError> {
    let n = unit.members.len();

    let mut quarantined: Vec<usize>;
    let shed: Vec<usize>;
    let received_seqs: Vec<u64>;
    let batch_id;
    let pre_rng;
    let pre_global;
    match progress {
        Some(p) => {
            // A killed run left this unit in flight: its RECEIVED set
            // (and any QUARANTINED/FAILED frames) are already durable.
            // The pre-unit state every probe needs is pinned by the
            // RECEIVED records.
            quarantined = p.quarantined.iter().map(|&(i, _)| i).collect();
            shed = p.failed.clone();
            received_seqs = p.received_seqs.clone();
            let first = journal
                .records()
                .iter()
                .find(|r| {
                    r.state == RequestState::Received && received_seqs.first() == Some(&r.seq)
                })
                .cloned();
            let Some(first) = first else {
                return Err(foreign(format!(
                    "unit {unit_index} is started but its RECEIVED records are missing"
                )));
            };
            batch_id = first.batch;
            pre_rng = first.rng;
            pre_global = first.global;
        }
        None => {
            pre_rng = rng.state();
            pre_global = fed.global().to_vec();
            // Always batch-form (even singletons): the resume protocol
            // then treats every executor unit uniformly.
            let (id, seqs) = journal
                .append_received(&unit.members, &pre_rng, &pre_global)
                .map_err(ServeError::from)?;
            received_seqs = seqs;
            batch_id = Some(id);
            quarantined = Vec::new();
            // Shed decision: members whose owning tenant's breaker is
            // OPEN never reach the model. Derived from breaker state,
            // which is itself a fold over the journal — so a resumed
            // run re-derives the identical decision (and then simply
            // reads the FAILED records instead of re-deciding).
            let to_shed: Vec<usize> = (0..n)
                .filter(|&i| owner_tenant(unit, i).is_some_and(|t| breaker.is_open(t)))
                .collect();
            if !to_shed.is_empty() {
                let frame: Vec<JournalRecord> = to_shed
                    .iter()
                    .filter_map(|&i| {
                        unit.members.get(i).map(|&request| JournalRecord {
                            seq: received_seqs.get(i).copied().unwrap_or_default(),
                            request,
                            state: RequestState::Failed,
                            rng: pre_rng.clone(),
                            global: pre_global.clone(),
                            guard: None,
                            batch: batch_id,
                            reason: Some(FailReason::Shed),
                        })
                    })
                    .collect();
                journal.append_all(frame).map_err(ServeError::from)?;
            }
            shed = to_shed;
        }
    }

    let mut active: Vec<usize> = (0..n)
        .filter(|i| !shed.contains(i) && !quarantined.iter().any(|q| q == i))
        .collect();

    loop {
        if active.is_empty() {
            return Ok((quarantined, shed));
        }
        let requests: Vec<UnlearnRequest> = active
            .iter()
            .filter_map(|&i| unit.members.get(i).copied())
            .collect();
        let probe_rng = Rng::from_state(&pre_rng);
        let mut winning = None;
        for rung in 0..=iso.unit_retries {
            fed.set_global(pre_global.clone());
            if qd.probe_unit(fed, &requests, &ladder_policy(policy, rung), &probe_rng) {
                winning = Some(rung);
                break;
            }
        }
        if let Some(rung) = winning {
            // The probe accepted, so the identical real execution
            // accepts; resume_requests restores the journal tail
            // (marks, model, RNG) itself and runs the remaining
            // members under the winning rung.
            qd.resume_requests(fed, journal, Some(&ladder_policy(policy, rung)), rng)?;
            return Ok((quarantined, shed));
        }
        // No rung serves the active set. Isolate the poison members —
        // by bisection probes when enabled and the set is divisible —
        // and quarantine them with a typed reason.
        let poison: Vec<usize> = if active.len() > 1 && iso.bisect {
            let found = isolate_poison(&active, &mut |subset: &[usize]| {
                let sub: Vec<UnlearnRequest> = subset
                    .iter()
                    .filter_map(|&i| unit.members.get(i).copied())
                    .collect();
                (0..=iso.unit_retries).any(|rung| {
                    fed.set_global(pre_global.clone());
                    qd.probe_unit(fed, &sub, &ladder_policy(policy, rung), &probe_rng)
                })
            });
            if found.is_empty() {
                // Interaction-only failure: bisection cannot localize.
                active.clone()
            } else {
                found
            }
        } else {
            active.clone()
        };
        let reason = if poison.len() < active.len() {
            FailReason::PoisonMember
        } else if iso.unit_retries > 0 {
            FailReason::RetriesExhausted
        } else {
            FailReason::Diverged
        };
        // Probes are side-effect-free, so the journal tail still holds
        // the pre-unit state; the QUARANTINED records re-certify it
        // (terminal: these members never touched the model).
        let (tail_rng, tail_global) = journal.last().map_or_else(
            || (pre_rng.clone(), pre_global.clone()),
            |r| (r.rng.clone(), r.global.clone()),
        );
        let frame: Vec<JournalRecord> = poison
            .iter()
            .filter_map(|&i| {
                unit.members.get(i).map(|&request| JournalRecord {
                    seq: received_seqs.get(i).copied().unwrap_or_default(),
                    request,
                    state: RequestState::Quarantined,
                    rng: tail_rng.clone(),
                    global: tail_global.clone(),
                    guard: None,
                    batch: batch_id,
                    reason: Some(reason),
                })
            })
            .collect();
        journal.append_all(frame).map_err(ServeError::from)?;
        quarantined.extend(poison.iter().copied());
        active.retain(|i| !poison.contains(i));
    }
}

/// Folds the journal's terminal outcomes into the plan-derived stats:
/// `served` becomes the riders of journal-certified RECOVERED members
/// (not the plan's promise), quarantined/shed riders come from the
/// QUARANTINED/FAILED records, `pending` is whatever the journal has
/// not made terminal yet (zero once every unit has run), and the
/// breaker column reports the final per-tenant fold when one is in
/// force. Everything here is a pure function of (plan, journal,
/// breaker fold), so a resumed run reports bit-for-bit the stats of an
/// unfailed one — and the accounting identity `admitted = served +
/// quarantined + shed + pending` holds on any journal prefix.
pub(crate) fn apply_failure_stats(
    stats: &mut ServeStats,
    plan: &Plan,
    frontier: &Frontier,
    breaker: Option<&TenantBreaker>,
) {
    let mut served = 0u64;
    let mut quarantined = 0u64;
    let mut shed = 0u64;
    for (unit, progress) in plan.batches.iter().zip(&frontier.units) {
        if !progress.quarantined.is_empty() {
            stats.retried_units += 1;
        }
        if progress
            .quarantined
            .iter()
            .any(|&(_, reason)| reason == FailReason::PoisonMember)
        {
            stats.bisected_units += 1;
        }
        for &i in &progress.recovered {
            served += unit.riders.get(i).map_or(0, |r| r.len() as u64);
        }
        for &(i, _) in &progress.quarantined {
            quarantined += unit.riders.get(i).map_or(0, |r| r.len() as u64);
        }
        for &i in &progress.failed {
            shed += unit.riders.get(i).map_or(0, |r| r.len() as u64);
        }
    }
    stats.quarantined = quarantined;
    stats.shed = shed;
    stats.served = served;
    stats.pending = stats.admitted.saturating_sub(served + quarantined + shed);
    if let Some(breaker) = breaker {
        stats.breaker = breaker.labels();
    }
}

/// Journal↔plan consistency, summarized for external harnesses.
///
/// Produced by [`frontier_summary`], which runs the same typed
/// alignment the executor itself resumes from (`map_journal`): a
/// journal that cannot be aligned with the plan is a
/// [`ServiceError::ForeignJournal`], and an aligned one yields these
/// counts for invariant checking (qd-chaos's journal-frontier
/// invariant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontierSummary {
    /// Units the plan schedules.
    pub units: usize,
    /// Leading units whose every member holds a terminal state.
    pub done: usize,
    /// Members with a durable RECEIVED record.
    pub received: usize,
    /// Members served to RECOVERED.
    pub recovered: usize,
    /// Members isolated to QUARANTINED.
    pub quarantined: usize,
    /// Members shed to FAILED.
    pub failed: usize,
}

/// Aligns `journal` against the plan `cfg` produces and summarizes the
/// frontier — the read-only entry point chaos harnesses check journal
/// consistency through.
///
/// # Errors
///
/// [`ServiceError::Plan`] for an unrunnable config, or
/// [`ServiceError::ForeignJournal`] when the journal's records cannot
/// be aligned with the plan (wrong config, relearn records, some other
/// deployment's history).
pub fn frontier_summary(
    cfg: &crate::config::ServeConfig,
    journal: &RequestJournal,
) -> Result<FrontierSummary, ServiceError> {
    let plan = crate::plan::build_plan(cfg).map_err(ServiceError::Plan)?;
    let frontier = map_journal(&plan, journal)?;
    let mut summary = FrontierSummary {
        units: plan.batches.len(),
        done: frontier.done,
        received: 0,
        recovered: 0,
        quarantined: 0,
        failed: 0,
    };
    for progress in &frontier.units {
        summary.received += progress.received_seqs.len();
        summary.recovered += progress.recovered.len();
        summary.quarantined += progress.quarantined.len();
        summary.failed += progress.failed.len();
    }
    Ok(summary)
}

/// The service run behind [`crate::run_service`] when its
/// [`IsolationConfig`] is active: the retry ladder, batch bisection and
/// per-tenant circuit breakers of this module. It needs a guard policy
/// (the probes need a divergence verdict to act on), and it continues a
/// killed run itself: it restores the journal tail
/// ([`QuickDrop::restore_tail`]) and re-derives the breaker fold and
/// the winning ladder rung from the journal.
pub(crate) fn run_isolated(
    qd: &mut QuickDrop,
    fed: &mut Federation,
    journal: &mut RequestJournal,
    cfg: &ServeConfig,
    policy: Option<&GuardPolicy>,
    iso: &IsolationConfig,
    rng: &mut Rng,
) -> Result<ServiceRun, ServiceError> {
    let Some(policy) = policy else {
        return Err(ServiceError::Plan(
            "failure isolation requires a guard policy: the retry ladder and bisection \
             probes need a divergence verdict to act on"
                .to_string(),
        ));
    };
    let plan = build_plan(cfg).map_err(ServiceError::Plan)?;
    let frontier = map_journal(&plan, journal)?;
    // Restore marks/model/RNG from the journal tail without finishing
    // the in-flight unit (the ladder rung must be re-derived first).
    // Idempotent when the live state already matches the tail.
    qd.restore_tail(fed, journal, rng);
    let mut breaker = TenantBreaker::new(
        plan.rejected_by_tenant.len(),
        iso.breaker_trip,
        iso.breaker_cooldown,
    );
    breaker.replay(&plan, &frontier);
    let mut executed_units = 0u64;
    for (index, unit) in plan.batches.iter().enumerate().skip(frontier.done) {
        let progress = frontier.units.get(index).filter(|p| p.started);
        let (quarantined, shed) = serve_unit(
            qd, fed, journal, unit, index, policy, iso, &breaker, rng, progress,
        )?;
        breaker.tick();
        breaker.feed(unit, &quarantined, &shed);
        executed_units += 1;
    }
    ServiceRun::from_journal(
        &plan,
        journal,
        Some(&breaker),
        executed_units,
        frontier.done as u64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::RequestTag;
    use qd_core::{FaultFs, Vfs};
    use qd_tensor::rng::Rng;
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tag(tenant: usize) -> RequestTag {
        RequestTag {
            tenant,
            idx: 0,
            at_us: 0,
        }
    }

    /// A two-unit plan: a coalesced pair then a singleton, tenants 0/1.
    fn tiny_plan() -> Plan {
        let unit = |members: Vec<UnlearnRequest>, tenants: Vec<usize>| PlannedBatch {
            riders: tenants.iter().map(|&t| vec![tag(t)]).collect(),
            members,
            start_us: 0,
            finish_us: 1,
        };
        Plan {
            batches: vec![
                unit(
                    vec![UnlearnRequest::Client(0), UnlearnRequest::Client(1)],
                    vec![0, 1],
                ),
                unit(vec![UnlearnRequest::Client(2)], vec![0]),
            ],
            offered: 3,
            admitted: 3,
            rejected_by_tenant: vec![0, 0],
            latencies_us: vec![1, 1, 1],
            max_queue_depth: 1,
            depth_sum: 1,
            depth_samples: 1,
            makespan_us: 1,
        }
    }

    fn mem_journal() -> RequestJournal {
        let fs: Arc<dyn Vfs> = Arc::new(FaultFs::new());
        RequestJournal::open_on(fs, PathBuf::from("t.journal")).unwrap()
    }

    fn record(seq: u64, request: UnlearnRequest, state: RequestState) -> JournalRecord {
        JournalRecord {
            seq,
            request,
            state,
            rng: Rng::seed_from(1).state(),
            global: Vec::new(),
            guard: None,
            batch: Some(qd_core::BatchId(0)),
            reason: None,
        }
    }

    #[test]
    fn map_journal_walks_a_matching_journal() {
        let plan = tiny_plan();
        let mut journal = mem_journal();
        journal
            .append_all(vec![
                record(0, UnlearnRequest::Client(0), RequestState::Received),
                record(1, UnlearnRequest::Client(1), RequestState::Received),
            ])
            .unwrap();
        journal
            .append(record(
                0,
                UnlearnRequest::Client(0),
                RequestState::Quarantined,
            ))
            .unwrap();
        let f = map_journal(&plan, &journal).unwrap();
        assert_eq!(f.done, 0, "unit 0 still has a live member");
        assert!(f.units[0].started);
        assert_eq!(f.units[0].quarantined, vec![(0, FailReason::Diverged)]);
        assert!(!f.units[1].started);
        assert_eq!(
            f.dead_letter(&plan).requests(),
            vec![UnlearnRequest::Client(0)]
        );

        journal
            .append(record(
                1,
                UnlearnRequest::Client(1),
                RequestState::Recovered,
            ))
            .unwrap();
        let f = map_journal(&plan, &journal).unwrap();
        assert_eq!(f.done, 1, "unit 0 is terminal for every member");
    }

    #[test]
    fn map_journal_refuses_foreign_journals() {
        let plan = tiny_plan();

        // A request the plan never scheduled.
        let mut journal = mem_journal();
        journal
            .append(record(0, UnlearnRequest::Class(7), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A relearn stream.
        let mut journal = mem_journal();
        journal
            .append(record(
                0,
                UnlearnRequest::Client(0),
                RequestState::Relearned,
            ))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A terminal record for a sequence no RECEIVED introduced.
        let mut journal = mem_journal();
        journal
            .append(record(
                9,
                UnlearnRequest::Client(0),
                RequestState::Recovered,
            ))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // A journal ending inside unit 0's atomic RECEIVED set.
        let mut journal = mem_journal();
        journal
            .append(record(0, UnlearnRequest::Client(0), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));

        // More RECEIVED records than the plan has units.
        let mut journal = mem_journal();
        journal
            .append_all(vec![
                record(0, UnlearnRequest::Client(0), RequestState::Received),
                record(1, UnlearnRequest::Client(1), RequestState::Received),
            ])
            .unwrap();
        journal
            .append(record(2, UnlearnRequest::Client(2), RequestState::Received))
            .unwrap();
        journal
            .append(record(3, UnlearnRequest::Client(0), RequestState::Received))
            .unwrap();
        assert!(matches!(
            map_journal(&plan, &journal),
            Err(ServiceError::ForeignJournal(_))
        ));
    }

    #[test]
    fn breaker_trips_cools_down_and_half_opens() {
        let mut b = TenantBreaker::new(2, 2, 3);
        assert!(!b.is_open(0));
        assert_eq!(b.label(0), "closed");

        // One strike is below the trip threshold.
        b.record_quarantine(0);
        assert!(!b.is_open(0));
        // The second strike trips OPEN for the full cooldown.
        b.record_quarantine(0);
        assert!(b.is_open(0));
        assert_eq!(b.label(0), "open(3)");
        assert!(!b.is_open(1), "tenant 1 is unaffected");

        // Cooldown expires unit by unit; at zero the breaker half-opens.
        b.tick();
        b.tick();
        assert_eq!(b.label(0), "open(1)");
        b.tick();
        assert!(!b.is_open(0));
        assert_eq!(b.label(0), "half-open");

        // A served unit in HALF-OPEN closes the breaker for good.
        b.record_served(0);
        assert_eq!(b.label(0), "closed");

        // A quarantine in HALF-OPEN re-opens immediately instead.
        b.record_quarantine(0);
        b.record_quarantine(0);
        b.tick();
        b.tick();
        b.tick();
        assert_eq!(b.label(0), "half-open");
        b.record_quarantine(0);
        assert_eq!(b.label(0), "open(3)", "a failed probe re-opens");
    }

    #[test]
    fn breaker_served_resets_strikes() {
        let mut b = TenantBreaker::new(1, 3, 1);
        b.record_quarantine(0);
        b.record_quarantine(0);
        b.record_served(0);
        b.record_quarantine(0);
        b.record_quarantine(0);
        assert!(!b.is_open(0), "strikes must reset on a served unit");
        b.record_quarantine(0);
        assert!(b.is_open(0));
    }

    #[test]
    fn disabled_breaker_never_trips() {
        let mut b = TenantBreaker::new(1, 0, 0);
        for _ in 0..10 {
            b.record_quarantine(0);
        }
        assert!(!b.is_open(0));
        assert_eq!(b.label(0), "closed");
    }
}
