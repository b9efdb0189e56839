//! Automatic schedule shrinking: reduce a violating schedule to a
//! minimal reproducer.
//!
//! Greedy fixpoint reduction: propose candidate schedules in a fixed
//! deterministic order — drop one fault, halve one intensity, truncate
//! one workload dimension — re-run each through the [`Harness`], and
//! accept the first candidate that still trips the *same invariant*.
//! Repeat until a full pass accepts nothing. Every reduction strictly
//! decreases a finite measure (fault count, op indices, workload
//! sizes), so the loop terminates.

use crate::invariant::Violation;
use crate::scenario::{ChaosError, Harness};
use crate::schedule::{ChaosSchedule, CrashPoint, FaultSpec, StorageFault};
use serde::{DeError, Deserialize, Serialize, Value};

/// A minimal reproducer: the shrunk schedule plus the violation it
/// deterministically re-triggers — the content of `chaos-repro.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// The shrunk (or original, when nothing shrank) schedule.
    pub schedule: ChaosSchedule,
    /// The violation replaying the schedule must reproduce
    /// byte-for-byte.
    pub violation: Violation,
}

impl Serialize for Repro {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("schedule".to_string(), self.schedule.to_value()),
            ("violation".to_string(), self.violation.to_value()),
        ])
    }
}

impl Deserialize for Repro {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Repro {
            schedule: Deserialize::from_value(v.field("Repro", "schedule")?)?,
            violation: Deserialize::from_value(v.field("Repro", "violation")?)?,
        })
    }
}

impl Repro {
    /// Serializes the reproducer as one JSON line.
    ///
    /// # Errors
    ///
    /// A description of the (exotic: non-finite float) encode failure.
    pub fn to_json(&self) -> Result<String, String> {
        let mut json = serde_json::to_string(&self.to_value()).map_err(|e| e.to_string())?;
        json.push('\n');
        Ok(json)
    }

    /// Parses a reproducer and validates its schedule.
    ///
    /// # Errors
    ///
    /// A description of the parse or validation failure.
    pub fn from_json(text: &str) -> Result<Repro, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let repro = Repro::from_value(&value).map_err(|e| e.to_string())?;
        repro.schedule.validate()?;
        Ok(repro)
    }
}

/// Shrinks `schedule` to a minimal schedule still tripping the same
/// invariant as `violation`, re-running candidates on `harness`.
/// Returns the reproducer holding the final schedule and the violation
/// it produced (whose detail may legitimately differ from the original
/// — a smaller schedule stalls earlier, diverges at a different seq —
/// but whose invariant name is pinned).
///
/// # Errors
///
/// [`ChaosError`] when the starting schedule no longer reproduces any
/// violation of the same invariant (a flaky violation is itself a
/// determinism bug worth surfacing loudly).
pub fn shrink(
    harness: &mut Harness,
    schedule: &ChaosSchedule,
    violation: &Violation,
) -> Result<Repro, ChaosError> {
    let mut current = schedule.clone();
    let mut current_violation =
        reproduce(harness, &current, &violation.invariant)?.ok_or_else(|| {
            ChaosError(format!(
                "shrink starting point does not reproduce {}: nondeterministic violation",
                violation.invariant
            ))
        })?;
    loop {
        let mut reduced = false;
        for candidate in candidates(&current) {
            if candidate == current {
                continue;
            }
            if candidate.validate().is_err() {
                continue;
            }
            if let Some(v) = reproduce(harness, &candidate, &violation.invariant)? {
                current = candidate;
                current_violation = v;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return Ok(Repro {
                schedule: current,
                violation: current_violation,
            });
        }
    }
}

/// Runs `schedule` and returns its first violation of `invariant`, if
/// any.
fn reproduce(
    harness: &mut Harness,
    schedule: &ChaosSchedule,
    invariant: &str,
) -> Result<Option<Violation>, ChaosError> {
    let report = harness.run(schedule)?;
    Ok(report
        .violations
        .into_iter()
        .find(|v| v.invariant == invariant))
}

/// Candidate reductions of `schedule`, most aggressive first: drop a
/// fault entirely, then halve fault intensities, then truncate the
/// workload, then tighten the resume budget.
fn candidates(schedule: &ChaosSchedule) -> Vec<ChaosSchedule> {
    let mut out = Vec::new();
    // Drop each fault.
    for i in 0..schedule.faults.len() {
        let mut c = schedule.clone();
        c.faults.remove(i);
        out.push(c);
    }
    // Halve each fault's intensity.
    for i in 0..schedule.faults.len() {
        let mut c = schedule.clone();
        if let Some(fault) = c.faults.get_mut(i) {
            fault.spec = match fault.spec {
                FaultSpec::Crash(CrashPoint::VfsOp(op)) => {
                    FaultSpec::Crash(CrashPoint::VfsOp(op / 2))
                }
                FaultSpec::Crash(CrashPoint::Boundary { unit, boundary }) => {
                    FaultSpec::Crash(CrashPoint::Boundary {
                        unit: unit / 2,
                        boundary,
                    })
                }
                FaultSpec::Storage { op, fault } => FaultSpec::Storage {
                    op: op / 2,
                    fault: match fault {
                        StorageFault::TornWrite(n) => StorageFault::TornWrite(n / 2),
                        other => other,
                    },
                },
            };
        }
        out.push(c);
    }
    // Truncate the workload, one knob at a time.
    let w = &schedule.workload;
    if w.requests > 1 {
        let mut c = schedule.clone();
        c.workload.requests = w.requests / 2;
        out.push(c);
    }
    if w.tenants > 1 {
        let mut c = schedule.clone();
        c.workload.tenants = 1;
        out.push(c);
    }
    if w.relearn {
        let mut c = schedule.clone();
        c.workload.relearn = false;
        out.push(c);
    }
    if w.ascent_spike > 1.0 {
        let mut c = schedule.clone();
        c.workload.ascent_spike = 1.0;
        out.push(c);
    }
    if w.net_drop > 0.0 {
        let mut c = schedule.clone();
        c.workload.net_drop = 0.0;
        out.push(c);
    }
    if w.byzantine_frac > 0.0 {
        let mut c = schedule.clone();
        c.workload.byzantine_frac = 0.0;
        // A spike without Byzantine clients is inert; drop it too so
        // the pair shrinks as one step.
        c.workload.ascent_spike = 1.0;
        out.push(c);
    }
    if w.breaker_trip > 0 {
        let mut c = schedule.clone();
        c.workload.breaker_trip = 0;
        out.push(c);
    }
    if w.rounds > 1 {
        let mut c = schedule.clone();
        c.workload.rounds = w.rounds / 2;
        out.push(c);
    }
    // Deliberately NOT a candidate: halving `max_resumes`. A tighter
    // resume budget can manufacture a stall that the original system
    // never exhibited, turning a real liveness reproducer into a
    // trivial budget artifact.
    out
}
