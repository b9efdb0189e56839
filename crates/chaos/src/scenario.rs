//! The deterministic whole-system scenario a chaos schedule drives.
//!
//! [`Harness::run`] executes one [`ChaosSchedule`] twice over the full
//! deploy → serve → crash → resume → relearn lifecycle: a fault-free
//! *reference* run, and a *faulted* run that arms the schedule's
//! failures lifetime by lifetime on a [`FaultFs`], crashing the
//! in-memory machine after every process death and resuming from
//! whatever survived. Every death is a `FaultFs` kill; a death "right
//! after a journal boundary" is located first, in the op log of the
//! same lifetime: the cached reference run's for a fault-free first
//! lifetime, a dry run's otherwise. Both runs share the workload
//! (training mix, Byzantine plan, serving traffic) bit-for-bit, so the
//! invariant registry can demand identical terminal states.

use crate::schedule::{Boundary, ChaosSchedule, CrashPoint, StorageFault, Workload};
use qd_core::{
    BatchId, Checkpoint, FaultFs, JournalRecord, QuickDrop, QuickDropConfig, RequestJournal,
    RequestState, Vfs, VfsOp,
};
use qd_data::{partition_iid, Dataset, SyntheticDataset};
use qd_fed::{FaultPlan, Federation, Phase};
use qd_net::NetConfig;
use qd_nn::{Mlp, Module};
use qd_serve::{
    frontier_summary, run_service, FrontierSummary, IsolationConfig, ServeConfig, ServeStats,
};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// A harness-level failure: the schedule itself is unrunnable (invalid,
/// or its fault-free reference run does not complete). Distinct from an
/// invariant violation, which is the *system* misbehaving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosError(pub String);

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "chaos harness: {}", self.0)
    }
}

impl std::error::Error for ChaosError {}

/// The terminal state of one complete lifecycle — everything the
/// invariants compare.
#[derive(Debug, Clone)]
pub struct Terminal {
    /// Final global model parameters.
    pub global: Vec<Tensor>,
    /// Final RNG stream position.
    pub rng: RngState,
    /// Every durable journal record.
    pub records: Vec<JournalRecord>,
    /// The reported SLA stats.
    pub stats: ServeStats,
    /// Journal↔plan frontier alignment, when the journal is still
    /// alignable (`None` after a RELEARNED terminal record, which
    /// [`qd_serve::frontier_summary`] rightly refuses).
    pub frontier: Option<Result<FrontierSummary, String>>,
    /// Every surviving on-disk file, bit for bit.
    pub files: BTreeMap<PathBuf, Vec<u8>>,
}

/// What one faulted schedule execution produced — the invariant
/// registry's input.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The schedule that ran.
    pub schedule: ChaosSchedule,
    /// Terminal state of the fault-free reference run.
    pub reference: Terminal,
    /// Terminal state of the faulted run, when it completed within the
    /// resume budget.
    pub faulted: Option<Terminal>,
    /// Process lifetimes the faulted run used (1 = no deaths).
    pub attempts: u32,
    /// Faults that actually fired (scheduled faults whose op index was
    /// never reached do not count).
    pub faults_fired: u64,
    /// The last lifetime's death message when the run stalled.
    pub last_error: String,
}

impl RunOutcome {
    /// True when the faulted run never reached a terminal state within
    /// `max_resumes` — the liveness failure the run-completes
    /// invariant reports.
    pub fn stalled(&self) -> bool {
        self.faulted.is_none()
    }
}

/// The serializable result of one schedule execution: what `qd chaos`
/// prints per run and what the determinism tests compare.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunReport {
    /// Whether the faulted run reached a terminal state.
    pub completed: bool,
    /// Process lifetimes used.
    pub attempts: u32,
    /// Faults that actually fired.
    pub faults_fired: u64,
    /// Invariants evaluated against the outcome.
    pub invariants_checked: u64,
    /// Violations found (empty on a healthy run).
    pub violations: Vec<crate::invariant::Violation>,
}

/// One trained deployment, snapshotted so every run of a seed reuses
/// the (expensive) federated training epoch.
struct DeploySeed {
    ckpt: Checkpoint,
    rng: RngState,
}

/// One workload's fault-free reference run: its terminal state, plus
/// its op log and journal, which locate boundary deaths in any
/// lifetime that is that same run (empty disk, no storage faults).
struct Reference {
    terminal: Terminal,
    log: Vec<(VfsOp, PathBuf)>,
    journal: RequestJournal,
}

/// The chaos executor. Caches trained deployments and fault-free
/// reference runs across runs, keyed by the workload knobs that
/// produced them, so a multi-run sweep trains once per environment.
#[derive(Default)]
pub struct Harness {
    deploys: BTreeMap<String, DeploySeed>,
    references: BTreeMap<String, Reference>,
}

fn ckpt_path() -> PathBuf {
    PathBuf::from("chaos.ckpt.json")
}

fn journal_path() -> PathBuf {
    RequestJournal::path_for_checkpoint(ckpt_path())
}

fn stats_path() -> PathBuf {
    PathBuf::from("chaos.stats.json")
}

/// The environment cache key: every knob that shapes training.
fn env_key(w: &Workload) -> String {
    format!(
        "seed={} samples={} clients={} rounds={} byz={:08x} drop={:08x}",
        w.train_seed,
        w.samples,
        w.clients,
        w.rounds,
        w.byzantine_frac.to_bits(),
        w.net_drop.to_bits(),
    )
}

/// The reference cache key: the whole workload.
fn workload_key(w: &Workload) -> String {
    format!("{w:?}")
}

fn serve_config(w: &Workload) -> ServeConfig {
    ServeConfig {
        tenants: w.tenants,
        arrival_requests: w.requests,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: w.clients,
        // Under an ascent spike the interesting mix is client-forget
        // requests (their ascents involve the Byzantine clients
        // directly); without a spike the default class-heavy mix
        // exercises coalescing harder.
        class_share: if spike_active(w) { 0.0 } else { 0.7 },
        seed: w.serve_seed,
        ..ServeConfig::default()
    }
}

fn spike_active(w: &Workload) -> bool {
    w.ascent_spike > 1.0 && w.byzantine_frac > 0.0
}

fn isolation(w: &Workload) -> IsolationConfig {
    if spike_active(w) {
        IsolationConfig {
            unit_retries: 2,
            bisect: true,
            breaker_trip: w.breaker_trip,
            breaker_cooldown: w.breaker_cooldown,
        }
    } else {
        IsolationConfig::default()
    }
}

fn guard_policy() -> qd_unlearn::GuardPolicy {
    // Coalesced batches run several ascents back-to-back before the
    // shared recovery, so drift accumulates well past the
    // single-request budget; keep a real budget in force with enough
    // headroom that a clean run never rolls back.
    qd_unlearn::GuardPolicy {
        drift_budget: 64.0,
        ..qd_unlearn::GuardPolicy::default()
    }
}

/// A federation stub whose clients hold no real data — everything the
/// serving path needs lives in the checkpoint's synthetic sets.
fn stub_federation(qd: &QuickDrop, params: Vec<Tensor>) -> Result<Federation, String> {
    let first = qd
        .synthetic_sets()
        .first()
        .ok_or_else(|| "checkpoint holds no synthetic sets".to_string())?;
    let (c, h, wd) = first.sample_dims();
    let classes = first.classes();
    let n = qd.synthetic_sets().len();
    let empty = Dataset::new(Vec::new(), Vec::new(), classes, c, h, wd);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    Ok(Federation::with_params(model, vec![empty; n], params))
}

impl Harness {
    /// A fresh harness with empty caches.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Executes `schedule`: fault-free reference run, faulted run with
    /// crash-and-resume, then the full invariant registry.
    ///
    /// # Errors
    ///
    /// [`ChaosError`] when the schedule is invalid or its fault-free
    /// reference run fails — both mean the *schedule* is broken, not
    /// the system under test.
    pub fn run(&mut self, schedule: &ChaosSchedule) -> Result<RunReport, ChaosError> {
        let outcome = self.execute(schedule)?;
        let registry = crate::invariant::registry();
        let mut violations = Vec::new();
        for invariant in &registry {
            if let Some(v) = invariant.check(&outcome) {
                violations.push(v);
            }
        }
        Ok(RunReport {
            completed: !outcome.stalled(),
            attempts: outcome.attempts,
            faults_fired: outcome.faults_fired,
            invariants_checked: registry.len() as u64,
            violations,
        })
    }

    /// Executes `schedule` and returns the raw outcome without checking
    /// invariants — what the shrinker re-runs candidates through.
    ///
    /// # Errors
    ///
    /// As [`Harness::run`].
    pub fn execute(&mut self, schedule: &ChaosSchedule) -> Result<RunOutcome, ChaosError> {
        schedule.validate().map_err(ChaosError)?;
        let w = schedule.workload.clone();
        self.ensure_deploy(&w)?;
        self.ensure_reference(&w)?;
        let reference = self
            .references
            .get(&workload_key(&w))
            .map(|r| r.terminal.clone())
            .ok_or_else(|| ChaosError("reference cache miss after fill".to_string()))?;

        let fs = Arc::new(FaultFs::new());
        let mut attempt: u32 = 0;
        let mut faults_fired: u64 = 0;
        let mut faulted = None;
        let mut last_error = String::new();
        loop {
            let (storage, crash) = schedule.faults_for(attempt);
            let image = fs.files();
            let kill = match crash {
                Some(CrashPoint::VfsOp(op)) => Some(op),
                Some(CrashPoint::Boundary { unit, boundary }) => {
                    self.locate(&w, &fs, &image, &storage, unit, boundary)
                }
                None => None,
            };
            begin_lifetime(&fs, image, &storage);
            if let Some(op) = kill {
                // A storage fault at the located op never runs: the
                // process dies right there, as one death.
                fs.kill_at(op);
            }
            let armed = fs.pending_faults();
            let result = self.attempt(&w, &fs);
            faults_fired += armed.saturating_sub(fs.pending_faults());
            match result {
                Ok((terminal, _)) => {
                    faulted = Some(terminal);
                    break;
                }
                Err(death) => {
                    last_error = death;
                    fs.crash();
                    attempt += 1;
                    if attempt > schedule.max_resumes {
                        break;
                    }
                }
            }
        }
        // Lifetimes used: one per death, plus the final completing one.
        let attempts = attempt + u32::from(faulted.is_some());
        Ok(RunOutcome {
            schedule: schedule.clone(),
            reference,
            faulted,
            attempts,
            faults_fired,
            last_error,
        })
    }

    /// Locates a boundary death: the first op after the fsync that made
    /// `boundary` of planned unit `unit` durable
    /// ([`RequestJournal::kill_after`]), in the lifetime that starts
    /// from `image` with `storage` faults. On an empty disk with no
    /// storage faults that lifetime is the cached reference run;
    /// otherwise a dry run of it (same image and faults, no kill)
    /// provides the op log. `None` when the lifetime never writes that
    /// boundary, so the kill would never fire — without a dry run when
    /// the image already holds it.
    fn locate(
        &self,
        w: &Workload,
        fs: &Arc<FaultFs>,
        image: &BTreeMap<PathBuf, Vec<u8>>,
        storage: &[(u64, StorageFault)],
        unit: usize,
        boundary: Boundary,
    ) -> Option<u64> {
        let (state, k) = match boundary {
            Boundary::Received => (RequestState::Received, 1),
            Boundary::Unlearned(k) => (RequestState::Unlearned, k),
            Boundary::Recovered => (RequestState::Recovered, 1),
            Boundary::Quarantined => (RequestState::Quarantined, 1),
            Boundary::Failed => (RequestState::Failed, 1),
        };
        // The journal is dedicated to one plan and opens one batch per
        // unit in plan order, so unit `u` is batch `u`.
        let frame =
            |journal: &RequestJournal| journal.boundary_frame(BatchId(unit as u64), state, k);
        let at = |journal: &RequestJournal, log: &[(VfsOp, PathBuf)]| {
            journal.kill_after(log, frame(journal)?.start)
        };
        if image.is_empty() && storage.is_empty() {
            let reference = self.references.get(&workload_key(w))?;
            return at(&reference.journal, &reference.log);
        }
        let open = || RequestJournal::open_on(Arc::clone(fs) as Arc<dyn Vfs>, journal_path()).ok();
        // A boundary the image already holds is behind this lifetime.
        fs.reset_to(image.clone());
        if frame(&open()?).is_some() {
            return None;
        }
        begin_lifetime(fs, image.clone(), storage);
        // Only how far the dry run got matters, not how it ended.
        let _ = self.attempt(w, fs);
        let log = fs.op_log();
        fs.clear_faults();
        at(&open()?, &log)
    }

    fn ensure_deploy(&mut self, w: &Workload) -> Result<(), ChaosError> {
        let key = env_key(w);
        if self.deploys.contains_key(&key) {
            return Ok(());
        }
        let mut rng = Rng::seed_from(w.train_seed);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
        let data = SyntheticDataset::Digits.generate(w.samples, &mut rng);
        let parts = partition_iid(data.len(), w.clients, &mut rng);
        let clients = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model, clients, &mut rng);
        if w.byzantine_frac > 0.0 {
            // Byzantine clients run the full default fault menu during
            // training; the trained deployment must already tolerate
            // them (robust aggregation is part of the environment).
            fed.set_fault_plan(Some(FaultPlan::new(w.train_seed, w.byzantine_frac)));
        }
        let mut cfg = QuickDropConfig::scaled_test();
        cfg.train_phase = Phase::training(w.rounds, 2, 16, 0.1);
        let cfg = cfg.with_net(NetConfig::lossy(w.train_seed, w.net_drop));
        let (qd, _) = QuickDrop::train(&mut fed, cfg, &mut rng);
        fed.set_fault_plan(None);
        self.deploys.insert(
            key,
            DeploySeed {
                ckpt: Checkpoint::capture(fed.global(), &qd),
                rng: rng.state(),
            },
        );
        Ok(())
    }

    fn ensure_reference(&mut self, w: &Workload) -> Result<(), ChaosError> {
        let key = workload_key(w);
        if self.references.contains_key(&key) {
            return Ok(());
        }
        let fs = Arc::new(FaultFs::new());
        let (terminal, journal) = self
            .attempt(w, &fs)
            .map_err(|e| ChaosError(format!("fault-free reference run failed: {e}")))?;
        let log = fs.op_log();
        self.references.insert(
            key,
            Reference {
                terminal,
                log,
                journal,
            },
        );
        Ok(())
    }

    /// One process lifetime: deploy or recover from whatever `fs`
    /// holds, serve to completion, persist stats, relearn when the
    /// workload asks for it; returns the terminal state and the
    /// lifetime's journal. Any surfaced storage error is the process
    /// dying, reported as `Err`.
    fn attempt(
        &self,
        w: &Workload,
        fs: &Arc<FaultFs>,
    ) -> Result<(Terminal, RequestJournal), String> {
        let seed = self
            .deploys
            .get(&env_key(w))
            .ok_or_else(|| "deploy cache miss".to_string())?;
        let ckpt = ckpt_path();

        // Deploy fresh or recover the durable checkpoint. The fresh
        // path saves the checkpoint before any journal write, so a
        // missing checkpoint implies an empty journal.
        let fresh = fs.file(&ckpt).is_none();
        let restored = if fresh {
            seed.ckpt.clone()
        } else {
            let (loaded, _fell_back) =
                Checkpoint::load_with_fallback_on(fs.as_ref(), &ckpt).map_err(|e| e.to_string())?;
            loaded
        };
        let (params, mut qd) = restored.restore().map_err(|e| e.to_string())?;
        let mut fed = stub_federation(&qd, params)?;
        let mut rng = Rng::from_state(&seed.rng);
        if fresh {
            seed.ckpt
                .save_on(fs.as_ref(), &ckpt)
                .map_err(|e| e.to_string())?;
        }

        let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
        let mut journal =
            RequestJournal::open_on(vfs, journal_path()).map_err(|e| e.to_string())?;

        if spike_active(w) {
            fed.set_fault_plan(Some(FaultPlan::serving_spike(
                w.train_seed,
                w.byzantine_frac,
                w.ascent_spike,
            )));
        }
        let cfg = serve_config(w);
        let policy = guard_policy();
        let iso = isolation(w);

        let relearned = journal
            .records()
            .iter()
            .any(|r| r.state == RequestState::Relearned);
        if relearned {
            // A previous lifetime finished the whole lifecycle; rebuild
            // live state from the tail and reread the persisted stats.
            qd.restore_tail(&mut fed, &journal, &mut rng);
            let stats = read_stats(fs)?;
            let terminal = Terminal {
                global: fed.global().to_vec(),
                rng: rng.state(),
                records: journal.records().to_vec(),
                stats,
                frontier: None,
                files: fs.files(),
            };
            return Ok((terminal, journal));
        }

        if !iso.active() {
            // The isolated executor resumes in-flight units itself (it
            // must re-derive the retry-ladder rung first); only the
            // plain path finishes them here, under the base policy.
            qd.resume_requests(&mut fed, &mut journal, Some(&policy), &mut rng)
                .map_err(|e| e.to_string())?;
        }
        let run = run_service(
            &mut qd,
            &mut fed,
            &mut journal,
            &cfg,
            Some(&policy),
            &mut rng,
            Some(&iso),
        )
        .map_err(|e| e.to_string())?;

        let frontier = frontier_summary(&cfg, &journal).map_err(|e| e.to_string());
        run.stats
            .save_json_on(fs.as_ref(), &stats_path())
            .map_err(|e| e.to_string())?;

        if w.relearn {
            let recovered = journal
                .records()
                .iter()
                .find(|r| r.state == RequestState::Recovered)
                .map(|r| r.request);
            if let Some(request) = recovered {
                let phase = qd.config().relearn_phase;
                qd.relearn_journaled(&mut fed, &mut journal, request, &phase, &mut rng)
                    .map_err(|e| e.to_string())?;
            }
        }

        let terminal = Terminal {
            global: fed.global().to_vec(),
            rng: rng.state(),
            records: journal.records().to_vec(),
            stats: run.stats,
            frontier: Some(frontier),
            files: fs.files(),
        };
        Ok((terminal, journal))
    }
}

/// Starts a lifetime on `fs`: the disk image the last death left (all
/// of it durable after the crash), op indices counted from the
/// lifetime's first syscall, and the lifetime's storage faults armed.
fn begin_lifetime(
    fs: &FaultFs,
    image: BTreeMap<PathBuf, Vec<u8>>,
    storage: &[(u64, StorageFault)],
) {
    fs.reset_to(image);
    for (op, fault) in storage {
        fs.schedule_fault(*op, fault.to_fault());
    }
}

fn read_stats(fs: &FaultFs) -> Result<ServeStats, String> {
    let bytes = fs
        .file(&stats_path())
        .ok_or_else(|| "RELEARNED journal but no persisted stats".to_string())?;
    let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
    let value = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    serde::Deserialize::from_value(&value).map_err(|e: serde::DeError| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{FaultSpec, InjectedFault};

    #[test]
    fn a_storage_fault_at_the_located_op_is_not_a_second_death() {
        let workload = Workload {
            train_seed: 5,
            samples: 60,
            clients: 2,
            rounds: 1,
            byzantine_frac: 0.0,
            net_drop: 0.0,
            ascent_spike: 1.0,
            tenants: 2,
            requests: 2,
            serve_seed: 9,
            breaker_trip: 0,
            breaker_cooldown: 2,
            relearn: false,
        };
        let schedule = |faults| ChaosSchedule {
            seed: 5,
            workload: workload.clone(),
            faults,
            max_resumes: 2,
        };
        let kill = InjectedFault {
            attempt: 0,
            spec: FaultSpec::Crash(CrashPoint::Boundary {
                unit: 0,
                boundary: Boundary::Received,
            }),
        };
        let mut harness = Harness::new();
        let alone = harness.execute(&schedule(vec![kill])).expect("runs");
        assert_eq!((alone.attempts, alone.faults_fired), (2, 1));

        // The located op of the first lifetime, located the slow way:
        // a dry run on a fresh disk must agree with the cached reference.
        let fs = Arc::new(FaultFs::new());
        let at = |storage: &[(u64, StorageFault)]| {
            harness.locate(
                &workload,
                &fs,
                &BTreeMap::new(),
                storage,
                0,
                Boundary::Received,
            )
        };
        let op = at(&[]).expect("located");
        let far = [(u64::MAX, StorageFault::DiskFull)];
        assert_eq!(at(&far), Some(op), "dry run and reference agree");

        let torn = InjectedFault {
            attempt: 0,
            spec: FaultSpec::Storage {
                op,
                fault: StorageFault::TornWrite(1),
            },
        };
        let both = harness.execute(&schedule(vec![kill, torn])).expect("runs");
        assert_eq!(
            (both.attempts, both.faults_fired),
            (2, 1),
            "one death fires one fault"
        );
        // The kill, not the torn write, was the death.
        let files = |o: &RunOutcome| o.faulted.as_ref().map(|t| t.files.clone());
        assert_eq!(files(&both), files(&alone));

        // A boundary the disk image already holds is never reached.
        let done = files(&alone).expect("completed");
        let behind = harness.locate(&workload, &fs, &done, &[], 0, Boundary::Received);
        assert_eq!(behind, None);
    }
}
