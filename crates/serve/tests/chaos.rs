//! Service-level chaos acceptance: a multi-tenant service run killed
//! mid-plan — including mid-batch, between one member's UNLEARNED
//! record and the next — resumes from the deployment checkpoint + the
//! request journal and reproduces the unfailed run **bit-for-bit**:
//! final model bits, every journal record, and the reported
//! [`ServeStats`].
//!
//! Every kill is a `FaultFs` kill: "right after a boundary" is the
//! first storage op after the fsync that made the boundary's journal
//! frame durable, located in the unfailed run's op log.

mod common;

use common::{files_fingerprint, model_fingerprint, rng_fingerprint};
use qd_core::{BatchId, Checkpoint, QuickDrop, QuickDropConfig, RequestJournal, RequestState};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_serve::{build_plan, run_service, Plan, ServeConfig, ServeStats};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::GuardPolicy;
use std::path::PathBuf;
use std::sync::Arc;

fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(42);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), 3, &mut rng);
    let clients = parts.iter().map(|p| data.subset(p)).collect();
    let fed = Federation::new(model, clients, &mut rng);
    (fed, rng)
}

fn config() -> QuickDropConfig {
    let mut cfg = QuickDropConfig::scaled_test();
    cfg.train_phase = Phase::training(6, 3, 16, 0.1);
    cfg
}

fn policy() -> GuardPolicy {
    // Coalesced batches run up to three ascents back-to-back before the
    // shared recovery, and the service mix re-forgets classes that are
    // already ascended-away, so drift accumulates an order of magnitude
    // past the single-request budget. Keep a real budget in force (the
    // non-finite scan and retain probe still bite) with enough headroom
    // that the clean run never rolls back.
    GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    }
}

/// Small service: two tenants, tight class universe for duplication
/// pressure, arrivals faster than service so batches actually form.
fn serve_config() -> ServeConfig {
    ServeConfig {
        tenants: 2,
        arrival_requests: 3,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: 2,
        class_share: 0.7,
        ascent_cost_us: 400,
        recovery_cost_us: 900,
        seed: 11,
        planner_threads: 2,
    }
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

/// Kills the service right after the `(state, k)` boundary of planned
/// unit `unit` (`RequestJournal::boundary_frame`; the service opens
/// batch `u` for unit `u`), located in the unfailed run's op `log`,
/// then resumes in a "fresh
/// process" and finishes the plan; the outcome must match `reference`
/// bit-for-bit.
fn kill_and_resume(
    seed: &ServeSeed,
    reference: &VfsTerminal,
    (journal, log): (&RequestJournal, &[(VfsOp, PathBuf)]),
    unit: usize,
    (state, k): (RequestState, usize),
    name: &str,
) {
    let frame = journal
        .boundary_frame(BatchId(unit as u64), state, k)
        .expect("the unfailed run wrote the boundary");
    let op = journal
        .kill_after(log, frame.start)
        .expect("the boundary is in the unfailed run's log");

    // Process A: deploy, die right after the boundary's frame.
    let fs = Arc::new(FaultFs::new());
    fs.kill_at(op);
    assert!(
        vfs_scenario(seed, &fs).is_err(),
        "{name}: the kill at op {op} must fire"
    );
    fs.crash();
    let killed = open_journal(&fs);
    assert_eq!(
        killed.records().len(),
        frame.end,
        "{name}: the journal must end in the boundary's frame"
    );
    for (a, b) in reference.records.iter().zip(killed.records()) {
        assert_eq!(
            (a.seq, a.state, a.batch),
            (b.seq, b.state, b.batch),
            "{name}"
        );
        assert_eq!(a.rng, b.rng, "{name}: record RNG diverged");
        assert_bit_identical(&a.global, &b.global);
    }

    // Process B: model, RNG and progress all come from checkpoint +
    // journal. recover_deployment finishes the partially-applied unit;
    // run_service then re-plans and continues from the frontier.
    let resumed = vfs_resume(seed, &fs);
    assert!(
        resumed.resumed_units as usize >= unit,
        "{name}: resume must not redo finished units"
    );
    assert_vfs_terminal_eq(reference, &resumed, name);
}

/// The plan this config produces, with the shape the chaos schedule
/// needs: several units, at least one coalesced batch, at least one
/// singleton.
fn shaped_plan() -> Plan {
    let plan = build_plan(&serve_config()).unwrap();
    assert!(plan.batches.len() >= 2, "need a multi-unit plan");
    assert!(
        plan.batches.iter().any(|b| b.members.len() > 1),
        "need a coalesced batch to kill mid-batch"
    );
    plan
}

#[test]
fn killed_service_resumes_bit_for_bit_at_every_boundary_kind() {
    let plan = shaped_plan();
    let batch_unit = plan
        .batches
        .iter()
        .position(|b| b.members.len() > 1)
        .unwrap();
    let batch_len = plan.batches[batch_unit].members.len();
    let single_unit = plan
        .batches
        .iter()
        .position(|b| b.members.len() == 1)
        .expect("need a singleton unit");
    let last_unit = plan.batches.len() - 1;

    let seed = serve_seed();
    let reference_fs = Arc::new(FaultFs::new());
    let reference = vfs_scenario(&seed, &reference_fs).expect("unfailed service run succeeds");
    assert_eq!(reference.resumed_units, 0, "a fresh run resumes nothing");
    let log = reference_fs.op_log();
    let journal = open_journal(&reference_fs);
    assert_eq!(
        (
            model_fingerprint(&reference.global),
            rng_fingerprint(&reference.rng)
        ),
        (0x30fc_9cd6_1087_d880, 0x4381_b721_9ad2_2386),
        "pinned model/RNG fingerprint moved"
    );
    assert_eq!(
        reference
            .records
            .iter()
            .filter(|r| r.state == RequestState::Recovered)
            .count(),
        plan.batches.iter().map(|b| b.members.len()).sum::<usize>(),
        "every planned member reaches RECOVERED"
    );
    let located = (&journal, log.as_slice());

    // Kill before any work: only the RECEIVED set of unit 0 is durable.
    kill_and_resume(
        &seed,
        &reference,
        located,
        0,
        (RequestState::Received, 1),
        "serve_kill_received",
    );
    // Kill mid-batch: some members UNLEARNED, recovery not run.
    kill_and_resume(
        &seed,
        &reference,
        located,
        batch_unit,
        (RequestState::Unlearned, 1),
        "serve_kill_unlearned_first",
    );
    kill_and_resume(
        &seed,
        &reference,
        located,
        batch_unit,
        (RequestState::Unlearned, batch_len),
        "serve_kill_unlearned_last",
    );
    // A count past a unit's size means its last member, so this kills
    // a singleton unit at its one UNLEARNED record.
    kill_and_resume(
        &seed,
        &reference,
        located,
        single_unit,
        (RequestState::Unlearned, 2),
        "serve_kill_single_unlearned_past_size",
    );
    // Kill after the last unit's RECOVERED set: resume has nothing to
    // redo and must recognize that from the journal alone.
    kill_and_resume(
        &seed,
        &reference,
        located,
        last_unit,
        (RequestState::Recovered, 1),
        "serve_kill_recovered",
    );
}

#[test]
fn stats_report_real_coalescing_for_the_chaos_mix() {
    let plan = shaped_plan();
    let stats = ServeStats::from_plan(&plan);
    assert!(stats.coalesce_ratio > 1.0, "mix must actually coalesce");
    assert_eq!(stats.served, stats.admitted);
    assert!(stats.p50_latency_us <= stats.p99_latency_us);
}

// ---------------------------------------------------------------------------
// Vfs-level crash matrix: beyond the located boundary kills above, kill
// at every *syscall* of a full service run — checkpoint save, journal
// marker, every framed append and fsync, the stats write — crash the
// in-memory filesystem, recover, and demand the identical terminal state:
// model bits, journal records, SLA stats, and every on-disk byte.
// ---------------------------------------------------------------------------

use qd_core::{FaultFs, JournalRecord, Vfs, VfsOp};
use qd_tensor::rng::RngState;
use std::collections::BTreeMap;

fn vfs_ckpt_path() -> PathBuf {
    PathBuf::from("svc.json")
}

fn vfs_stats_path() -> PathBuf {
    PathBuf::from("svc.stats.json")
}

/// Train once; every matrix iteration redeploys from this snapshot
/// (checkpoint capture/restore is bit-exact) instead of retraining.
struct ServeSeed {
    ckpt: Checkpoint,
    rng: RngState,
}

fn serve_seed() -> ServeSeed {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    ServeSeed {
        ckpt: Checkpoint::capture(fed.global(), &qd),
        rng: rng.state(),
    }
}

fn vfs_deploy(seed: &ServeSeed) -> (Federation, QuickDrop, Rng) {
    let (mut fed, _) = fresh_fed();
    let (global, qd) = seed.ckpt.clone().restore().expect("snapshot restores");
    fed.set_global(global);
    (fed, qd, Rng::from_state(&seed.rng))
}

struct VfsTerminal {
    global: Vec<Tensor>,
    rng: RngState,
    records: Vec<JournalRecord>,
    stats: ServeStats,
    files: BTreeMap<PathBuf, Vec<u8>>,
    resumed_units: u64,
}

fn open_journal(fs: &Arc<FaultFs>) -> RequestJournal {
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(vfs_ckpt_path())).unwrap()
}

/// One full service deployment on `fs`: save checkpoint, open journal,
/// serve the whole multi-tenant plan, persist stats. Any injected fault
/// aborts with an error — the process dying at that syscall.
fn vfs_scenario(seed: &ServeSeed, fs: &Arc<FaultFs>) -> Result<VfsTerminal, String> {
    let (mut fed, mut qd, mut rng) = vfs_deploy(seed);
    seed.ckpt
        .save_on(fs.as_ref(), &vfs_ckpt_path())
        .map_err(|e| e.to_string())?;
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let mut journal =
        RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(vfs_ckpt_path()))
            .map_err(|e| e.to_string())?;
    let run = run_service(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        &mut rng,
        None,
    )
    .map_err(|e| e.to_string())?;
    run.stats
        .save_json_on(fs.as_ref(), &vfs_stats_path())
        .map_err(|e| e.to_string())?;
    Ok(VfsTerminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: journal.records().to_vec(),
        stats: run.stats,
        files: fs.files(),
        resumed_units: run.resumed_units,
    })
}

/// The fresh process after the machine restarts: recover whatever is
/// durable and finish the plan.
fn vfs_resume(seed: &ServeSeed, fs: &Arc<FaultFs>) -> VfsTerminal {
    if fs.file(&vfs_ckpt_path()).is_none() {
        // The checkpoint save strictly precedes every journal write, so
        // nothing was durable: redeploy from the seed.
        return vfs_scenario(seed, fs).expect("fault-free redeploy succeeds");
    }
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    let (mut fed, mut rng) = fresh_fed();
    let (mut qd, mut journal, _finished) =
        QuickDrop::recover_deployment_on(vfs, vfs_ckpt_path(), &mut fed, Some(&policy()), &mut rng)
            .expect("recovery after a crash succeeds");
    if journal.records().is_empty() {
        // Died before the first record became durable: the post-train
        // RNG stream is not on disk; rebuild it from the seed.
        let (fed2, qd2, rng2) = vfs_deploy(seed);
        (fed, qd, rng) = (fed2, qd2, rng2);
    }
    let run = run_service(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        &mut rng,
        None,
    )
    .expect("resumed service run succeeds");
    run.stats
        .save_json_on(fs.as_ref(), &vfs_stats_path())
        .expect("stats save after resume succeeds");
    VfsTerminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: journal.records().to_vec(),
        stats: run.stats,
        files: fs.files(),
        resumed_units: run.resumed_units,
    }
}

fn assert_vfs_terminal_eq(reference: &VfsTerminal, resumed: &VfsTerminal, ctx: &str) {
    assert_bit_identical(&reference.global, &resumed.global);
    assert_eq!(reference.rng, resumed.rng, "{ctx}: RNG stream diverged");
    assert_eq!(reference.stats, resumed.stats, "{ctx}: SLA stats diverged");
    assert_eq!(
        reference.records.len(),
        resumed.records.len(),
        "{ctx}: journal length diverged"
    );
    for (a, b) in reference.records.iter().zip(&resumed.records) {
        assert_eq!(
            (a.seq, a.request, a.state, a.batch),
            (b.seq, b.request, b.state, b.batch),
            "{ctx}"
        );
        assert_eq!(a.rng, b.rng, "{ctx}: record RNG diverged");
        assert_eq!(a.guard, b.guard, "{ctx}: guard stats diverged");
        assert_bit_identical(&a.global, &b.global);
    }
    assert_eq!(
        reference.files.keys().collect::<Vec<_>>(),
        resumed.files.keys().collect::<Vec<_>>(),
        "{ctx}: on-disk file set diverged"
    );
    for (path, bytes) in &reference.files {
        assert!(
            resumed.files.get(path).is_some_and(|b| b == bytes),
            "{ctx}: bytes of {} diverged",
            path.display()
        );
    }
}

#[test]
fn service_crash_matrix_kills_every_vfs_op_and_resumes_identically() {
    let seed = serve_seed();
    let baseline_fs = Arc::new(FaultFs::new());
    let baseline = vfs_scenario(&seed, &baseline_fs).expect("unfailed service run succeeds");
    let total_ops = baseline_fs.op_count();
    assert!(
        total_ops > 20,
        "service run must exercise a real op stream, got {total_ops}"
    );
    assert_eq!(
        (
            model_fingerprint(&baseline.global),
            rng_fingerprint(&baseline.rng)
        ),
        (0x30fc_9cd6_1087_d880, 0x4381_b721_9ad2_2386),
        "pinned model/RNG fingerprint moved"
    );
    assert_eq!(
        files_fingerprint(&baseline.files),
        0x0091_3d7c_e6d7_b162,
        "pinned on-disk fingerprint moved"
    );

    // Debug builds sample the matrix; release (the check.sh gate) runs
    // every operation index.
    let stride = if cfg!(debug_assertions) { 6 } else { 1 };
    let mut kill_points: Vec<u64> = (0..total_ops).step_by(stride).collect();
    if kill_points.last() != Some(&(total_ops - 1)) {
        kill_points.push(total_ops - 1);
    }

    for k in kill_points {
        let fs = Arc::new(FaultFs::new());
        fs.kill_at(k);
        assert!(
            vfs_scenario(&seed, &fs).is_err(),
            "kill at op {k} must abort the run"
        );
        fs.crash();
        let resumed = vfs_resume(&seed, &fs);
        assert_vfs_terminal_eq(&baseline, &resumed, &format!("kill at op {k}"));
    }
}
