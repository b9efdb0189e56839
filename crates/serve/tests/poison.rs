//! Poison-request chaos matrix: a Byzantine client whose AscentSpike
//! fault diverges every ascent it participates in is mixed into the
//! multi-tenant service stream, and the isolated executor must
//!
//! 1. serve every non-poison request to RECOVERED,
//! 2. quarantine **exactly** the Byzantine client's request — isolated
//!    out of coalesced units by batch bisection, with typed reasons —
//!    into the dead-letter set, and
//! 3. when killed at any of the failure-isolation boundaries
//!    (RECEIVED, QUARANTINED, FAILED, and the in-execution ones),
//!    resume from checkpoint + journal to a terminal state
//!    **bit-for-bit** identical to the unfailed degraded run: model
//!    bits, every journal record including the typed reason, the
//!    dead-letter set, and [`ServeStats`].
//!
//! Every run lives on a `FaultFs`; a kill right after a boundary is the
//! first storage op after the fsync that made its frame durable,
//! located in the unfailed run's op log.
//!
//! A final test pins the inertness contract: with every isolation flag
//! off, [`run_service`] is byte-for-byte the plain path — same model,
//! same journal bytes on disk, same stats.

mod common;

use common::{model_fingerprint, rng_fingerprint};
use qd_core::{
    BatchId, Checkpoint, FailReason, FaultFs, JournalRecord, QuickDrop, QuickDropConfig,
    RequestJournal, RequestState, Vfs, VfsOp,
};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{FaultKind, FaultPlan, Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_serve::{build_plan, run_service, IsolationConfig, Plan, ServeConfig, ServeStats};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

/// Clients in the federation and in the service's request universe —
/// must agree so every `Client(i)` request has an owner.
const CLIENTS: usize = 3;

fn fresh_fed() -> (Federation, Rng) {
    let mut rng = Rng::seed_from(42);
    let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 16, 10]));
    let data = SyntheticDataset::Digits.generate(240, &mut rng);
    let parts = partition_iid(data.len(), CLIENTS, &mut rng);
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
    // Generous enough that honest units pass the ladder's base rung
    // (rung 0) outright; the spike below overshoots any rung's budget.
    GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    }
}

/// One of the three clients is Byzantine: its ascents run at 10^6× the
/// configured LR, so any unit containing its request diverges at every
/// ladder rung (the per-rung halving cannot undo six orders of
/// magnitude) while honest subsets stay within budget.
fn spike_plan() -> FaultPlan {
    FaultPlan::new(5, 0.34)
        .with_kinds(vec![FaultKind::AscentSpike])
        .with_ascent_spike(1e6)
}

/// The Byzantine client index — stable in the fault plan's seed.
fn byzantine() -> usize {
    (0..CLIENTS)
        .find(|&c| spike_plan().fault_of(CLIENTS, c).is_some())
        .expect("the fault plan must pick exactly one Byzantine client")
}

/// All-client-request traffic (class_share 0) so poison is exactly the
/// Byzantine client's request and nothing else.
fn serve_config() -> ServeConfig {
    ServeConfig {
        tenants: 2,
        arrival_requests: 6,
        arrival_gap_us: 300,
        queue_cap: 8,
        coalesce: true,
        max_batch: 3,
        weights: vec![1],
        classes: 2,
        clients: CLIENTS,
        class_share: 0.0,
        ascent_cost_us: 400,
        recovery_cost_us: 900,
        seed: 42,
        planner_threads: 2,
    }
}

/// Ladder + bisection, breakers off: every poison member is isolated
/// and quarantined, nothing is shed.
fn iso() -> IsolationConfig {
    IsolationConfig {
        unit_retries: 2,
        bisect: true,
        ..IsolationConfig::default()
    }
}

fn ckpt_path() -> PathBuf {
    PathBuf::from("svc.json")
}

fn open_journal(fs: &Arc<FaultFs>) -> RequestJournal {
    let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
    RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(ckpt_path())).unwrap()
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

fn assert_same_records(a: &[JournalRecord], b: &[JournalRecord]) {
    assert_eq!(a.len(), b.len(), "journal length diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.seq, x.request, x.state, x.batch, x.reason),
            (y.seq, y.request, y.state, y.batch, y.reason),
            "record identity diverged"
        );
        assert_eq!(x.rng, y.rng, "RNG stream diverged at {} {}", x.seq, x.state);
        assert_eq!(
            x.guard, y.guard,
            "guard stats diverged at {} {}",
            x.seq, x.state
        );
        assert_bit_identical(&x.global, &y.global);
    }
}

/// The plan's shape, pre-verified to exercise every isolation path:
/// units with the poison request, at least one *coalesced* unit mixing
/// poison with honest members (bisection), and clean units.
struct Shape {
    plan: Plan,
    poison_units: Vec<usize>,
    mixed_unit: usize,
    clean_unit: usize,
}

fn shape() -> Shape {
    let plan = build_plan(&serve_config()).unwrap();
    let poison = UnlearnRequest::Client(byzantine());
    let poison_units: Vec<usize> = plan
        .batches
        .iter()
        .enumerate()
        .filter(|(_, u)| u.members.contains(&poison))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !poison_units.is_empty(),
        "the mix must include the Byzantine client's request"
    );
    let mixed_unit = plan
        .batches
        .iter()
        .position(|u| u.members.contains(&poison) && u.members.iter().any(|&m| m != poison))
        .expect("need a coalesced unit mixing poison and honest members");
    let clean_unit = plan
        .batches
        .iter()
        .position(|u| !u.members.contains(&poison))
        .expect("need a clean unit");
    Shape {
        plan,
        poison_units,
        mixed_unit,
        clean_unit,
    }
}

/// Train once (honestly — the spike only fires during ascent phases,
/// but keep the deployment snapshot clean on principle); every
/// scenario redeploys from this bit-exact snapshot.
struct PoisonSeed {
    ckpt: Checkpoint,
    rng: RngState,
}

fn poison_seed() -> PoisonSeed {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);
    PoisonSeed {
        ckpt: Checkpoint::capture(fed.global(), &qd),
        rng: rng.state(),
    }
}

/// A "process": fresh federation with the Byzantine fault plan armed,
/// model and engine from the snapshot.
fn deploy(seed: &PoisonSeed) -> (Federation, QuickDrop, Rng) {
    let (mut fed, _) = fresh_fed();
    fed.set_fault_plan(Some(spike_plan()));
    let (global, qd) = seed.ckpt.clone().restore().expect("snapshot restores");
    fed.set_global(global);
    (fed, qd, Rng::from_state(&seed.rng))
}

struct Terminal {
    global: Vec<Tensor>,
    rng: RngState,
    records: Vec<JournalRecord>,
    stats: ServeStats,
    dead_letter: Vec<UnlearnRequest>,
    /// The journal the run wrote.
    journal: RequestJournal,
    /// The run's storage op log.
    log: Vec<(VfsOp, PathBuf)>,
}

/// One process lifetime on `fs`: deploy, save the checkpoint, serve the
/// whole poisoned plan under `iso`. A storage kill surfaces as `Err`.
fn serve(
    seed: &PoisonSeed,
    fs: &Arc<FaultFs>,
    iso: &IsolationConfig,
) -> Result<(Federation, Rng, RequestJournal, qd_serve::ServiceRun), String> {
    let (mut fed, mut qd, mut rng) = deploy(seed);
    seed.ckpt
        .save_on(fs.as_ref(), &ckpt_path())
        .map_err(|e| e.to_string())?;
    let mut journal = open_journal(fs);
    let run = run_service(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        &mut rng,
        Some(iso),
    )
    .map_err(|e| e.to_string())?;
    Ok((fed, rng, journal, run))
}

/// The unfailed degraded run: deploy, serve the whole poisoned plan
/// under `iso`, no kill.
fn unfailed(seed: &PoisonSeed, iso: &IsolationConfig) -> Terminal {
    let fs = Arc::new(FaultFs::new());
    let (fed, rng, journal, run) = serve(seed, &fs, iso).unwrap();
    assert!(!run.preempted);
    assert_eq!(run.resumed_units, 0);
    Terminal {
        global: fed.global().to_vec(),
        rng: rng.state(),
        records: journal.records().to_vec(),
        stats: run.stats,
        dead_letter: run.dead_letter.requests(),
        journal,
        log: fs.op_log(),
    }
}

/// Maps each RECEIVED sequence number to the plan unit that owns it
/// (RECEIVED frames land in plan order, member by member).
fn seq_units(plan: &Plan, records: &[JournalRecord]) -> BTreeMap<u64, usize> {
    let mut map = BTreeMap::new();
    let (mut unit, mut member) = (0usize, 0usize);
    for r in records {
        if r.state == RequestState::Received {
            map.insert(r.seq, unit);
            member += 1;
            if member == plan.batches[unit].members.len() {
                unit += 1;
                member = 0;
            }
        }
    }
    map
}

/// Kills the degraded service right after the `(state, k)` boundary of
/// planned unit `unit` (`RequestJournal::boundary_frame`; the service
/// opens batch `u` for unit `u`), then resumes in a "fresh process" from checkpoint + journal
/// alone — deliberately **without** the plain `recover_deployment`
/// resume, which would finish the in-flight unit under the base policy;
/// the isolated executor re-derives the winning ladder rung and the
/// breaker fold from the journal itself — and demands the unfailed
/// run's terminal state.
fn kill_and_resume(
    seed: &PoisonSeed,
    iso: &IsolationConfig,
    unit: usize,
    (state, k): (RequestState, usize),
    name: &str,
    reference: &Terminal,
) {
    let frame = reference
        .journal
        .boundary_frame(BatchId(unit as u64), state, k)
        .expect("the unfailed run wrote the boundary");
    let op = reference
        .journal
        .kill_after(&reference.log, frame.start)
        .expect("the boundary is in the unfailed run's log");

    // Process A: deploy, die right after the boundary's frame — or,
    // when nothing follows it inside the run, crash right after.
    let fs = Arc::new(FaultFs::new());
    fs.kill_at(op);
    let killed = serve(seed, &fs, iso);
    assert!(
        killed.is_err() || fs.op_count() == op,
        "{name}: the kill at unit {unit} must fire"
    );
    fs.crash();
    let journal = open_journal(&fs);
    assert_same_records(&reference.records[..frame.end], journal.records());

    // Process B: model from the checkpoint, progress and RNG from the
    // journal tail (every isolation boundary leaves at least one
    // durable record, so the seed below is never actually used).
    let (mut fed, _) = fresh_fed();
    fed.set_fault_plan(Some(spike_plan()));
    let (global, mut qd) = Checkpoint::load_on(fs.as_ref(), &ckpt_path())
        .unwrap()
        .restore()
        .unwrap();
    fed.set_global(global);
    let mut journal = journal;
    let mut rng = Rng::seed_from(0);
    let run = run_service(
        &mut qd,
        &mut fed,
        &mut journal,
        &serve_config(),
        Some(&policy()),
        &mut rng,
        Some(iso),
    )
    .unwrap();
    assert!(!run.preempted, "{name}: the resumed run finishes");
    assert!(
        run.resumed_units as usize >= unit,
        "{name}: resume must not redo finished units"
    );

    assert_bit_identical(&reference.global, fed.global());
    assert_same_records(&reference.records, journal.records());
    assert_eq!(run.stats, reference.stats, "{name}: stats diverged");
    assert_eq!(
        run.dead_letter.requests(),
        reference.dead_letter,
        "{name}: dead-letter set diverged"
    );
}

#[test]
fn poisoned_mix_quarantines_exactly_the_byzantine_requests() {
    let shape = shape();
    let poison = UnlearnRequest::Client(byzantine());
    let seed = poison_seed();
    let t = unfailed(&seed, &iso());
    assert_eq!(
        (model_fingerprint(&t.global), rng_fingerprint(&t.rng)),
        (0xc55b_c27a_ac89_26bc, 0xa330_6fa1_051a_8a73),
        "pinned model/RNG fingerprint moved"
    );

    // The dead-letter set is exactly the Byzantine client's request.
    assert_eq!(t.dead_letter, vec![poison]);

    // QUARANTINED records name only the poison request, once per unit
    // that contained it.
    let su = seq_units(&shape.plan, &t.records);
    let mut quarantined_units: Vec<usize> = t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Quarantined)
        .map(|r| {
            assert_eq!(
                r.request, poison,
                "only the Byzantine request may be quarantined"
            );
            su[&r.seq]
        })
        .collect();
    quarantined_units.sort_unstable();
    quarantined_units.dedup();
    assert_eq!(quarantined_units, shape.poison_units);

    // Typed reasons: bisection blames the member inside coalesced
    // units; a whole-unit failure reports ladder exhaustion.
    for r in t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Quarantined)
    {
        let unit = su[&r.seq];
        let expected = if shape.plan.batches[unit].members.len() > 1 {
            FailReason::PoisonMember
        } else {
            FailReason::RetriesExhausted
        };
        assert_eq!(r.reason, Some(expected), "reason at unit {unit}");
    }

    // Every non-poison member is served to RECOVERED.
    let recovered = t
        .records
        .iter()
        .filter(|r| r.state == RequestState::Recovered)
        .count();
    let total: usize = shape.plan.batches.iter().map(|u| u.members.len()).sum();
    assert_eq!(
        recovered,
        total - shape.poison_units.len(),
        "all survivors of bisection must be served"
    );
    assert!(
        !t.records.iter().any(|r| r.state == RequestState::Failed),
        "nothing is shed with breakers off"
    );

    // Stats fold: quarantined counts riders, served loses them, the
    // retried/bisected unit counters match the plan shape.
    let poison_riders: u64 = shape
        .poison_units
        .iter()
        .map(|&u| {
            let unit = &shape.plan.batches[u];
            let i = unit.members.iter().position(|&m| m == poison).unwrap();
            unit.riders[i].len() as u64
        })
        .sum();
    assert_eq!(t.stats.quarantined, poison_riders);
    assert_eq!(t.stats.shed, 0);
    assert_eq!(t.stats.served, t.stats.admitted - poison_riders);
    assert_eq!(t.stats.retried_units, shape.poison_units.len() as u64);
    assert!(
        t.stats.bisected_units >= 1,
        "the mixed unit must be bisected"
    );
    assert!(!t.stats.partial);
    assert!(t.stats.breaker.iter().all(|s| s == "closed"));

    // Quarantining never touches the model: every QUARANTINED record
    // re-certifies the state of the record preceding it.
    for (i, r) in t.records.iter().enumerate() {
        if r.state == RequestState::Quarantined && i > 0 {
            assert_bit_identical(&t.records[i - 1].global, &r.global);
        }
    }
}

#[test]
fn killed_poisoned_service_resumes_bit_for_bit_at_every_boundary_kind() {
    let shape = shape();
    let poison = UnlearnRequest::Client(byzantine());
    let seed = poison_seed();
    let reference = unfailed(&seed, &iso());

    let first_poison = shape.poison_units[0];
    let last_clean = shape
        .plan
        .batches
        .iter()
        .rposition(|u| !u.members.contains(&poison))
        .unwrap();

    // Kill before any work: only unit 0's RECEIVED set is durable.
    kill_and_resume(
        &seed,
        &iso(),
        0,
        (RequestState::Received, 1),
        "poison_kill_received",
        &reference,
    );
    // Kill right after the dead-letter write: the QUARANTINED frame is
    // durable, the survivors have not executed.
    kill_and_resume(
        &seed,
        &iso(),
        first_poison,
        (RequestState::Quarantined, 1),
        "poison_kill_quarantined",
        &reference,
    );
    // Kill mid-survivors: poison already quarantined, first surviving
    // member UNLEARNED, the rest in flight.
    kill_and_resume(
        &seed,
        &iso(),
        shape.mixed_unit,
        (RequestState::Unlearned, 1),
        "poison_kill_mid_survivors",
        &reference,
    );
    // Kill at a clean unit's RECOVERED set: the resumed run must
    // re-probe and take rung 0 exactly as the unfailed run did.
    kill_and_resume(
        &seed,
        &iso(),
        shape.clean_unit,
        (RequestState::Recovered, 1),
        "poison_kill_clean_recovered",
        &reference,
    );
    // Kill at the last clean unit: little or nothing left to redo.
    kill_and_resume(
        &seed,
        &iso(),
        last_clean,
        (RequestState::Recovered, 1),
        "poison_kill_last_clean",
        &reference,
    );
}

#[test]
fn breaker_sheds_the_tripped_tenants_queue_and_resumes_bit_for_bit() {
    let shape = shape();
    let poison = UnlearnRequest::Client(byzantine());
    let seed = poison_seed();
    let biso = IsolationConfig {
        unit_retries: 1,
        bisect: true,
        breaker_trip: 1,
        breaker_cooldown: 2,
    };
    let reference = unfailed(&seed, &biso);

    // The first quarantine trips the owner's breaker; later units with
    // that tenant's members are shed to FAILED without burning probes.
    assert!(
        reference.stats.shed > 0,
        "the tripped tenant's queued members must be shed"
    );
    assert_eq!(
        reference.dead_letter,
        vec![poison],
        "shedding must not grow the dead-letter set"
    );
    for r in reference
        .records
        .iter()
        .filter(|r| r.state == RequestState::Failed)
    {
        assert_eq!(r.reason, Some(FailReason::Shed), "FAILED records are typed");
    }

    let su = seq_units(&shape.plan, &reference.records);
    let first_shed_unit = reference
        .records
        .iter()
        .filter(|r| r.state == RequestState::Failed)
        .map(|r| su[&r.seq])
        .min()
        .unwrap();
    let first_quarantine_unit = reference
        .records
        .iter()
        .filter(|r| r.state == RequestState::Quarantined)
        .map(|r| su[&r.seq])
        .min()
        .unwrap();

    // Kill right after the shed frame — the FAILED boundary.
    kill_and_resume(
        &seed,
        &biso,
        first_shed_unit,
        (RequestState::Failed, 1),
        "poison_breaker_kill_failed",
        &reference,
    );
    // And after the quarantine that tripped the breaker: the resumed
    // run must replay the breaker fold and shed the same members.
    kill_and_resume(
        &seed,
        &biso,
        first_quarantine_unit,
        (RequestState::Quarantined, 1),
        "poison_breaker_kill_quarantined",
        &reference,
    );
}

#[test]
fn inactive_isolation_is_bit_for_bit_the_plain_service() {
    let seed = poison_seed();
    let ckpt_path = PathBuf::from("svc.json");
    // Honest traffic (no fault plan): the contract is that a build with
    // isolation compiled in but switched off writes the exact bytes the
    // plain service writes.
    let run_on = |isolated: bool| {
        let fs = Arc::new(FaultFs::new());
        let (mut fed, _) = fresh_fed();
        let (global, mut qd) = seed.ckpt.clone().restore().unwrap();
        fed.set_global(global);
        let mut rng = Rng::from_state(&seed.rng);
        seed.ckpt.save_on(fs.as_ref(), &ckpt_path).unwrap();
        let vfs: Arc<dyn Vfs> = Arc::clone(&fs) as Arc<dyn Vfs>;
        let mut journal =
            RequestJournal::open_on(vfs, RequestJournal::path_for_checkpoint(&ckpt_path)).unwrap();
        let inactive = IsolationConfig::default();
        let run = run_service(
            &mut qd,
            &mut fed,
            &mut journal,
            &serve_config(),
            Some(&policy()),
            &mut rng,
            isolated.then_some(&inactive),
        )
        .unwrap();
        assert!(run.dead_letter.is_empty());
        (
            fed.global().to_vec(),
            journal.records().to_vec(),
            run.stats,
            fs.files(),
        )
    };
    let plain = run_on(false);
    let inactive = run_on(true);
    assert_bit_identical(&plain.0, &inactive.0);
    assert_same_records(&plain.1, &inactive.1);
    assert_eq!(plain.2, inactive.2, "stats must be identical");
    assert_eq!(
        plain.3, inactive.3,
        "on-disk bytes must be identical with isolation flags off"
    );
}
