//! Serve-front-end harness: multi-tenant unlearning-as-a-service over
//! the request journal, measured per tenant mix.
//!
//! Each mix trains one shared deployment, then runs its seeded arrival
//! streams through `qd_serve::run_service` — bounded admission,
//! deficit-round-robin fairness, and request coalescing — and reports
//! the resulting [`ServeStats`] (virtual-clock p50/p99 latency,
//! throughput, queue depth, coalesce ratio, rejections). The full set
//! of rows is written to `BENCH_serve.json` so the numbers are
//! diffable across commits; everything is virtual-clock-derived and
//! therefore reproducible bit-for-bit across machines.
//!
//! Pass `--test` for a seconds-scale smoke run that additionally
//! crash-tests the service: a run killed mid-batch (between two
//! members' UNLEARNED records) must resume from checkpoint + journal to
//! the same final model, journal, and stats bit-for-bit.

use qd_bench::{bench_config, print_paper_reference, Setup, Split};
use qd_core::{BatchId, Checkpoint, FaultFs, QuickDrop, RequestJournal, RequestState, Vfs};
use qd_data::SyntheticDataset;
use qd_fed::{FaultKind, FaultPlan, Phase};
use qd_serve::{build_plan, run_service, IsolationConfig, ServeConfig, ServeStats};
use qd_tensor::rng::Rng;
use qd_unlearn::{GuardPolicy, UnlearnRequest};
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// One benchmark row: a named tenant mix and what the service did.
#[derive(Serialize)]
struct MixRow {
    mix: String,
    tenants: usize,
    coalesce: bool,
    stats: ServeStats,
}

fn policy() -> GuardPolicy {
    // Batched back-to-back ascents (and re-forgetting already-forgotten
    // classes) drift far past the single-request budget; keep a real
    // budget in force with headroom so clean runs never roll back.
    GuardPolicy {
        drift_budget: 64.0,
        ..GuardPolicy::default()
    }
}

/// The tenant mixes the benchmark reports. Universes are sized for the
/// deployment built in `main` (10 classes, `clients` clients).
fn mixes(smoke: bool, clients: usize) -> Vec<(String, ServeConfig)> {
    let requests = if smoke { 3 } else { 6 };
    let base = ServeConfig {
        arrival_requests: requests,
        arrival_gap_us: 300,
        queue_cap: 8,
        max_batch: 3,
        classes: 4,
        clients,
        class_share: 0.75,
        seed: 11,
        planner_threads: 2,
        ..ServeConfig::default()
    };
    vec![
        (
            "duo-coalesced".to_string(),
            ServeConfig {
                tenants: 2,
                coalesce: true,
                ..base.clone()
            },
        ),
        (
            "duo-sequential".to_string(),
            ServeConfig {
                tenants: 2,
                coalesce: false,
                ..base.clone()
            },
        ),
        (
            "quad-weighted".to_string(),
            ServeConfig {
                tenants: 4,
                coalesce: true,
                weights: vec![4, 1],
                ..base
            },
        ),
    ]
}

/// The failure-mode mix: all-client-request traffic (so the Byzantine
/// client below poisons exactly its own request) served under the
/// isolated executor — retry ladder, bisection, tenant breakers.
fn poisoned_mix(smoke: bool, clients: usize) -> ServeConfig {
    let (_, base) = mixes(smoke, clients)
        .into_iter()
        .next()
        .expect("mixes is non-empty");
    ServeConfig {
        class_share: 0.0,
        ..base
    }
}

fn isolation() -> IsolationConfig {
    IsolationConfig {
        unit_retries: 2,
        bisect: true,
        breaker_trip: 1,
        breaker_cooldown: 2,
    }
}

/// One of the deployment's clients runs its ascents at `scale`× the
/// configured LR. The scale must be picked with care: big enough that
/// the drift blows the serve-layer budget, yet small enough that the
/// update stays *finite* — a non-finite upload is screened out by the
/// aggregation guard before it can move the global model at all, and
/// the unit then serves cleanly with zero drift.
fn spike_plan(seed: u64, clients: usize, scale: f32) -> FaultPlan {
    FaultPlan::new(seed, 1.0 / clients as f32)
        .with_kinds(vec![FaultKind::AscentSpike])
        .with_ascent_spike(scale)
}

/// Whether `fp`'s Byzantine pick actually arrives as traffic in `cfg`'s
/// service plan — a spiked client nobody asks to unlearn poisons nothing.
fn byzantine_in_plan(fp: &FaultPlan, clients: usize, cfg: &ServeConfig) -> bool {
    let plan = build_plan(cfg).expect("poisoned mix must plan");
    (0..clients).any(|c| {
        fp.fault_of(clients, c).is_some()
            && plan
                .batches
                .iter()
                .any(|b| b.members.contains(&UnlearnRequest::Client(c)))
    })
}

struct Deployment {
    setup: Setup,
    base_qd: QuickDrop,
    reference: Vec<qd_tensor::Tensor>,
    rng_mark: qd_tensor::rng::RngState,
}

impl Deployment {
    fn build(smoke: bool) -> Deployment {
        let (clients, train_n, test_n, rounds) = if smoke {
            (3, 240, 120, 2)
        } else {
            (4, 800, 300, 6)
        };
        let mut setup = Setup::build(
            SyntheticDataset::Digits,
            clients,
            Split::Iid,
            train_n,
            test_n,
            42,
        );
        let mut cfg = bench_config(rounds);
        if smoke {
            cfg.train_phase = Phase::training(rounds, 2, 16, 0.08);
            cfg.distill.scale = 20;
        }
        let (base_qd, _) = QuickDrop::train(&mut setup.fed, cfg, &mut setup.rng);
        let reference = setup.fed.global().to_vec();
        let rng_mark = setup.rng.state();
        Deployment {
            setup,
            base_qd,
            reference,
            rng_mark,
        }
    }

    /// Rewinds model and RNG to the post-training snapshot so every mix
    /// serves from the identical deployment.
    fn rewind(&mut self) {
        self.setup.fed.set_global(self.reference.clone());
        self.setup.rng = Rng::from_state(&self.rng_mark);
    }
}

fn bench_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("qd_serve_bench");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fresh_journal(name: &str) -> (PathBuf, RequestJournal) {
    let path = bench_dir().join(format!("{name}.journal"));
    std::fs::remove_file(&path).ok();
    let journal = RequestJournal::open(&path).expect("fresh journal");
    (path, journal)
}

/// Runs one mix end to end on a rewound deployment; returns its stats.
fn run_mix(dep: &mut Deployment, name: &str, cfg: &ServeConfig) -> ServeStats {
    dep.rewind();
    // Each mix gets a dedicated journal: run_service's progress
    // counting assumes the journal belongs to this plan alone.
    let (path, mut journal) = fresh_journal(name);
    let mut qd = snapshot_qd(dep);
    let run = run_service(
        &mut qd,
        &mut dep.setup.fed,
        &mut journal,
        cfg,
        Some(&policy()),
        &mut dep.setup.rng,
        None,
    )
    .expect("mix must serve cleanly");
    assert!(!run.preempted);
    std::fs::remove_file(&path).ok();
    run.stats
}

/// Runs the poisoned mix under the isolated executor: the Byzantine
/// client's request must land in the dead-letter set while every other
/// request is served.
///
/// Whether a spiked ascent diverges depends on the model's state when
/// the poisoned unit runs (a saturated model has an exactly-zero forget
/// gradient, which no LR magnifies), so the fault seed cannot be vetted
/// statically. Instead the sweep *runs* the deterministic service under
/// each candidate seed — rewound to the identical deployment every time
/// — and reports the first run whose poison actually bites.
fn run_poisoned_mix(dep: &mut Deployment, name: &str, cfg: &ServeConfig) -> ServeStats {
    let clients = dep.setup.fed.n_clients();
    for trial in 0..64u64 {
        let (seed, scale) = (trial / 4, [1e4f32, 1e3, 1e5, 1e6][(trial % 4) as usize]);
        let fp = spike_plan(seed, clients, scale);
        if !byzantine_in_plan(&fp, clients, cfg) {
            continue;
        }
        dep.rewind();
        dep.setup.fed.set_fault_plan(Some(fp));
        let (path, mut journal) = fresh_journal(name);
        let mut qd = snapshot_qd(dep);
        let run = run_service(
            &mut qd,
            &mut dep.setup.fed,
            &mut journal,
            cfg,
            Some(&policy()),
            &mut dep.setup.rng,
            Some(&isolation()),
        )
        .expect("the poisoned mix must degrade, not die");
        dep.setup.fed.set_fault_plan(None);
        std::fs::remove_file(&path).ok();
        assert!(!run.preempted);
        if !run.dead_letter.is_empty() {
            return run.stats;
        }
    }
    panic!("no fault seed in 0..64 drove a Byzantine request into the dead-letter set");
}

/// A QuickDrop clone for one mix run. Serving mutates the deployment's
/// forgotten-set bookkeeping, so each mix works on its own copy.
fn snapshot_qd(dep: &Deployment) -> QuickDrop {
    let ckpt = Checkpoint::capture(&dep.reference, &dep.base_qd);
    let (_, qd) = ckpt.restore().expect("checkpoint round-trip");
    qd
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    println!(
        "serve: multi-tenant unlearning-as-a-service front end{}",
        if smoke { " [smoke]" } else { "" }
    );
    let mut dep = Deployment::build(smoke);
    let clients = dep.setup.fed.n_clients();

    let mut rows = Vec::new();
    println!(
        "  {:<16} {:>7} {:>8} {:>9} {:>9} {:>10} {:>10} {:>8} {:>9} {:>6} {:>6}",
        "mix",
        "tenants",
        "offered",
        "served",
        "rejected",
        "p50 µs",
        "p99 µs",
        "req/s",
        "coalesce",
        "quar",
        "shed"
    );
    let print_row = |name: &str, stats: &ServeStats| {
        println!(
            "  {:<16} {:>7} {:>8} {:>9} {:>9} {:>10} {:>10} {:>8.1} {:>9.2} {:>6} {:>6}",
            name,
            stats.tenants,
            stats.offered,
            stats.served,
            stats.rejected,
            stats.p50_latency_us,
            stats.p99_latency_us,
            stats.throughput_rps,
            stats.coalesce_ratio,
            stats.quarantined,
            stats.shed,
        );
    };
    for (name, cfg) in mixes(smoke, clients) {
        let stats = run_mix(&mut dep, &name, &cfg);
        print_row(&name, &stats);
        rows.push(MixRow {
            mix: name,
            tenants: cfg.tenants,
            coalesce: cfg.coalesce,
            stats,
        });
    }
    // The failure-mode row: one Byzantine client, isolated executor.
    {
        let cfg = poisoned_mix(smoke, clients);
        let stats = run_poisoned_mix(&mut dep, "duo-poisoned", &cfg);
        print_row("duo-poisoned", &stats);
        rows.push(MixRow {
            mix: "duo-poisoned".to_string(),
            tenants: cfg.tenants,
            coalesce: cfg.coalesce,
            stats,
        });
    }

    let json = serde_json::to_string(&rows).expect("stats serialize");
    // Anchor at the workspace root regardless of cargo's bench CWD.
    let out = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
    std::fs::write(&out, format!("{json}\n")).expect("write BENCH_serve.json");
    println!("  wrote BENCH_serve.json ({} mixes)", rows.len());

    if smoke {
        smoke_assertions(&rows, &mut dep);
        println!("smoke assertions passed");
    }

    print_paper_reference(&[
        "no direct paper counterpart: the paper serves one request at a time;",
        "shape to reproduce: the coalesced mix serves the same offered load in",
        "fewer service units than the sequential one (coalesce ratio > 1) and",
        "finishes sooner on the virtual clock, while a run killed mid-batch",
        "resumes from checkpoint + journal bit-for-bit.",
    ]);
}

/// Smoke contract: coalescing must actually amortize, and a mid-batch
/// crash must resume bit-for-bit.
fn smoke_assertions(rows: &[MixRow], dep: &mut Deployment) {
    let coalesced = rows.iter().find(|r| r.mix == "duo-coalesced").unwrap();
    let sequential = rows.iter().find(|r| r.mix == "duo-sequential").unwrap();
    let poisoned = rows.iter().find(|r| r.mix == "duo-poisoned").unwrap();

    // Failure-mode accounting: the healthy mixes report clean columns,
    // the poisoned one quarantines and still serves everything else.
    for clean in [coalesced, sequential] {
        assert_eq!(clean.stats.quarantined, 0);
        assert_eq!(clean.stats.shed, 0);
        assert!(!clean.stats.partial);
    }
    assert!(
        poisoned.stats.quarantined > 0,
        "the Byzantine request must be quarantined"
    );
    assert_eq!(
        poisoned.stats.served + poisoned.stats.quarantined + poisoned.stats.shed,
        poisoned.stats.admitted,
        "every admitted request must end served, quarantined, or shed"
    );
    assert!(poisoned.stats.retried_units >= 1);
    assert_eq!(
        poisoned.stats.breaker.len(),
        poisoned.stats.tenants,
        "one breaker column per tenant"
    );
    assert!(
        coalesced.stats.coalesce_ratio > 1.0,
        "duplication pressure must coalesce"
    );
    assert_eq!(coalesced.stats.offered, sequential.stats.offered);
    assert!(
        coalesced.stats.batches < sequential.stats.batches,
        "coalescing must reduce service units"
    );
    assert!(
        coalesced.stats.makespan_us <= sequential.stats.makespan_us,
        "amortized recovery must not extend the makespan"
    );

    // Crash mid-batch, resume, compare bit-for-bit.
    let cfg = mixes(true, dep.setup.fed.n_clients())
        .into_iter()
        .find(|(n, _)| n == "duo-coalesced")
        .map(|(_, c)| c)
        .unwrap();
    let plan = build_plan(&cfg).expect("plan");
    let batch_unit = plan
        .batches
        .iter()
        .position(|b| b.members.len() > 1)
        .expect("mix must contain a coalesced batch");

    // Every run of the crash check lives on an in-memory `FaultFs`.
    let ckpt_path = PathBuf::from("smoke.ckpt.json");
    let journal_path = RequestJournal::path_for_checkpoint(&ckpt_path);
    let open = |fs: &Arc<FaultFs>| {
        let vfs: Arc<dyn Vfs> = Arc::clone(fs) as Arc<dyn Vfs>;
        RequestJournal::open_on(vfs, journal_path.clone()).expect("open journal")
    };
    // One process: checkpoint the rewound deployment, serve the mix.
    let serve = |dep: &mut Deployment, fs: &Arc<FaultFs>| {
        dep.rewind();
        let mut qd = snapshot_qd(dep);
        Checkpoint::capture(dep.setup.fed.global(), &qd)
            .save_on(fs.as_ref(), &ckpt_path)
            .expect("checkpoint");
        let mut journal = open(fs);
        run_service(
            &mut qd,
            &mut dep.setup.fed,
            &mut journal,
            &cfg,
            Some(&policy()),
            &mut dep.setup.rng,
            None,
        )
        .map(|_| journal)
    };

    // Unfailed reference.
    let ref_fs = Arc::new(FaultFs::new());
    let reference = serve(dep, &ref_fs).expect("reference run");
    let ref_model = dep.setup.fed.global().to_vec();

    // Killed run: die right after the first UNLEARNED record of the
    // coalesced batch, before the second member's — the first storage
    // op after the fsync that made that record durable, located in the
    // reference run's op log — then "restart the process" (fresh
    // QuickDrop from the checkpoint, journal reopened from the crashed
    // disk) and finish.
    let first_unlearned = reference
        .boundary_frame(BatchId(batch_unit as u64), RequestState::Unlearned, 1)
        .expect("the coalesced batch has UNLEARNED records");
    let kill_op = reference
        .kill_after(&ref_fs.op_log(), first_unlearned.start)
        .expect("the boundary is in the reference log");
    let fs = Arc::new(FaultFs::new());
    fs.kill_at(kill_op);
    let rng_at_start = dep.rng_mark.clone();
    assert!(serve(dep, &fs).is_err(), "the kill must fire");
    fs.crash();

    let (params, mut qd) = Checkpoint::load_on(fs.as_ref(), &ckpt_path)
        .expect("reload checkpoint")
        .restore()
        .expect("restore");
    dep.setup.fed.set_global(params);
    dep.setup.rng = Rng::from_state(&rng_at_start);
    let mut journal = open(&fs);
    assert_eq!(
        journal.records().len(),
        first_unlearned.end,
        "the journal must end in the first member's UNLEARNED frame"
    );
    qd.resume_requests(
        &mut dep.setup.fed,
        &mut journal,
        Some(&policy()),
        &mut dep.setup.rng,
    )
    .expect("resume finishes the in-flight batch");
    let resumed = run_service(
        &mut qd,
        &mut dep.setup.fed,
        &mut journal,
        &cfg,
        Some(&policy()),
        &mut dep.setup.rng,
        None,
    )
    .expect("resumed run completes");
    assert!(!resumed.preempted);

    assert_eq!(
        resumed.stats, coalesced.stats,
        "stats diverged across kill+resume"
    );
    for (a, b) in ref_model.iter().zip(dep.setup.fed.global()) {
        for (u, v) in a.data().iter().zip(b.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "kill+resume model diverged");
        }
    }
    assert_eq!(
        reference.records().len(),
        journal.records().len(),
        "journal shape diverged"
    );
    for (a, b) in reference.records().iter().zip(journal.records()) {
        assert_eq!(
            (a.seq, a.request, a.state, a.batch),
            (b.seq, b.request, b.state, b.batch)
        );
        assert_eq!(a.rng, b.rng, "journal RNG stream diverged at {}", a.seq);
    }
}
