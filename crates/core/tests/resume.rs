//! Kill-and-resume acceptance: checkpointed training, stopped mid-phase,
//! resumes from the last on-disk checkpoint and reaches exactly the
//! final state of an uninterrupted run (loopback transport).

use qd_core::{Checkpoint, CheckpointPolicy, QuickDrop, QuickDropConfig, TrainRun};
use qd_data::{partition_iid, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{Mlp, Module};
use qd_tensor::rng::{Rng, RngState};
use qd_tensor::Tensor;
use std::sync::Arc;

/// Rebuilds the experiment from scratch — the stand-in for a fresh
/// process after a kill. Everything is derived from the same seed.
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
    cfg.train_phase = Phase::training(7, 3, 16, 0.1);
    cfg
}

fn assert_bit_identical(a: &[Tensor], b: &[Tensor]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        for (u, v) in x.data().iter().zip(y.data()) {
            assert_eq!(u.to_bits(), v.to_bits(), "parameters diverged");
        }
    }
}

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn model_fingerprint(global: &[Tensor]) -> u64 {
    fnv1a(
        global
            .iter()
            .flat_map(|t| t.data().iter())
            .flat_map(|x| x.to_bits().to_le_bytes()),
    )
}

fn rng_fingerprint(rng: &RngState) -> u64 {
    let spare = rng
        .spare_normal
        .map_or(u64::MAX, |x| u64::from(x.to_bits()));
    fnv1a(
        rng.words
            .iter()
            .chain([spare].iter())
            .flat_map(|w| w.to_le_bytes()),
    )
}

/// Golden value for training alone: comparing two runs of one build
/// cannot catch a change that moves both, so the model bits and RNG
/// stream position after `QuickDrop::train` are pinned as constants.
#[test]
fn training_matches_its_pinned_fingerprint() {
    let (mut fed, mut rng) = fresh_fed();
    QuickDrop::train(&mut fed, config(), &mut rng);
    assert_eq!(
        (
            model_fingerprint(fed.global()),
            rng_fingerprint(&rng.state())
        ),
        (0x6af6_8d3b_2f5d_8cdf, 0x92c8_d413_de48_1bf9),
        "pinned model/RNG fingerprint moved"
    );
}

#[test]
fn killed_training_resumes_bit_for_bit() {
    let dir = std::env::temp_dir().join("qd_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.json");

    // Reference: the uninterrupted run.
    let (mut fed_ref, mut rng_ref) = fresh_fed();
    let (qd_ref, _) = QuickDrop::train(&mut fed_ref, config(), &mut rng_ref);

    // Interrupted run: checkpoint every 2 rounds, killed after round 5 —
    // past the last checkpoint, so resume must re-execute round 4.
    let (mut fed_a, mut rng_a) = fresh_fed();
    let policy = CheckpointPolicy {
        every: 2,
        path: path.clone(),
        preempt_after: Some(5),
    };
    let run = QuickDrop::train_with_checkpoints(&mut fed_a, config(), &mut rng_a, &policy).unwrap();
    let TrainRun::Preempted { rounds_completed } = run else {
        panic!("run must stop at the preemption point");
    };
    assert_eq!(rounds_completed, 5);

    // Resume in a "new process": rebuild the federation from the seed and
    // load the surviving checkpoint (written at the round-4 boundary).
    let (mut fed_b, mut rng_b) = fresh_fed();
    let ckpt = Checkpoint::load(&path).unwrap();
    assert_eq!(
        ckpt.mid_phase()
            .expect("mid-phase cursor")
            .cursor
            .next_round,
        4
    );
    let (qd_b, report) = QuickDrop::resume_train(&mut fed_b, ckpt, &mut rng_b, None)
        .unwrap()
        .into_complete()
        .expect("resumed run finishes");
    assert_eq!(report.fl_stats.rounds, 3, "only the remaining rounds ran");

    assert_bit_identical(fed_ref.global(), fed_b.global());
    assert_eq!(
        qd_ref.synthetic_sets(),
        qd_b.synthetic_sets(),
        "distilled synthetic state diverged across the kill"
    );

    std::fs::remove_file(&path).ok();
}

#[test]
fn completed_run_with_checkpoints_matches_plain_training() {
    let dir = std::env::temp_dir().join("qd_resume_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("uninterrupted.json");

    let (mut fed_ref, mut rng_ref) = fresh_fed();
    let (_, report_ref) = QuickDrop::train(&mut fed_ref, config(), &mut rng_ref);

    let (mut fed_a, mut rng_a) = fresh_fed();
    let policy = CheckpointPolicy::every(2, &path);
    let (_, report) = QuickDrop::train_with_checkpoints(&mut fed_a, config(), &mut rng_a, &policy)
        .unwrap()
        .into_complete()
        .expect("no preemption configured");

    // Observation must be free: same model, same cost accounting.
    assert_bit_identical(fed_ref.global(), fed_a.global());
    assert_eq!(report.fl_stats.rounds, report_ref.fl_stats.rounds);
    assert_eq!(
        report.fl_stats.upload_scalars,
        report_ref.fl_stats.upload_scalars
    );

    // The last periodic checkpoint (round 6 of 7) is still resumable and
    // converges to the same final state.
    let (mut fed_b, mut rng_b) = fresh_fed();
    let ckpt = Checkpoint::load(&path).unwrap();
    let (_, report_b) = QuickDrop::resume_train(&mut fed_b, ckpt, &mut rng_b, None)
        .unwrap()
        .into_complete()
        .unwrap();
    assert_eq!(report_b.fl_stats.rounds, 1);
    assert_bit_identical(fed_ref.global(), fed_b.global());

    std::fs::remove_file(&path).ok();
}

#[test]
fn deployment_checkpoints_and_client_mismatches_are_rejected() {
    let (mut fed, mut rng) = fresh_fed();
    let (qd, _) = QuickDrop::train(&mut fed, config(), &mut rng);

    // A deployment snapshot has nothing to resume.
    let deployment = Checkpoint::capture(fed.global(), &qd);
    let err = QuickDrop::resume_train(&mut fed, deployment, &mut rng, None).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("no mid-phase state"), "{err}");
}
