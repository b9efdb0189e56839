//! The deployment every workload starts from, built exactly as
//! `quickdrop-cli train` builds it at its defaults: SynthDigits, 800
//! samples, 4 Dirichlet(0.1) clients, 8 rounds × 8 local steps, batch 32,
//! lr 0.08, scale s = 100.

use crate::probe::Recorder;
use qd_core::{Checkpoint, QuickDrop, QuickDropConfig, TrainReport, Vfs};
use qd_data::{partition_dirichlet, Dataset, SyntheticDataset};
use qd_fed::{Federation, Phase};
use qd_nn::{ConvNet, Module};
use qd_tensor::rng::Rng;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const DATASET: SyntheticDataset = SyntheticDataset::Digits;
const SAMPLES: usize = 800;
const TEST_SAMPLES: usize = 400;
pub const CLIENTS: usize = 4;
const ALPHA: f32 = 0.1;
const ROUNDS: usize = 8;
const STEPS: usize = 8;
const BATCH: usize = 32;
const LR: f32 = 0.08;
pub const SCALE: usize = 100;

/// Seed of the label draw and the Dirichlet client split: the split
/// `quickdrop-cli train` makes at its default `--seed 42`. The split
/// decides each client's class mix and hence how much work every round,
/// distillation step and recovery pass does; pinning it keeps the work
/// of a run the same for every `--seed`, which varies everything else
/// (pixels, model init, training, requests, plans).
const SPLIT_SEED: u64 = 42;

/// Held-out accuracy a trained deployment must reach.
pub const ACCURACY_FLOOR: f32 = 0.6;

/// The CLI's model for the dataset.
pub fn model() -> Arc<dyn Module> {
    Arc::new(ConvNet::scaled_default(
        DATASET.channels(),
        DATASET.classes(),
    ))
}

/// The CLI `train` configuration at its defaults.
pub fn config() -> QuickDropConfig {
    let mut config = QuickDropConfig::paper_shaped(ROUNDS, STEPS, BATCH, LR);
    config.distill.scale = SCALE;
    config.distill.classes_per_step = 2;
    config.distill.lr_syn = 0.5;
    config.unlearn_phase = Phase::unlearning(1, STEPS.min(6), BATCH, LR / 2.0);
    config.max_unlearn_rounds = 4;
    config
}

/// Seeded inputs: client partitions, the held-out test set, and the
/// training RNG positioned where `Federation::new` takes over. Labels and
/// the split come from [`SPLIT_SEED`], pixels and the rest from `seed`.
#[derive(Clone)]
pub struct Inputs {
    pub clients: Vec<Dataset>,
    pub test: Dataset,
    pub rng: Rng,
    pub generate: Duration,
    pub partition: Duration,
}

impl Inputs {
    pub fn generate(seed: u64, rec: Option<&Arc<Recorder>>) -> Inputs {
        let _span = rec.map(|r| r.span("data.generate"));
        let t0 = Instant::now();
        let mut split = Rng::seed_from(SPLIT_SEED);
        let labels: Vec<usize> = (0..SAMPLES)
            .map(|_| split.below(DATASET.classes()))
            .collect();
        let mut rng = Rng::seed_from(seed);
        let data = DATASET.generate_with_labels(&labels, &mut rng);
        let test = DATASET.generate(TEST_SAMPLES, &mut Rng::seed_from(seed + 1));
        let generate = t0.elapsed();
        drop(_span);
        let _span = rec.map(|r| r.span("data.partition"));
        let t1 = Instant::now();
        let parts = partition_dirichlet(data.labels(), data.classes(), CLIENTS, ALPHA, &mut split);
        let clients = parts.iter().map(|p| data.subset(p)).collect();
        Inputs {
            clients,
            test,
            rng,
            generate,
            partition: t1.elapsed(),
        }
    }
}

/// A trained deployment and what building it cost.
pub struct Deployment {
    pub fed: Federation,
    pub qd: QuickDrop,
    pub report: TrainReport,
    /// `QuickDrop::train` plus the checkpoint save.
    pub train: Duration,
    pub checkpoint_bytes: u64,
}

/// `quickdrop-cli train`: builds the federation over `model`, trains,
/// and saves the deployment checkpoint to `ckpt` through `fs`.
pub fn train(
    inputs: &Inputs,
    model: Arc<dyn Module>,
    fs: &dyn Vfs,
    ckpt: &Path,
    rec: Option<&Arc<Recorder>>,
    customize: impl FnOnce(&mut Federation),
) -> Result<Deployment, String> {
    let mut rng = inputs.rng.clone();
    let t0 = Instant::now();
    let mut fed = Federation::new(model, inputs.clients.clone(), &mut rng);
    customize(&mut fed);
    let (qd, report) = {
        let _span = rec.map(|r| r.span("quickdrop.train"));
        QuickDrop::train(&mut fed, config(), &mut rng)
    };
    {
        let _span = rec.map(|r| r.span("checkpoint.save"));
        Checkpoint::capture(fed.global(), &qd)
            .save_on(fs, ckpt)
            .map_err(|e| format!("checkpoint save: {e}"))?;
    }
    let train = t0.elapsed();
    let checkpoint_bytes = std::fs::metadata(ckpt).map_or(0, |m| m.len());
    Ok(Deployment {
        fed,
        qd,
        report,
        train,
        checkpoint_bytes,
    })
}

/// The CLI's serving federation: a stub whose clients hold no data,
/// since everything serving needs lives in the synthetic sets.
pub fn stub_federation(
    model: Arc<dyn Module>,
    qd: &QuickDrop,
    params: Vec<qd_tensor::Tensor>,
) -> Result<Federation, String> {
    let first = qd
        .synthetic_sets()
        .first()
        .ok_or("deployment has no synthetic sets")?;
    let (c, h, w) = first.sample_dims();
    let empty = Dataset::new(Vec::new(), Vec::new(), first.classes(), c, h, w);
    let n = qd.synthetic_sets().len();
    Ok(Federation::with_params(model, vec![empty; n], params))
}

/// Mean synthetic samples per client: the batch size SGA, recovery and
/// relearning actually run at (their configured batch exceeds it).
pub fn synthetic_batch(qd: &QuickDrop) -> usize {
    let sets = qd.synthetic_sets();
    let total: usize = sets.iter().map(|s| s.len()).sum();
    (total / sets.len().max(1)).max(1)
}
