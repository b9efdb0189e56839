//! Optional post-hoc fine-tuning of a synthetic set across fresh model
//! initializations (Section 3.3.2, Figure 5).

use crate::{match_class_step, SyntheticSet};
use qd_data::Dataset;
use qd_nn::{cross_entropy_gradients, Module, Sgd};
use qd_tensor::rng::Rng;

/// Hyper-parameters of synthetic-set fine-tuning (the generalization-
/// targeted distillation of Zhao et al., run over multiple random
/// parameter initializations).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct FinetuneConfig {
    /// Outer steps `F`: fresh model initializations (Figure 5 sweeps
    /// 0..=200).
    pub outer_steps: usize,
    /// Inner loop iterations per initialization (paper fixes 50; scaled
    /// configs use less).
    pub inner_steps: usize,
    /// Model training steps on the synthetic data after each inner
    /// matching pass.
    pub model_steps: usize,
    /// Model learning rate during fine-tuning.
    pub lr_model: f32,
    /// Synthetic-sample learning rate.
    pub lr_syn: f32,
    /// Mini-batch cap for per-class real reference gradients.
    pub real_batch_per_class: usize,
}

impl Default for FinetuneConfig {
    fn default() -> Self {
        FinetuneConfig {
            outer_steps: 10,
            inner_steps: 5,
            model_steps: 2,
            lr_model: 0.05,
            lr_syn: 0.1,
            real_batch_per_class: 32,
        }
    }
}

/// Fine-tunes `syn` for generalization: repeatedly re-initializes the
/// model and alternates class-wise gradient matching with short training
/// runs on the synthetic data, so the synthetic samples stop being
/// specialized to one training trajectory.
///
/// Returns the number of gradient evaluations performed on *real* data
/// (the cost accounting of Figure 5 right).
pub fn finetune(
    model: &dyn Module,
    syn: &mut SyntheticSet,
    real: &Dataset,
    cfg: &FinetuneConfig,
    rng: &mut Rng,
) -> usize {
    let mut real_grad_evals = 0usize;
    if syn.is_empty() || real.is_empty() {
        return 0;
    }
    for _ in 0..cfg.outer_steps {
        let mut params = model.init(rng);
        for _ in 0..cfg.inner_steps {
            for class in syn.owned_classes() {
                let members = real.indices_of_class(class);
                if members.is_empty() {
                    continue;
                }
                let take = cfg.real_batch_per_class.min(members.len());
                let picks = rng.choose_indices(members.len(), take);
                let idx: Vec<usize> = picks.into_iter().map(|p| members[p]).collect();
                let (x, y) = real.batch(&idx);
                let refs = cross_entropy_gradients(model, &params, &x, &y, real.classes());
                real_grad_evals += y.len();
                if let Some(samples) = syn.class_samples(class).cloned() {
                    let (updated, _) = match_class_step(
                        model,
                        &params,
                        &refs,
                        samples,
                        class,
                        real.classes(),
                        cfg.lr_syn,
                        1,
                    );
                    syn.set_class_samples(class, updated);
                }
            }
            // Advance the model on the synthetic data so later matching
            // sees a different parameter point (Zhao et al.'s alternation).
            let syn_data = syn.to_dataset();
            let opt = Sgd::descent(cfg.lr_model);
            for _ in 0..cfg.model_steps {
                let (x, y) = syn_data.sample_batch(syn_data.len().min(64), rng);
                let grads = cross_entropy_gradients(model, &params, &x, &y, real.classes());
                opt.step(&mut params, &grads);
            }
        }
    }
    real_grad_evals
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_eval::accuracy;
    use qd_nn::Mlp;

    #[test]
    fn finetuning_counts_real_gradient_work() {
        let mut rng = Rng::seed_from(0);
        let model = Mlp::new(&[256, 10]);
        let real = SyntheticDataset::Digits.generate(200, &mut rng);
        let mut syn = SyntheticSet::init_from_real(&real, 50, &mut rng);
        let cfg = FinetuneConfig {
            outer_steps: 2,
            inner_steps: 2,
            ..FinetuneConfig::default()
        };
        let evals = finetune(&model, &mut syn, &real, &cfg, &mut rng);
        assert!(evals > 0);
    }

    #[test]
    fn finetuning_improves_downstream_training_accuracy() {
        // Train a fresh model on the synthetic set before and after
        // fine-tuning; fine-tuned synthetic data should teach at least as
        // well (typically better).
        let mut rng = Rng::seed_from(1);
        let model = Mlp::new(&[256, 10]);
        let real = SyntheticDataset::Digits.generate(400, &mut rng);
        let test = SyntheticDataset::Digits.generate(200, &mut rng);
        let raw = SyntheticSet::init_gaussian(&real, 20, &mut Rng::seed_from(2));
        let mut tuned = raw.clone();
        let cfg = FinetuneConfig {
            outer_steps: 3,
            inner_steps: 12,
            model_steps: 2,
            lr_syn: 1.0,
            ..FinetuneConfig::default()
        };
        finetune(&model, &mut tuned, &real, &cfg, &mut rng);

        let train_on = |syn: &SyntheticSet, seed: u64| {
            let data = syn.to_dataset();
            let mut params = model.init(&mut Rng::seed_from(seed));
            let mut r = Rng::seed_from(seed + 1);
            let opt = Sgd::descent(0.1);
            for _ in 0..60 {
                let (x, y) = data.sample_batch(32, &mut r);
                let grads = cross_entropy_gradients(&model, &params, &x, &y, 10);
                opt.step(&mut params, &grads);
            }
            accuracy(&model, &params, &test)
        };
        let acc_raw = train_on(&raw, 7);
        let acc_tuned = train_on(&tuned, 7);
        assert!(
            acc_tuned > acc_raw + 0.1,
            "fine-tuning should improve noise-initialized synthetic data: {acc_raw} -> {acc_tuned}"
        );
    }

    #[test]
    fn empty_inputs_are_noops() {
        let mut rng = Rng::seed_from(3);
        let model = Mlp::new(&[256, 10]);
        let real = SyntheticDataset::Digits.generate(50, &mut rng);
        let empty_real = real.subset(&[]);
        let mut syn = SyntheticSet::init_from_real(&real, 10, &mut rng);
        assert_eq!(
            finetune(
                &model,
                &mut syn,
                &empty_real,
                &FinetuneConfig::default(),
                &mut rng
            ),
            0
        );
    }
}
