//! Accuracy and loss metrics.

use crate::chunks::{for_batches, EVAL_BATCH};
use qd_data::Dataset;
use qd_nn::{forward_inference, Module};
use qd_tensor::Tensor;

/// Top-1 accuracy of `model(params)` on `data` (0 for an empty dataset).
pub fn accuracy(model: &dyn Module, params: &[Tensor], data: &Dataset) -> f32 {
    accuracy_in_chunks(model, params, data, EVAL_BATCH)
}

fn accuracy_in_chunks(model: &dyn Module, params: &[Tensor], data: &Dataset, chunk: usize) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    let mut correct = 0usize;
    for_batches(data, chunk, |x, y| {
        let logits = forward_inference(model, params, x);
        let preds = logits.row_argmax();
        correct += preds.iter().zip(y).filter(|(p, t)| p == t).count();
    });
    correct as f32 / data.len() as f32
}

/// Per-class top-1 accuracy; classes absent from `data` report 0.
pub fn per_class_accuracy(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Vec<f32> {
    per_class_accuracy_in_chunks(model, params, data, EVAL_BATCH)
}

fn per_class_accuracy_in_chunks(
    model: &dyn Module,
    params: &[Tensor],
    data: &Dataset,
    chunk: usize,
) -> Vec<f32> {
    let mut correct = vec![0usize; data.classes()];
    let mut total = vec![0usize; data.classes()];
    for_batches(data, chunk, |x, y| {
        let logits = forward_inference(model, params, x);
        let preds = logits.row_argmax();
        for (p, &t) in preds.iter().zip(y) {
            total[t] += 1;
            if *p == t {
                correct[t] += 1;
            }
        }
    });
    correct
        .iter()
        .zip(&total)
        .map(|(&c, &t)| if t == 0 { 0.0 } else { c as f32 / t as f32 })
        .collect()
}

/// Accuracy on the forget set and retain set: `(f_set, r_set)`.
///
/// This is the paper's core unlearning metric: a method succeeds when its
/// pair matches the retraining oracle's.
pub fn split_accuracy(
    model: &dyn Module,
    params: &[Tensor],
    f_set: &Dataset,
    r_set: &Dataset,
) -> (f32, f32) {
    (
        accuracy(model, params, f_set),
        accuracy(model, params, r_set),
    )
}

/// Per-sample cross-entropy losses of `model(params)` on `data`, in sample
/// order. The raw material of the loss-threshold MIA.
pub fn sample_losses(model: &dyn Module, params: &[Tensor], data: &Dataset) -> Vec<f32> {
    sample_losses_in_chunks(model, params, data, EVAL_BATCH)
}

fn sample_losses_in_chunks(
    model: &dyn Module,
    params: &[Tensor],
    data: &Dataset,
    chunk: usize,
) -> Vec<f32> {
    let mut losses = Vec::with_capacity(data.len());
    for_batches(data, chunk, |x, y| {
        let logits = forward_inference(model, params, x);
        let ls = logits.log_softmax_rows();
        let classes = data.classes();
        for (i, &t) in y.iter().enumerate() {
            losses.push(-ls.data()[i * classes + t]);
        }
    });
    losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::{Mlp, Module};
    use qd_tensor::rng::Rng;

    /// A "model" whose logits are constant: always predicts class 0.
    fn constant_class0() -> (Mlp, Vec<Tensor>) {
        let model = Mlp::new(&[256, 10]);
        let mut params = vec![Tensor::zeros(&[10, 256]), Tensor::zeros(&[10])];
        params[1].data_mut()[0] = 10.0; // bias favors class 0
        (model, params)
    }

    #[test]
    fn accuracy_of_constant_predictor_equals_class0_share() {
        let mut rng = Rng::seed_from(0);
        let data = SyntheticDataset::Digits.generate(200, &mut rng);
        let share = data.class_counts()[0] as f32 / data.len() as f32;
        let (model, params) = constant_class0();
        let acc = accuracy(&model, &params, &data);
        assert!((acc - share).abs() < 1e-6);
    }

    #[test]
    fn per_class_accuracy_of_constant_predictor() {
        let mut rng = Rng::seed_from(1);
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let (model, params) = constant_class0();
        let pc = per_class_accuracy(&model, &params, &data);
        assert_eq!(pc[0], 1.0);
        assert!(pc[1..].iter().all(|&a| a == 0.0));
    }

    #[test]
    fn split_accuracy_separates_sets() {
        let mut rng = Rng::seed_from(2);
        let data = SyntheticDataset::Digits.generate(100, &mut rng);
        let f = data.only_class(0);
        let r = data.without_class(0);
        let (model, params) = constant_class0();
        let (fa, ra) = split_accuracy(&model, &params, &f, &r);
        assert_eq!(fa, 1.0);
        assert_eq!(ra, 0.0);
    }

    #[test]
    fn empty_dataset_accuracy_is_zero() {
        let mut rng = Rng::seed_from(3);
        let data = SyntheticDataset::Digits.generate(4, &mut rng);
        let empty = data.subset(&[]);
        let (model, params) = constant_class0();
        assert_eq!(accuracy(&model, &params, &empty), 0.0);
    }

    #[test]
    fn metrics_do_not_depend_on_the_chunk_size() {
        let mut rng = Rng::seed_from(5);
        let data = SyntheticDataset::Digits.generate(300, &mut rng);
        let model = qd_nn::ConvNet::new(1, 16, 2, 8, 10);
        let params = model.init(&mut rng);
        let acc = accuracy_in_chunks(&model, &params, &data, 256);
        let per_class = per_class_accuracy_in_chunks(&model, &params, &data, 256);
        let losses = sample_losses_in_chunks(&model, &params, &data, 256);
        assert_eq!(losses.len(), data.len());
        for chunk in [1, 7, 32] {
            assert_eq!(
                accuracy_in_chunks(&model, &params, &data, chunk).to_bits(),
                acc.to_bits(),
                "accuracy at chunk {chunk}"
            );
            assert_eq!(
                per_class_accuracy_in_chunks(&model, &params, &data, chunk),
                per_class,
                "per-class accuracy at chunk {chunk}"
            );
            let chunked = sample_losses_in_chunks(&model, &params, &data, chunk);
            assert!(
                chunked
                    .iter()
                    .zip(&losses)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "per-sample losses at chunk {chunk}"
            );
        }
    }

    #[test]
    fn sample_losses_match_dataset_order_and_confidence() {
        let mut rng = Rng::seed_from(4);
        let data = SyntheticDataset::Digits.generate(20, &mut rng);
        let (model, params) = constant_class0();
        let losses = sample_losses(&model, &params, &data);
        assert_eq!(losses.len(), 20);
        for (i, &l) in losses.iter().enumerate() {
            if data.label(i) == 0 {
                assert!(l < 0.1, "confident correct sample should have low loss");
            } else {
                assert!(l > 1.0, "wrong-class sample should have high loss");
            }
        }
    }
}
