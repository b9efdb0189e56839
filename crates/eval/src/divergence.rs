//! Model-to-model comparison metrics.
//!
//! The paper defines unlearning success as matching the retraining
//! oracle's *behaviour* (Section 2.1: the unlearned model should be
//! "equivalent in performance to a model trained only on `D \ D_f`").
//! Accuracy is a coarse proxy; these metrics compare two models'
//! predictive distributions directly and are used by the test-suite to
//! check that unlearned models move *toward* the oracle.

use crate::chunks::{for_batches, EVAL_BATCH};
use qd_data::Dataset;
use qd_nn::{forward_inference, Module};
use qd_tensor::Tensor;

/// Fraction of samples on which two parameterizations of `model` predict
/// the same class (1.0 = identical behaviour). Returns 1.0 for empty
/// datasets.
pub fn prediction_agreement(
    model: &dyn Module,
    params_a: &[Tensor],
    params_b: &[Tensor],
    data: &Dataset,
) -> f32 {
    agreement_in_chunks(model, params_a, params_b, data, EVAL_BATCH)
}

fn agreement_in_chunks(
    model: &dyn Module,
    params_a: &[Tensor],
    params_b: &[Tensor],
    data: &Dataset,
    chunk: usize,
) -> f32 {
    if data.is_empty() {
        return 1.0;
    }
    let mut agree = 0usize;
    for_batches(data, chunk, |x, _| {
        let pa = forward_inference(model, params_a, x).row_argmax();
        let pb = forward_inference(model, params_b, x).row_argmax();
        agree += pa.iter().zip(&pb).filter(|(a, b)| a == b).count();
    });
    agree as f32 / data.len() as f32
}

/// Mean KL divergence `KL(softmax_a ‖ softmax_b)` over `data` (nats).
/// Zero iff the two models produce identical distributions. Returns 0 for
/// empty datasets.
pub fn prediction_kl(
    model: &dyn Module,
    params_a: &[Tensor],
    params_b: &[Tensor],
    data: &Dataset,
) -> f32 {
    kl_in_chunks(model, params_a, params_b, data, EVAL_BATCH)
}

fn kl_in_chunks(
    model: &dyn Module,
    params_a: &[Tensor],
    params_b: &[Tensor],
    data: &Dataset,
    chunk: usize,
) -> f32 {
    if data.is_empty() {
        return 0.0;
    }
    // One f64 sum over all rows in sample order, whatever the chunking.
    let mut total = 0.0f64;
    for_batches(data, chunk, |x, _| {
        let la = forward_inference(model, params_a, x).log_softmax_rows();
        let lb = forward_inference(model, params_b, x).log_softmax_rows();
        for (&lp, &lq) in la.data().iter().zip(lb.data()) {
            let (lp, lq) = (lp as f64, lq as f64);
            total += lp.exp() * (lp - lq);
        }
    });
    (total / data.len() as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::SyntheticDataset;
    use qd_nn::Mlp;
    use qd_tensor::rng::Rng;

    fn setup() -> (Mlp, Vec<Tensor>, Vec<Tensor>, Dataset) {
        let mut rng = Rng::seed_from(0);
        let model = Mlp::new(&[256, 10]);
        let a = model.init(&mut rng);
        let b = model.init(&mut rng);
        let data = SyntheticDataset::Digits.generate(50, &mut rng);
        (model, a, b, data)
    }

    #[test]
    fn identical_models_agree_perfectly() {
        let (model, a, _, data) = setup();
        assert_eq!(prediction_agreement(&model, &a, &a, &data), 1.0);
        assert!(prediction_kl(&model, &a, &a, &data).abs() < 1e-6);
    }

    #[test]
    fn different_models_diverge() {
        let (model, a, b, data) = setup();
        let agree = prediction_agreement(&model, &a, &b, &data);
        assert!(agree < 1.0, "independent inits should disagree somewhere");
        let kl = prediction_kl(&model, &a, &b, &data);
        assert!(kl > 0.0, "KL of different models must be positive");
    }

    #[test]
    fn kl_is_asymmetric_but_nonnegative_both_ways() {
        let (model, a, b, data) = setup();
        let ab = prediction_kl(&model, &a, &b, &data);
        let ba = prediction_kl(&model, &b, &a, &data);
        assert!(ab >= 0.0 && ba >= 0.0);
    }

    #[test]
    fn divergence_does_not_depend_on_the_chunk_size() {
        let (model, a, b, data) = setup();
        let agree = agreement_in_chunks(&model, &a, &b, &data, 256);
        let kl = kl_in_chunks(&model, &a, &b, &data, 256);
        for chunk in [1, 7, 32] {
            let chunked = agreement_in_chunks(&model, &a, &b, &data, chunk);
            assert_eq!(chunked.to_bits(), agree.to_bits(), "agreement at {chunk}");
            let chunked = kl_in_chunks(&model, &a, &b, &data, chunk);
            assert_eq!(chunked.to_bits(), kl.to_bits(), "KL at chunk {chunk}");
        }
    }

    #[test]
    fn empty_dataset_conventions() {
        let (model, a, b, data) = setup();
        let empty = data.subset(&[]);
        assert_eq!(prediction_agreement(&model, &a, &b, &empty), 1.0);
        assert_eq!(prediction_kl(&model, &a, &b, &empty), 0.0);
    }
}
