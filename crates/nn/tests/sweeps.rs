//! The values-only backward sweep on whole models: for every model in the
//! zoo, at batch 32, [`qd_autograd::Tape::gradients`] and
//! [`cross_entropy_gradients`] return bit-for-bit the gradient values
//! [`qd_autograd::Tape::grad`] records.

use qd_autograd::check::assert_sweeps_agree;
use qd_autograd::Tape;
use qd_nn::{cross_entropy, cross_entropy_gradients, ConvNet, LeNet, Mlp, Module};
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;

const BATCH: usize = 32;
const CLASSES: usize = 10;

fn check_model(model: &dyn Module, seed: u64) {
    let mut rng = Rng::seed_from(seed);
    let params = model.init(&mut rng);
    let x = Tensor::randn(&[BATCH, 1, 16, 16], &mut rng);
    let labels: Vec<usize> = (0..BATCH).map(|i| (i * 7) % CLASSES).collect();

    let mut tape = Tape::new();
    let p: Vec<_> = params.iter().map(|t| tape.leaf(t.clone())).collect();
    let xv = tape.constant(x.clone());
    let logits = model.forward(&mut tape, &p, xv);
    let loss = cross_entropy(&mut tape, logits, &labels, CLASSES);
    assert_sweeps_agree(&mut tape, loss, &p);

    let helper = cross_entropy_gradients(model, &params, &x, &labels, CLASSES);
    let recorded = tape.grad(loss, &p);
    assert_eq!(helper.len(), params.len());
    for ((h, g), param) in helper.iter().zip(&recorded).zip(&params) {
        assert_eq!(h.dims(), param.dims());
        let g = tape.value(*g);
        assert!(
            h.data()
                .iter()
                .zip(g.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "cross_entropy_gradients differs from grad"
        );
    }
}

#[test]
fn mlp_gradients_match_grad_bit_for_bit() {
    check_model(&Mlp::new(&[256, 32, CLASSES]), 1);
}

#[test]
fn lenet_gradients_match_grad_bit_for_bit() {
    check_model(&LeNet::new(1, 16, CLASSES), 2);
}

#[test]
fn convnet_gradients_match_grad_bit_for_bit() {
    check_model(&ConvNet::scaled_default(1, CLASSES), 3);
}
