//! Finite-difference gradient checking used throughout the test-suite.

use crate::{Tape, Var};
use qd_tensor::Tensor;

/// Central-difference numerical gradient of a scalar function.
///
/// `f` maps a full set of input tensors to a scalar; the returned tensor
/// is `∂f/∂inputs[which]`, estimated with step `eps`.
pub fn numeric_grad(
    mut f: impl FnMut(&[Tensor]) -> f32,
    inputs: &[Tensor],
    which: usize,
    eps: f32,
) -> Tensor {
    let mut grad = Tensor::zeros(inputs[which].dims());
    let mut work: Vec<Tensor> = inputs.to_vec();
    for i in 0..inputs[which].len() {
        let orig = inputs[which].data()[i];
        work[which].data_mut()[i] = orig + eps;
        let up = f(&work);
        work[which].data_mut()[i] = orig - eps;
        let down = f(&work);
        work[which].data_mut()[i] = orig;
        grad.data_mut()[i] = (up - down) / (2.0 * eps);
    }
    grad
}

/// Asserts that [`Tape::gradients`] returns bit-for-bit the values of
/// [`Tape::grad`] for `y` with respect to `xs`, and records no nodes.
///
/// # Panics
///
/// Panics (with a diagnostic) on any differing shape or bit pattern.
pub fn assert_sweeps_agree(tape: &mut Tape, y: Var, xs: &[Var]) {
    let before = tape.len();
    let values = tape.gradients(y, xs);
    assert_eq!(tape.len(), before, "gradients recorded nodes");
    let recorded = tape.grad(y, xs);
    assert_eq!(values.len(), recorded.len());
    for (i, (v, g)) in values.iter().zip(&recorded).enumerate() {
        let g = tape.value(*g);
        assert_eq!(v.dims(), g.dims(), "gradient {i}: shape differs");
        let same = v
            .data()
            .iter()
            .zip(g.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(
            same,
            "gradient {i}: values-only sweep differs from grad\n\
             gradients: {v:?}\n grad: {g:?}"
        );
    }
}

/// Asserts that the tape gradients of `build` match central differences,
/// and that [`Tape::gradients`] agrees with [`Tape::grad`] bit-for-bit
/// (see [`assert_sweeps_agree`]).
///
/// `build` receives a fresh tape and one leaf per input tensor and must
/// return a scalar variable. Differentiable behaviour is compared at
/// tolerance `tol` (absolute, against gradients of typical magnitude ≤ 1;
/// scale your function accordingly).
///
/// # Panics
///
/// Panics (with a diagnostic) if any analytic gradient entry deviates from
/// the numerical estimate by more than `tol`.
pub fn assert_grads_close(build: impl Fn(&mut Tape, &[Var]) -> Var, inputs: &[Tensor], tol: f32) {
    let mut tape = Tape::new();
    let vars: Vec<Var> = inputs.iter().map(|t| tape.leaf(t.clone())).collect();
    let y = build(&mut tape, &vars);
    assert_sweeps_agree(&mut tape, y, &vars);
    let grads = tape.grad(y, &vars);
    for (which, g) in grads.iter().enumerate() {
        let numeric = numeric_grad(
            |tensors| {
                let mut t = Tape::new();
                let vs: Vec<Var> = tensors.iter().map(|x| t.leaf(x.clone())).collect();
                let out = build(&mut t, &vs);
                t.value(out).item()
            },
            inputs,
            which,
            1e-2,
        );
        let analytic = tape.value(*g);
        let gap = analytic.max_abs_diff(&numeric);
        assert!(
            gap <= tol,
            "gradient {which} mismatch: max |analytic - numeric| = {gap} > {tol}\n\
             analytic: {analytic:?}\n numeric: {numeric:?}"
        );
    }
}
