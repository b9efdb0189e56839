//! qd-tensor / qd-autograd kernel probe at the workloads' own shapes:
//! the deployment's ConvNet on 1×16×16 digits, at the FL batch (32) and
//! at the synthetic batch serving runs at.

use crate::deploy;
use crate::stats::median;
use qd_autograd::Tape;
use qd_nn::{cross_entropy, ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_tensor::{im2col, Conv2dGeometry, Tensor};
use std::hint::black_box;
use std::time::Instant;

/// Median microseconds per call of `f` over `reps` calls (after one
/// warm-up call).
fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

pub struct KernelProbe {
    pub matmul_us: f64,
    pub matmul_gflops: f64,
    pub im2col_us: f64,
    pub fwd_bwd_b32_us: f64,
    pub fwd_bwd_small_us: f64,
}

fn fwd_bwd_us(net: &ConvNet, params: &[Tensor], batch: usize, rng: &mut Rng) -> f64 {
    let x = Tensor::randn(&[batch, deploy::DATASET.channels(), 16, 16], rng);
    let classes = deploy::DATASET.classes();
    let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
    median_us(30, || {
        let mut tape = Tape::new();
        let p: Vec<_> = params.iter().map(|t| tape.leaf(t.clone())).collect();
        let xv = tape.constant(x.clone());
        let logits = net.forward(&mut tape, &p, xv);
        let loss = cross_entropy(&mut tape, logits, &labels, classes);
        black_box(tape.grad(loss, &p));
    })
}

/// Runs the probe. `small_batch` is the synthetic batch size.
pub fn probe(small_batch: usize) -> KernelProbe {
    let mut rng = Rng::seed_from(0x6b65_726e);
    let channels = deploy::DATASET.channels();
    // Second conv block of the scaled ConvNet at batch 32: 32·8·8 output
    // positions, 16 channels × 3×3 patches, 16 filters.
    let (m, k, n) = (32 * 8 * 8, 16 * 9, 16);
    let a = Tensor::randn(&[m, k], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let matmul_us = median_us(200, || {
        black_box(a.matmul(&b));
    });
    let x = Tensor::randn(&[32, channels, 16, 16], &mut rng);
    let geo = Conv2dGeometry::new(channels, 16, 16, 3, 1, 1);
    let im2col_us = median_us(200, || {
        black_box(im2col(&x, &geo));
    });
    let net = ConvNet::scaled_default(channels, deploy::DATASET.classes());
    let params = net.init(&mut rng);
    KernelProbe {
        matmul_us,
        matmul_gflops: 2.0 * (m * k * n) as f64 / (matmul_us * 1e3),
        im2col_us,
        fwd_bwd_b32_us: fwd_bwd_us(&net, &params, 32, &mut rng),
        fwd_bwd_small_us: fwd_bwd_us(&net, &params, small_batch, &mut rng),
    }
}
