//! Criterion micro-benchmarks of the compute kernels everything else is
//! built on: matmul, im2col, ConvNet forward/backward, and one
//! gradient-matching step.

use criterion::{criterion_group, criterion_main, Criterion};
use qd_distill::match_class_step;
use qd_nn::{cross_entropy_gradients, ConvNet, Module};
use qd_tensor::rng::Rng;
use qd_tensor::{im2col, Conv2dGeometry, Tensor};
use std::hint::black_box;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let mut rng = Rng::seed_from(0);
    let a = Tensor::randn(&[128, 256], &mut rng);
    let b = Tensor::randn(&[256, 64], &mut rng);
    group.bench_function("matmul_128x256x64", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });

    let x = Tensor::randn(&[32, 3, 16, 16], &mut rng);
    let geo = Conv2dGeometry::new(3, 16, 16, 3, 1, 1);
    group.bench_function("im2col_32x3x16x16", |bench| {
        bench.iter(|| black_box(im2col(&x, &geo)))
    });

    let net = ConvNet::scaled_default(3, 10);
    let params = net.init(&mut rng);
    let labels: Vec<usize> = (0..32).map(|i| i % 10).collect();
    group.bench_function("convnet_forward_b32", |bench| {
        bench.iter(|| black_box(qd_nn::forward_inference(&net, &params, &x)))
    });

    group.bench_function("convnet_fwd_bwd_b32", |bench| {
        bench.iter(|| black_box(cross_entropy_gradients(&net, &params, &x, &labels, 10)))
    });

    let refs = cross_entropy_gradients(&net, &params, &x, &labels, 10);
    let syn = Tensor::randn(&[2, 3, 16, 16], &mut rng);
    group.bench_function("gradient_match_step_syn2", |bench| {
        bench.iter(|| {
            black_box(match_class_step(
                &net,
                &params,
                &refs,
                syn.clone(),
                0,
                10,
                0.5,
                1,
            ))
        })
    });

    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
