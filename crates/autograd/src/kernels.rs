//! Private kernels shared by the tape ops and the values-only sweep:
//! NCHW permutes, spatial/channel reductions with their adjoint
//! broadcasts, row/column broadcasts, max pooling and the ReLU mask.

use crate::tape::PoolGeo;
use qd_tensor::Tensor;

/// Permutes a patch-row matrix `(N*OH*OW, C)` into an `(N, C, OH, OW)`
/// feature map. Inverse (and adjoint) of [`nchw_to_rows`].
pub(crate) fn rows_to_nchw(rows: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(rows.dims(), &[n * oh * ow, c], "rows_to_nchw shape");
    let data = rows.data();
    let mut t = Tensor::zeros(&[n, c, oh, ow]);
    let out = t.data_mut();
    let hw = oh * ow;
    for b in 0..n {
        for p in 0..hw {
            let row = &data[(b * hw + p) * c..(b * hw + p + 1) * c];
            for (ch, &v) in row.iter().enumerate() {
                out[(b * c + ch) * hw + p] = v;
            }
        }
    }
    t
}

/// Permutes an `(N, C, OH, OW)` feature map into patch rows
/// `(N*OH*OW, C)`. Inverse (and adjoint) of [`rows_to_nchw`].
pub(crate) fn nchw_to_rows(x: &Tensor, n: usize, c: usize, oh: usize, ow: usize) -> Tensor {
    assert_eq!(x.len(), n * c * oh * ow, "nchw_to_rows length");
    let data = x.data();
    let hw = oh * ow;
    let mut t = Tensor::zeros(&[n * hw, c]);
    let out = t.data_mut();
    for b in 0..n {
        for ch in 0..c {
            let src = &data[(b * c + ch) * hw..(b * c + ch + 1) * hw];
            for (p, &v) in src.iter().enumerate() {
                out[(b * hw + p) * c + ch] = v;
            }
        }
    }
    t
}

/// Sums each `(n, c)` plane over its spatial extent:
/// `(N, C, H, W) -> (N*C,)`.
pub(crate) fn spatial_sum(x: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let hw = h * w;
    let planes = x.len() / hw;
    assert_eq!(x.len(), planes * hw, "spatial_sum length");
    assert_eq!(planes % c, 0, "spatial_sum channel mismatch");
    let data = x.data();
    let out = (0..planes)
        .map(|p| data[p * hw..(p + 1) * hw].iter().sum())
        .collect();
    Tensor::from_vec(out, &[planes])
}

/// Replicates a per-plane vector `(N*C,)` over the spatial extent:
/// adjoint of [`spatial_sum`].
pub(crate) fn spatial_broadcast(v: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let planes = v.len();
    assert_eq!(planes % c, 0, "spatial_broadcast channel mismatch");
    let n = planes / c;
    let hw = h * w;
    let mut t = Tensor::zeros(&[n, c, h, w]);
    let out = t.data_mut();
    for (p, &val) in v.data().iter().enumerate() {
        out[p * hw..(p + 1) * hw].fill(val);
    }
    t
}

/// Sums an `(N, C, H, W)` tensor over batch and spatial axes: `-> (C,)`.
pub(crate) fn channel_sum(x: &Tensor, c: usize, h: usize, w: usize) -> Tensor {
    let hw = h * w;
    assert_eq!(x.len() % (c * hw), 0, "channel_sum length");
    let n = x.len() / (c * hw);
    let data = x.data();
    let mut out = vec![0.0f32; c];
    for b in 0..n {
        for (ch, o) in out.iter_mut().enumerate() {
            *o += data[(b * c + ch) * hw..(b * c + ch + 1) * hw]
                .iter()
                .sum::<f32>();
        }
    }
    Tensor::from_vec(out, &[c])
}

/// Replicates a per-channel vector `(C,)` over batch and spatial axes:
/// adjoint of [`channel_sum`].
pub(crate) fn channel_broadcast(v: &Tensor, n: usize, h: usize, w: usize) -> Tensor {
    let c = v.len();
    let hw = h * w;
    let mut t = Tensor::zeros(&[n, c, h, w]);
    let out = t.data_mut();
    for b in 0..n {
        for (ch, &val) in v.data().iter().enumerate() {
            out[(b * c + ch) * hw..(b * c + ch + 1) * hw].fill(val);
        }
    }
    t
}

/// Repeats a vector `(n,)` as `m` rows: `-> (m, n)`.
pub(crate) fn broadcast_rows(v: &Tensor, m: usize) -> Tensor {
    assert_eq!(v.shape().rank(), 1, "broadcast_rows expects a vector");
    let n = v.len();
    let mut t = Tensor::zeros(&[m, n]);
    if n > 0 {
        for row in t.data_mut().chunks_exact_mut(n) {
            row.copy_from_slice(v.data());
        }
    }
    t
}

/// Repeats a vector `(m,)` as `n` columns: `-> (m, n)`.
pub(crate) fn broadcast_cols(v: &Tensor, n: usize) -> Tensor {
    assert_eq!(v.shape().rank(), 1, "broadcast_cols expects a vector");
    let m = v.len();
    let mut t = Tensor::zeros(&[m, n]);
    if n > 0 {
        for (row, &x) in t.data_mut().chunks_exact_mut(n).zip(v.data()) {
            row.fill(x);
        }
    }
    t
}

/// The 0/1 activation mask `1[x > 0]` of a ReLU input.
pub(crate) fn relu_mask(x: &Tensor) -> Tensor {
    x.map(|x| if x > 0.0 { 1.0 } else { 0.0 })
}

/// Non-overlapping `k`×`k` max pooling of `(N, C, H, W)` images.
///
/// # Panics
///
/// Panics if `x` is not a whole number of `C`×`H`×`W` images.
pub(crate) fn max_pool(x: &Tensor, geo: PoolGeo) -> Tensor {
    let PoolGeo { c, h, w, k } = geo;
    let per_image = c * h * w;
    assert!(
        per_image > 0 && x.len().is_multiple_of(per_image),
        "input is not a whole number of {c}x{h}x{w} images"
    );
    let n = x.len() / per_image;
    let (oh, ow) = (h / k, w / k);
    let mut t = Tensor::full(&[n, c, oh, ow], f32::NEG_INFINITY);
    let out = t.data_mut();
    for b in 0..n {
        for ch in 0..c {
            let src = &x.data()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            let base = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for ky in 0..k {
                        for kx in 0..k {
                            best = best.max(src[(oy * k + ky) * w + ox * k + kx]);
                        }
                    }
                    out[base + oy * ow + ox] = best;
                }
            }
        }
    }
    t
}

/// Scatters a pooled adjoint `u` back to the argmax positions of the
/// pooling input `x` (ties send it to the first maximum): the adjoint of
/// [`max_pool`] at `x`.
pub(crate) fn max_unpool(x: &Tensor, u: &Tensor, geo: PoolGeo) -> Tensor {
    let PoolGeo { c, h, w, k } = geo;
    let per_image = c * h * w;
    let n = x.len() / per_image;
    let (oh, ow) = (h / k, w / k);
    let mut t = Tensor::zeros(x.dims());
    let out = t.data_mut();
    for b in 0..n {
        for ch in 0..c {
            let src = &x.data()[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            let dst = &mut out[(b * c + ch) * h * w..(b * c + ch + 1) * h * w];
            let ubase = (b * c + ch) * oh * ow;
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = (f32::NEG_INFINITY, 0usize);
                    for ky in 0..k {
                        for kx in 0..k {
                            let idx = (oy * k + ky) * w + ox * k + kx;
                            if src[idx] > best.0 {
                                best = (src[idx], idx);
                            }
                        }
                    }
                    dst[best.1] += u.data()[ubase + oy * ow + ox];
                }
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_tensor::rng::Rng;

    #[test]
    fn nchw_permutes_round_trip() {
        let mut rng = Rng::seed_from(1);
        let x = Tensor::randn(&[2, 3, 4, 5], &mut rng);
        let rows = nchw_to_rows(&x, 2, 3, 4, 5);
        let back = rows_to_nchw(&rows, 2, 3, 4, 5);
        assert_eq!(back.data(), x.data());
    }

    #[test]
    fn nchw_permutes_are_adjoint() {
        let mut rng = Rng::seed_from(2);
        let rows = Tensor::randn(&[2 * 3 * 3, 4], &mut rng);
        let y = Tensor::randn(&[2, 4, 3, 3], &mut rng);
        let lhs = rows_to_nchw(&rows, 2, 4, 3, 3).dot(&y);
        let rhs = rows.dot(&nchw_to_rows(&y, 2, 4, 3, 3));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn spatial_pair_is_adjoint() {
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let v = Tensor::randn(&[6], &mut rng);
        let lhs = spatial_sum(&x, 3, 2, 2).dot(&v);
        let rhs = x.dot(&spatial_broadcast(&v, 3, 2, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn channel_pair_is_adjoint() {
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[2, 3, 2, 2], &mut rng);
        let v = Tensor::randn(&[3], &mut rng);
        let lhs = channel_sum(&x, 3, 2, 2).dot(&v);
        let rhs = x.dot(&channel_broadcast(&v, 2, 2, 2));
        assert!((lhs - rhs).abs() < 1e-4);
    }

    #[test]
    fn spatial_sum_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 2, 1, 2]);
        assert_eq!(spatial_sum(&x, 2, 1, 2).data(), &[3.0, 7.0]);
    }

    #[test]
    fn channel_sum_values() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 1, 2]);
        assert_eq!(channel_sum(&x, 1, 1, 2).data(), &[10.0]);
    }
}
