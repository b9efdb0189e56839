//! Matrix operations: matmul and 2-D transpose.

use crate::Tensor;

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m, k) x (k, n) -> (m, n)`.
    ///
    /// Uses an `i-k-j` loop order so the inner loop streams both the output
    /// row and the right-hand-side row, which is cache-friendly for the
    /// row-major layout without needing explicit blocking at the sizes this
    /// workspace runs.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not rank 2 or the inner dimensions
    /// disagree.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "matmul lhs must be rank 2");
        assert_eq!(other.shape().rank(), 2, "matmul rhs must be rank 2");
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let (k2, n) = (other.dims()[0], other.dims()[1]);
        assert_eq!(
            k,
            k2,
            "matmul inner-dimension mismatch: {} vs {}",
            self.shape(),
            other.shape()
        );
        let a = self.data();
        let b = other.data();
        let mut out = crate::recycle::filled(m * n, 0.0);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for (kk, &aik) in arow.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += aik * bv;
                }
            }
        }
        Tensor::from_vec(out, &[m, n])
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn transpose2(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "transpose2 requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let a = self.data();
        let mut out = crate::recycle::filled(m * n, 0.0);
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Tensor::from_vec(out, &[n, m])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        assert_eq!(Tensor::eye(3).matmul(&a).data(), a.data());
        assert_eq!(a.matmul(&Tensor::eye(4)).data(), a.data());
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn matmul_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        let t = a.transpose2();
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[0.0, 3.0, 1.0, 4.0, 2.0, 5.0]);
        assert_eq!(t.transpose2().data(), a.data());
    }

    #[test]
    fn matmul_transpose_identity() {
        // (A B)^T == B^T A^T
        let mut rng = crate::rng::Rng::seed_from(2);
        let a = Tensor::randn(&[4, 5], &mut rng);
        let b = Tensor::randn(&[5, 3], &mut rng);
        let lhs = a.matmul(&b).transpose2();
        let rhs = b.transpose2().matmul(&a.transpose2());
        assert!(lhs.max_abs_diff(&rhs) < 1e-5);
    }
}
