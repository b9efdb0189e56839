//! Reductions and row-wise softmax kernels.

use crate::Tensor;

impl Tensor {
    /// Sum over rows of a matrix: `(m, n) -> (n,)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_rows(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "sum_rows requires rank 2");
        let n = self.dims()[1];
        let mut out = crate::recycle::filled(n, 0.0);
        for row in self.data().chunks_exact(n) {
            for (slot, v) in out.iter_mut().zip(row) {
                *slot += v;
            }
        }
        Tensor::from_vec(out, &[n])
    }

    /// Sum over columns of a matrix: `(m, n) -> (m,)`.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn sum_cols(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "sum_cols requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let out = (0..m)
            .map(|i| self.data()[i * n..(i + 1) * n].iter().sum())
            .collect();
        Tensor::from_vec(out, &[m])
    }

    /// Index of the maximum element in each row: `(m, n) -> Vec` of length
    /// `m`. Ties resolve to the first maximum.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2 or has zero columns.
    pub fn row_argmax(&self) -> Vec<usize> {
        assert_eq!(self.shape().rank(), 2, "row_argmax requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        assert!(n > 0, "row_argmax on zero-width matrix");
        (0..m)
            .map(|i| {
                let row = &self.data()[i * n..(i + 1) * n];
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Numerically-stable row-wise softmax of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn softmax_rows(&self) -> Tensor {
        self.log_softmax_rows().map(f32::exp)
    }

    /// Numerically-stable row-wise log-softmax of a matrix.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 2.
    pub fn log_softmax_rows(&self) -> Tensor {
        assert_eq!(self.shape().rank(), 2, "log_softmax requires rank 2");
        let (m, n) = (self.dims()[0], self.dims()[1]);
        let mut out = crate::recycle::filled(m * n, 0.0);
        for i in 0..m {
            let row = &self.data()[i * n..(i + 1) * n];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let log_z = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
            for j in 0..n {
                out[i * n + j] = row[j] - log_z;
            }
        }
        Tensor::from_vec(out, &[m, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_rows_and_cols() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_rows().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(a.sum_cols().data(), &[6.0, 15.0]);
    }

    #[test]
    fn row_argmax_finds_first_maximum() {
        let a = Tensor::from_vec(vec![0.0, 3.0, 3.0, 9.0, 1.0, 2.0], &[2, 3]);
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = Tensor::from_vec(vec![100.0, 101.0, 102.0, -5.0, 0.0, 5.0], &[2, 3]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let row_sum: f32 = s.data()[i * 3..(i + 1) * 3].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
        assert!(s.all_finite());
    }

    #[test]
    fn log_softmax_matches_softmax() {
        let a = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[1, 3]);
        let ls = a.log_softmax_rows().map(f32::exp);
        assert!(ls.max_abs_diff(&a.softmax_rows()) < 1e-6);
    }
}
