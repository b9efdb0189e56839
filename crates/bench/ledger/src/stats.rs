//! Order statistics and fingerprints.

use qd_tensor::Tensor;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v.get(n / 2).copied().unwrap_or(0.0),
        _ => {
            let lo = v.get(n / 2 - 1).copied().unwrap_or(0.0);
            let hi = v.get(n / 2).copied().unwrap_or(0.0);
            (lo + hi) / 2.0
        }
    }
}

/// The highest percentile that still has at least `beyond` samples
/// above it: the sample at rank `n - 1 - beyond` of the sorted values.
/// Returns `(percentile, value)`, or `None` when fewer than `beyond + 1`
/// samples exist.
pub fn tail(xs: &[f64], beyond: usize) -> Option<(f64, f64)> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let rank = n.checked_sub(beyond + 1)?;
    let pct = 100.0 * (rank + 1) as f64 / n as f64;
    v.get(rank).map(|&x| (pct, x))
}

/// FNV-1a over a byte stream; stable across platforms and builds.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(mut self, bytes: &[u8]) -> Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn params(self, params: &[Tensor]) -> Self {
        params.iter().fold(self, |h, t| {
            t.data()
                .iter()
                .fold(h, |h, x| h.bytes(&x.to_bits().to_le_bytes()))
        })
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}
