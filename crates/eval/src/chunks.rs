//! Chunked inference over a dataset.

use qd_data::Dataset;
use qd_tensor::Tensor;

/// Samples per inference chunk.
///
/// Inference memory is the forward tape of one chunk, so a small chunk
/// keeps evaluation from setting the process's peak heap: a 256-sample
/// ConvNet pass holds about 84 MB of activations. Every layer computes
/// each sample independently, so no metric depends on the chunk size.
pub(crate) const EVAL_BATCH: usize = 32;

/// Calls `f` with the inputs and labels of consecutive chunks of at most
/// `chunk` samples, in sample order.
pub(crate) fn for_batches(data: &Dataset, chunk: usize, mut f: impl FnMut(&Tensor, &[usize])) {
    let chunk = chunk.max(1);
    let mut start = 0;
    while start < data.len() {
        let end = (start + chunk).min(data.len());
        let idx: Vec<usize> = (start..end).collect();
        let (x, y) = data.batch(&idx);
        f(&x, &y);
        start = end;
    }
}
