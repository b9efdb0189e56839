//! Golden-value fingerprints shared by the service acceptance suites.
//! Comparing two runs of the same build cannot catch a change that
//! moves both; these FNV-1a hashes are pinned as constants instead.

use qd_tensor::rng::RngState;
use qd_tensor::Tensor;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// FNV-1a (64-bit) over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Hashes the model's f32 bit patterns, tensor by tensor.
pub fn model_fingerprint(global: &[Tensor]) -> u64 {
    fnv1a(
        global
            .iter()
            .flat_map(|t| t.data().iter())
            .flat_map(|x| x.to_bits().to_le_bytes()),
    )
}

/// Hashes the RNG stream position, including the Box–Muller spare.
pub fn rng_fingerprint(rng: &RngState) -> u64 {
    let spare = rng
        .spare_normal
        .map_or(u64::MAX, |x| u64::from(x.to_bits()));
    fnv1a(
        rng.words
            .iter()
            .chain([spare].iter())
            .flat_map(|w| w.to_le_bytes()),
    )
}

/// Hashes every file's name, length and bytes, in path order.
// Only the suites that run on `FaultFs` have a file map to hash.
#[allow(dead_code)]
pub fn files_fingerprint(files: &BTreeMap<PathBuf, Vec<u8>>) -> u64 {
    fnv1a(files.iter().flat_map(|(path, bytes)| {
        let name = path.to_string_lossy().into_owned().into_bytes();
        let len = (bytes.len() as u64).to_le_bytes();
        name.into_iter().chain(len).chain(bytes.iter().copied())
    }))
}
