//! Sample-level unlearning — the extension sketched in Section 5.1 of the
//! paper.
//!
//! QuickDrop proper distils one synthetic set per *class* per client,
//! which bounds its granularity to class- and client-level requests. The
//! paper proposes extending it by considering *subsets of data within
//! each class*: generate synthetic samples for each subset and unlearn at
//! subset granularity. This module implements that proposal.
//!
//! Each client's per-class data is partitioned into fixed-size subsets; a
//! tiny synthetic counterpart is distilled *per subset* (against the
//! trained model, by gradient matching). A request to forget arbitrary
//! sample indices then maps to the covering subsets: SGA runs on their
//! synthetic data, recovery on everything else — the familiar QuickDrop
//! recipe, one level finer.
//!
//! The trade-offs are exactly the ones the paper anticipates: storage
//! grows with the number of subsets, and unlearning granularity is the
//! subset, not the individual sample (samples sharing a subset with a
//! forgotten sample are collateral).

use qd_data::Dataset;
use qd_distill::match_class_step;
use qd_fed::{sgd_trainers, Federation, Phase, PhaseStats};
use qd_nn::cross_entropy_gradients;
use qd_tensor::rng::Rng;
use qd_tensor::Tensor;
use qd_unlearn::MethodOutcome;
use std::collections::BTreeSet;

/// Configuration for subset-granular distillation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleLevelConfig {
    /// Samples per subset within a class (the unlearning granularity).
    pub subset_size: usize,
    /// Synthetic samples per subset: `⌈subset_len / scale⌉`.
    pub scale: usize,
    /// Gradient-matching steps per subset during distillation.
    pub match_steps: usize,
    /// Synthetic-sample learning rate.
    pub lr_syn: f32,
    /// SGA unlearning schedule.
    pub unlearn_phase: Phase,
    /// Recovery schedule.
    pub recover_phase: Phase,
}

impl Default for SampleLevelConfig {
    fn default() -> Self {
        SampleLevelConfig {
            subset_size: 16,
            scale: 8,
            match_steps: 20,
            lr_syn: 0.5,
            unlearn_phase: Phase::unlearning(1, 4, 32, 0.03),
            recover_phase: Phase::training(2, 6, 32, 0.05),
        }
    }
}

/// One distilled subset: which client samples it covers and its synthetic
/// counterpart.
#[derive(Debug, Clone)]
struct Subset {
    class: usize,
    /// Indices into the owning client's dataset.
    members: Vec<usize>,
    /// Synthetic samples, `(m, C, H, W)`.
    synthetic: Tensor,
}

/// Subset-granular synthetic storage for one federation, supporting
/// sample-level unlearning requests.
///
/// # Examples
///
/// ```no_run
/// use std::sync::Arc;
/// use qd_core::sample_level::{SampleLevelConfig, SampleLevelQuickDrop};
/// use qd_data::SyntheticDataset;
/// use qd_fed::Federation;
/// use qd_nn::{Mlp, Module};
/// use qd_tensor::rng::Rng;
///
/// let mut rng = Rng::seed_from(0);
/// let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 10]));
/// let data = SyntheticDataset::Digits.generate(200, &mut rng);
/// let mut fed = Federation::new(model, vec![data], &mut rng);
/// // ... train the federation ...
/// let mut sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
/// // Forget the first ten samples of client 0:
/// let indices: Vec<usize> = (0..10).collect();
/// sl.unlearn_samples(&mut fed, 0, &indices, &mut rng);
/// ```
pub struct SampleLevelQuickDrop {
    config: SampleLevelConfig,
    /// `per_client[i]` holds client `i`'s subsets.
    per_client: Vec<Vec<Subset>>,
    /// `(client, subset index)` pairs currently forgotten.
    forgotten: BTreeSet<(usize, usize)>,
    classes: usize,
    sample_dims: (usize, usize, usize),
}

impl std::fmt::Debug for SampleLevelQuickDrop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SampleLevelQuickDrop({} clients, {} subsets, {} forgotten)",
            self.per_client.len(),
            self.per_client.iter().map(Vec::len).sum::<usize>(),
            self.forgotten.len()
        )
    }
}

impl SampleLevelQuickDrop {
    /// Partitions every client's per-class data into subsets and distils
    /// a synthetic counterpart for each, by gradient matching against the
    /// federation's *current* (trained) model.
    ///
    /// # Panics
    ///
    /// Panics if `config.subset_size == 0` or `config.scale == 0`.
    pub fn distill(fed: &Federation, config: SampleLevelConfig, rng: &mut Rng) -> Self {
        assert!(config.subset_size > 0, "subset size must be positive");
        assert!(config.scale > 0, "scale must be positive");
        let model = fed.model().clone();
        let params = fed.global().to_vec();
        let mut per_client = Vec::with_capacity(fed.n_clients());
        let mut classes = 0;
        let mut sample_dims = (0, 0, 0);
        for i in 0..fed.n_clients() {
            let data = fed.client_data(i);
            classes = classes.max(data.classes());
            sample_dims = data.sample_dims();
            let mut subsets = Vec::new();
            for class in 0..data.classes() {
                let mut members = data.indices_of_class(class).to_vec();
                rng.shuffle(&mut members);
                for chunk in members.chunks(config.subset_size) {
                    let subset_data = data.subset(chunk);
                    let m = chunk.len().div_ceil(config.scale);
                    // Initialize from real members of the subset.
                    let picks = rng.choose_indices(chunk.len(), m);
                    let mut buf = Vec::new();
                    for &p in &picks {
                        buf.extend_from_slice(subset_data.image(p));
                    }
                    let (c, h, w) = sample_dims;
                    let mut synthetic = Tensor::from_vec(buf, &[m, c, h, w]);
                    // Match against this subset's gradients at the trained
                    // parameters.
                    let (x, y) = subset_data.all();
                    let refs =
                        cross_entropy_gradients(model.as_ref(), &params, &x, &y, data.classes());
                    let (matched, _) = match_class_step(
                        model.as_ref(),
                        &params,
                        &refs,
                        synthetic,
                        class,
                        data.classes(),
                        config.lr_syn,
                        config.match_steps,
                    );
                    synthetic = matched;
                    subsets.push(Subset {
                        class,
                        members: chunk.to_vec(),
                        synthetic,
                    });
                }
            }
            per_client.push(subsets);
        }
        SampleLevelQuickDrop {
            config,
            per_client,
            forgotten: BTreeSet::new(),
            classes,
            sample_dims,
        }
    }

    /// Total synthetic samples stored.
    pub fn synthetic_samples(&self) -> usize {
        self.per_client
            .iter()
            .flatten()
            // qd-lint: allow(panic-safety) -- synthetic tensors are built
            // with a leading sample dimension; dims()[0] is a construction
            // invariant
            .map(|s| s.synthetic.dims()[0])
            .sum()
    }

    /// Number of subsets covering `client`'s data.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn subsets_of(&self, client: usize) -> usize {
        self.per_client[client].len()
    }

    /// Subsets of `client` that contain any of `indices` (the blast
    /// radius of a sample-level request).
    pub fn covering_subsets(&self, client: usize, indices: &[usize]) -> Vec<usize> {
        let wanted: BTreeSet<usize> = indices.iter().copied().collect();
        self.per_client[client]
            .iter()
            .enumerate()
            .filter(|(_, s)| s.members.iter().any(|m| wanted.contains(m)))
            .map(|(j, _)| j)
            .collect()
    }

    fn empty_dataset(&self) -> Dataset {
        let (c, h, w) = self.sample_dims;
        Dataset::new(Vec::new(), Vec::new(), self.classes, c, h, w)
    }

    fn subset_dataset(&self, client: usize, subset_ids: &[usize]) -> Dataset {
        let mut out = self.empty_dataset();
        for &j in subset_ids {
            let s = &self.per_client[client][j];
            // qd-lint: allow(panic-safety) -- synthetic tensors are built
            // with a leading sample dimension; dims()[0] is a construction
            // invariant
            let m = s.synthetic.dims()[0];
            for k in 0..m {
                let len = s.synthetic.len() / m;
                out.push(&s.synthetic.data()[k * len..(k + 1) * len], s.class);
            }
        }
        out
    }

    /// Everything not currently forgotten, per client (the recovery set).
    fn retain_override(&self) -> Vec<Option<Dataset>> {
        (0..self.per_client.len())
            .map(|i| {
                let keep: Vec<usize> = (0..self.per_client[i].len())
                    .filter(|&j| !self.forgotten.contains(&(i, j)))
                    .collect();
                let d = self.subset_dataset(i, &keep);
                (!d.is_empty()).then_some(d)
            })
            .collect()
    }

    /// Forgets the given sample indices of one client: runs SGA on the
    /// synthetic data of every covering subset, then recovery on all
    /// remaining synthetic data (across clients).
    ///
    /// Returns the usual per-stage cost report. Samples that share a
    /// subset with a forgotten sample are forgotten too (granularity is
    /// the subset; see module docs).
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn unlearn_samples(
        &mut self,
        fed: &mut Federation,
        client: usize,
        indices: &[usize],
        rng: &mut Rng,
    ) -> MethodOutcome {
        let covering = self.covering_subsets(client, indices);
        let mut forget: Vec<Option<Dataset>> = vec![None; fed.n_clients()];
        let fd = self.subset_dataset(client, &covering);
        if !fd.is_empty() {
            forget[client] = Some(fd);
        }
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let unlearn = fed.run_phase(
            &mut trainers,
            Some(&forget),
            &self.config.unlearn_phase,
            rng,
        );
        let post_unlearn_params = fed.global().to_vec();
        for j in covering {
            self.forgotten.insert((client, j));
        }
        let retain = self.retain_override();
        let recovery = fed.run_phase(
            &mut trainers,
            Some(&retain),
            &self.config.recover_phase,
            rng,
        );
        MethodOutcome {
            unlearn,
            recovery,
            post_unlearn_params,
            guard: None,
        }
    }

    /// Relearns previously forgotten subsets of `client` covering
    /// `indices` (descent on their synthetic data), clearing their
    /// forgotten mark.
    pub fn relearn_samples(
        &mut self,
        fed: &mut Federation,
        client: usize,
        indices: &[usize],
        phase: &Phase,
        rng: &mut Rng,
    ) -> PhaseStats {
        let covering: Vec<usize> = self
            .covering_subsets(client, indices)
            .into_iter()
            .filter(|j| self.forgotten.contains(&(client, *j)))
            .collect();
        let mut forget: Vec<Option<Dataset>> = vec![None; fed.n_clients()];
        let fd = self.subset_dataset(client, &covering);
        if !fd.is_empty() {
            forget[client] = Some(fd);
        }
        let mut trainers = sgd_trainers(fed.model().clone(), fed.n_clients());
        let stats = fed.run_phase(&mut trainers, Some(&forget), phase, rng);
        for j in covering {
            self.forgotten.remove(&(client, j));
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qd_data::{partition_iid, SyntheticDataset};
    use qd_eval::accuracy;
    use qd_fed::Phase;
    use qd_nn::{Mlp, Module};
    use std::sync::Arc;

    fn trained() -> (Federation, Dataset, Rng, Arc<dyn Module>) {
        let mut rng = Rng::seed_from(0);
        let model: Arc<dyn Module> = Arc::new(Mlp::new(&[256, 32, 10]));
        let data = SyntheticDataset::Digits.generate(500, &mut rng);
        let test = SyntheticDataset::Digits.generate(250, &mut rng);
        let parts = partition_iid(data.len(), 3, &mut rng);
        let clients: Vec<_> = parts.iter().map(|p| data.subset(p)).collect();
        let mut fed = Federation::new(model.clone(), clients, &mut rng);
        let mut trainers = sgd_trainers(model.clone(), 3);
        fed.run_phase(
            &mut trainers,
            None,
            &Phase::training(8, 10, 32, 0.1),
            &mut rng,
        );
        (fed, test, rng, model)
    }

    #[test]
    fn distillation_builds_subsets_covering_all_samples() {
        let (fed, _, mut rng, _) = trained();
        let sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
        for i in 0..fed.n_clients() {
            let covered: usize = (0..sl.subsets_of(i))
                .map(|j| sl.per_client[i][j].members.len())
                .sum();
            assert_eq!(covered, fed.client_data(i).len(), "client {i} coverage");
        }
        assert!(sl.synthetic_samples() < fed.clients().iter().map(Dataset::len).sum::<usize>());
    }

    #[test]
    fn covering_subsets_finds_exactly_the_touched_chunks() {
        let (fed, _, mut rng, _) = trained();
        let sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
        // One specific sample: exactly the subsets containing it.
        let hits = sl.covering_subsets(0, &[3]);
        assert_eq!(hits.len(), 1);
        assert!(sl.per_client[0][hits[0]].members.contains(&3));
        // No samples: nothing.
        assert!(sl.covering_subsets(0, &[]).is_empty());
    }

    #[test]
    fn forgetting_every_sample_of_a_class_collapses_it() {
        let (mut fed, test, mut rng, model) = trained();
        let mut sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
        let class = 5;
        let f_test = test.only_class(class);
        let before = accuracy(model.as_ref(), fed.global(), &f_test);
        assert!(before > 0.4, "class learned before ({before})");
        for client in 0..fed.n_clients() {
            let idx: Vec<usize> = fed.client_data(client).indices_of_class(class).to_vec();
            if !idx.is_empty() {
                sl.unlearn_samples(&mut fed, client, &idx, &mut rng);
            }
        }
        let after = accuracy(model.as_ref(), fed.global(), &f_test);
        assert!(
            after < 0.25,
            "class accuracy after full sample-level forget: {after}"
        );
        let rest = test.without_class(class);
        let r_after = accuracy(model.as_ref(), fed.global(), &rest);
        assert!(r_after > 0.45, "other classes survive ({r_after})");
    }

    #[test]
    fn partial_forgetting_touches_only_subset_volumes() {
        let (mut fed, _, mut rng, _) = trained();
        let mut sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
        let outcome = sl.unlearn_samples(&mut fed, 0, &[0, 1, 2], &mut rng);
        let total_real: usize = fed.clients().iter().map(Dataset::len).sum();
        assert!(outcome.unlearn.data_size < total_real / 20);
        assert!(!sl.forgotten.is_empty());
    }

    #[test]
    fn relearn_clears_forgotten_marks() {
        let (mut fed, _, mut rng, _) = trained();
        let mut sl = SampleLevelQuickDrop::distill(&fed, SampleLevelConfig::default(), &mut rng);
        sl.unlearn_samples(&mut fed, 1, &[0], &mut rng);
        assert_eq!(sl.forgotten.len(), 1);
        let phase = Phase::training(1, 4, 16, 0.05);
        sl.relearn_samples(&mut fed, 1, &[0], &phase, &mut rng);
        assert!(sl.forgotten.is_empty());
    }
}
