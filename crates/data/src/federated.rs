//! Federated dataset: per-client train/test/validation splits.
//!
//! The paper divides each client's samples into 70 % training, 15 % testing
//! and 15 % validation. The attacker's auxiliary data `D_a`, which trains
//! the Trojaned model X, pools the compromised clients' local data (see
//! `collapois_core::scenario::auxiliary_data`).
//!
//! Client data is served through one of two backings: *eager* (every
//! client materialized up front — the original pooled-then-partitioned
//! path) or *lazy* (per-client shards generated on first touch and kept
//! resident under an LRU byte budget — the paper-scale cohort engine, see
//! [`crate::shard`]). Callers see a single [`FederatedDataset::client`]
//! accessor either way.

use crate::partition::dirichlet_partition;
use crate::sample::Dataset;
use crate::shard::{ResidentShards, ShardSpec, ShardStats};
use rand::Rng;
use std::sync::Arc;

/// One client's local data splits.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientData {
    /// Local training split (70 %).
    pub train: Dataset,
    /// Local testing split (15 %) — Benign AC / Attack SR are measured here.
    pub test: Dataset,
    /// Local validation split (15 %).
    pub val: Dataset,
}

impl ClientData {
    /// Total number of local samples across all splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.test.len() + self.val.len()
    }

    /// Whether the client holds no data.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-class sample counts over all three splits.
    pub(crate) fn label_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.train.num_classes()];
        for split in [&self.train, &self.test, &self.val] {
            for &y in split.labels() {
                counts[y] += 1;
            }
        }
        counts
    }

    /// Heap bytes held by the three splits (what the resident-shard byte
    /// budget accounts against).
    pub fn heap_bytes(&self) -> usize {
        self.train.heap_bytes() + self.test.heap_bytes() + self.val.heap_bytes()
    }
}

/// How client data is stored and served.
#[derive(Debug, Clone)]
enum Backing {
    /// Every client resident from construction.
    Eager(Vec<Arc<ClientData>>),
    /// Shards generated on first touch, LRU-resident under a byte budget.
    Lazy(Arc<ResidentShards>),
}

/// A dataset partitioned across clients with per-client splits.
#[derive(Debug, Clone)]
pub struct FederatedDataset {
    backing: Backing,
    sample_shape: Vec<usize>,
    num_classes: usize,
    alpha: f64,
}

impl PartialEq for FederatedDataset {
    fn eq(&self, other: &Self) -> bool {
        if (self.sample_shape != other.sample_shape)
            || self.num_classes != other.num_classes
            || self.alpha != other.alpha
        {
            return false;
        }
        match (&self.backing, &other.backing) {
            (Backing::Eager(a), Backing::Eager(b)) => a == b,
            // Equal specs generate bit-identical shards for every client,
            // so spec equality is data equality.
            (Backing::Lazy(a), Backing::Lazy(b)) => {
                a.spec() == b.spec() && a.num_clients() == b.num_clients()
            }
            _ => false,
        }
    }
}

impl FederatedDataset {
    /// Partitions `dataset` across `n_clients` with Dirichlet(α) label skew
    /// and splits each client 70/15/15.
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`dirichlet_partition`].
    pub fn build<R: Rng + ?Sized>(
        rng: &mut R,
        dataset: &Dataset,
        n_clients: usize,
        alpha: f64,
    ) -> Self {
        Self::build_with_split(rng, dataset, n_clients, alpha, 0.7, 0.15)
    }

    /// Same as [`FederatedDataset::build`] with custom train/test fractions
    /// (validation receives the remainder).
    ///
    /// # Panics
    ///
    /// Propagates the panics of [`dirichlet_partition`] and
    /// [`Dataset::split`].
    pub fn build_with_split<R: Rng + ?Sized>(
        rng: &mut R,
        dataset: &Dataset,
        n_clients: usize,
        alpha: f64,
        train_frac: f64,
        test_frac: f64,
    ) -> Self {
        let parts = dirichlet_partition(rng, dataset, n_clients, alpha);
        let clients = parts
            .iter()
            .map(|indices| {
                let local = dataset.subset(indices);
                let (train, test, val) = local.split(rng, train_frac, test_frac);
                Arc::new(ClientData { train, test, val })
            })
            .collect();
        Self {
            backing: Backing::Eager(clients),
            sample_shape: dataset.sample_shape().to_vec(),
            num_classes: dataset.num_classes(),
            alpha,
        }
    }

    /// A lazily materialized cohort: `n_clients` shards generated on first
    /// touch per `spec` and kept resident under `budget_bytes` (see
    /// [`ResidentShards`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_clients == 0` or `budget_bytes == 0`.
    pub fn lazy(spec: ShardSpec, n_clients: usize, budget_bytes: usize) -> Self {
        let sample_shape = spec.source().sample_shape();
        let num_classes = spec.source().num_classes();
        let alpha = spec.alpha();
        Self {
            backing: Backing::Lazy(Arc::new(ResidentShards::new(spec, n_clients, budget_bytes))),
            sample_shape,
            num_classes,
            alpha,
        }
    }

    /// Every client of `spec` materialized up front — the eager reference
    /// the lazy backing must be bitwise-indistinguishable from (pinned by
    /// the cohort-engine golden fixture).
    pub fn eager_from_shards(spec: &ShardSpec, n_clients: usize) -> Self {
        let clients = (0..n_clients)
            .map(|id| Arc::new(spec.generate_client(id)))
            .collect();
        Self {
            backing: Backing::Eager(clients),
            sample_shape: spec.source().sample_shape(),
            num_classes: spec.source().num_classes(),
            alpha: spec.alpha(),
        }
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        match &self.backing {
            Backing::Eager(clients) => clients.len(),
            Backing::Lazy(store) => store.num_clients(),
        }
    }

    /// The Dirichlet concentration this dataset was partitioned with.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Shape of one sample.
    pub fn sample_shape(&self) -> &[usize] {
        &self.sample_shape
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Data of client `id`. Cheap on the eager backing (an `Arc` clone);
    /// on the lazy backing a first touch generates the shard and repeat
    /// touches are resident-cache hits.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn client(&self, id: usize) -> Arc<ClientData> {
        match &self.backing {
            Backing::Eager(clients) => Arc::clone(&clients[id]),
            Backing::Lazy(store) => store.get(id),
        }
    }

    /// Residency counters of the lazy backing (`None` when eager).
    pub fn shard_stats(&self) -> Option<ShardStats> {
        match &self.backing {
            Backing::Eager(_) => None,
            Backing::Lazy(store) => Some(store.stats()),
        }
    }

    /// Per-class label counts of client `id` over its train, test and val
    /// splits (the input of the paper's Eq. 9). The lazy backing answers
    /// from a memo its renders fill and eviction keeps, so it renders only
    /// a client that was never rendered.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn label_counts(&self, id: usize) -> Vec<usize> {
        match &self.backing {
            Backing::Eager(clients) => clients[id].label_counts(),
            Backing::Lazy(store) => store.label_counts(id).to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSource;
    use crate::synthetic::{SyntheticImage, SyntheticImageConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed(alpha: f64, clients: usize) -> FederatedDataset {
        let cfg = SyntheticImageConfig {
            samples: 600,
            side: 8,
            classes: 5,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(9);
        FederatedDataset::build(&mut rng, &ds, clients, alpha)
    }

    fn shard_spec(seed: u64) -> ShardSpec {
        let gen = SyntheticImage::new(SyntheticImageConfig {
            samples: 1,
            side: 8,
            classes: 5,
            ..Default::default()
        });
        ShardSpec::new(ShardSource::Image(gen), 40, 1.0, seed)
    }

    #[test]
    fn splits_cover_all_samples() {
        let f = fed(1.0, 10);
        let total: usize = (0..10).map(|i| f.client(i).len()).sum();
        assert_eq!(total, 600);
        assert_eq!(f.num_clients(), 10);
        assert_eq!(f.num_classes(), 5);
    }

    #[test]
    fn split_ratios_roughly_hold() {
        let f = fed(10.0, 5);
        for i in 0..5 {
            let c = f.client(i);
            let n = c.len() as f64;
            assert!(
                (c.train.len() as f64 / n - 0.7).abs() < 0.1,
                "client {i}: train frac {}",
                c.train.len() as f64 / n
            );
        }
    }

    #[test]
    fn label_counts_cover_every_split() {
        let f = fed(1.0, 4);
        for id in 0..4 {
            let c = f.client(id);
            let counts = f.label_counts(id);
            assert_eq!(counts.len(), f.num_classes());
            assert_eq!(counts.iter().sum::<usize>(), c.len());
            let mut pooled = c.train.clone();
            pooled.extend_from(&c.test);
            pooled.extend_from(&c.val);
            assert_eq!(counts, crate::labels::label_histogram(&pooled));
        }
    }

    #[test]
    fn lazy_and_eager_shard_backings_agree() {
        let lazy = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let eager = FederatedDataset::eager_from_shards(&shard_spec(11), 12);
        assert_eq!(lazy.num_clients(), eager.num_clients());
        assert_eq!(lazy.sample_shape(), eager.sample_shape());
        // Scrambled lazy access order must not matter.
        for id in [7, 0, 11, 3, 7, 0] {
            assert_eq!(lazy.client(id), eager.client(id));
        }
        for id in 0..12 {
            assert_eq!(lazy.label_counts(id), eager.label_counts(id));
        }
        assert!(lazy.shard_stats().is_some());
        assert!(eager.shard_stats().is_none());
    }

    #[test]
    fn equality_follows_the_backing() {
        let a = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let b = FederatedDataset::lazy(shard_spec(11), 12, 1 << 22);
        let c = FederatedDataset::lazy(shard_spec(12), 12, 1 << 22);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Lazy never equals eager, even over the same spec: the comparison
        // would otherwise force full materialization.
        assert_ne!(a, FederatedDataset::eager_from_shards(&shard_spec(11), 12));
    }
}
