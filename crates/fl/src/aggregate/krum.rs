//! Krum and Multi-Krum [Blanchard et al., NeurIPS 2017].
//!
//! Krum scores each update by the sum of squared distances to its
//! `n − f − 2` nearest neighbours and selects the lowest-scoring update;
//! Multi-Krum averages the `m` best. Under highly non-IID data the selected
//! update is unrepresentative of most clients, which is exactly the
//! Benign-AC collapse the paper reports (§V, "Standard defenses … lead to
//! substantial drops in Benign AC").

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, pairwise_sq_distances_pooled, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// Krum / Multi-Krum aggregation.
#[derive(Debug, Clone)]
pub struct Krum {
    /// Assumed number of malicious clients `f`.
    assumed_malicious: usize,
    /// Number of selected updates `m` (1 = classic Krum).
    select: usize,
    /// Reusable partial-accumulator matrix for the selection's mean.
    acc: Vec<f64>,
}

impl Krum {
    /// Classic Krum (selects a single update).
    pub fn new(assumed_malicious: usize) -> Self {
        Self::multi(assumed_malicious, 1)
    }

    /// Multi-Krum selecting (and averaging) the best `select` updates.
    ///
    /// # Panics
    ///
    /// Panics if `select == 0`.
    pub fn multi(assumed_malicious: usize, select: usize) -> Self {
        assert!(select > 0, "must select at least one update");
        Self {
            assumed_malicious,
            select,
            acc: Vec::new(),
        }
    }

    /// Krum scores for each update (lower = more central).
    ///
    /// The pairwise squared distances are computed once per unordered pair,
    /// the triangle sharded over `pool`'s lanes (DESIGN.md §9), and
    /// mirrored; each score sorts its row's off-diagonal entries and sums
    /// the `k` nearest in ascending order, so scores are exactly stable
    /// under client reordering and bitwise equal at every worker count.
    pub fn scores(&self, updates: &[ClientUpdate], pool: &WorkerPool) -> Vec<f64> {
        let n = updates.len();
        let d2 = pairwise_sq_distances_pooled(updates, pool);
        let k = self.neighbours(n);
        let mut scores = Vec::with_capacity(n);
        let mut dists = Vec::with_capacity(n.saturating_sub(1));
        for (i, row) in d2.chunks_exact(n.max(1)).enumerate() {
            dists.clear();
            dists.extend(
                row.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &d)| d),
            );
            dists.sort_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
            scores.push(dists.iter().take(k).sum());
        }
        scores
    }

    /// Number of neighbours each score sums: `n − f − 2`, at least 1.
    fn neighbours(&self, n: usize) -> usize {
        n.saturating_sub(self.assumed_malicious + 2)
            .max(1)
            .min(n.saturating_sub(1))
    }
}

impl Aggregator for Krum {
    fn name(&self) -> &'static str {
        if self.select == 1 {
            "krum"
        } else {
            "multi-krum"
        }
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        // A lone update is its own selection, copied bit for bit (the mean
        // would turn a -0.0 coordinate into +0.0).
        if let [only] = updates {
            out.copy_from_slice(&only.delta);
            return;
        }
        // The best `select` updates in ascending score order (a stable
        // sort), averaged in that order.
        let scores = self.scores(updates, pool);
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
        order.truncate(self.select.min(updates.len()));
        mean_delta_pooled_into(updates, Some(&order), None, out, &mut self.acc, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use collapois_nn::kernels;
    use rand::SeedableRng;

    #[test]
    fn output_is_one_of_the_inputs() {
        let mut agg = Krum::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[0.0, 0.0], &[0.1, 0.1], &[0.05, 0.0], &[9.0, 9.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(
            us.iter().any(|u| u.delta == out),
            "krum must select an input"
        );
    }

    #[test]
    fn rejects_obvious_outlier() {
        let mut agg = Krum::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        // Three clustered benign updates, one far-away malicious one.
        let us = updates(&[&[0.0, 0.0], &[0.1, 0.1], &[0.05, 0.0], &[9.0, 9.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(out[0] < 1.0, "outlier must not be selected: {out:?}");
    }

    #[test]
    fn selects_coordinated_cluster_when_it_is_tightest() {
        // CollaPois' key property: perfectly aligned malicious updates form
        // the tightest cluster, so Krum selects them under non-IID scatter.
        let mut agg = Krum::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[
            &[5.0, 5.0],
            &[5.0, 5.0],
            &[5.0, 5.0], // coordinated attackers
            &[0.0, 4.0],
            &[-4.0, 1.0],
            &[3.0, -3.0], // scattered benign
        ]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert_eq!(out, vec![5.0, 5.0]);
    }

    #[test]
    fn multi_krum_averages_selection() {
        let mut agg = Krum::multi(0, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[0.0, 0.0], &[1.0, 1.0], &[100.0, 100.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert_eq!(out, vec![0.5, 0.5]);
    }

    /// Krum scores from the serial distance kernel: each row's
    /// off-diagonal entries sorted ascending, the `k` nearest summed.
    fn reference_scores(updates: &[ClientUpdate], f: usize) -> Vec<f64> {
        let n = updates.len();
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let d2 = kernels::pairwise_sq_distances(&deltas);
        let k = n.saturating_sub(f + 2).max(1).min(n - 1);
        (0..n)
            .map(|i| {
                let mut row: Vec<f64> = (0..n).filter(|&j| j != i).map(|j| d2[i * n + j]).collect();
                row.sort_by(|a, b| a.partial_cmp(b).unwrap());
                row.iter().take(k).sum()
            })
            .collect()
    }

    #[test]
    fn scores_and_selection_match_the_serial_kernel_reference() {
        // Sizes cover the tiny-dispatch inline path, 4-wide column groups
        // with and without tails, and a many-row triangle that lanes steal.
        let mut rng = StdRng::seed_from_u64(3);
        for n in [2, 3, 5, 13, 64] {
            let us: Vec<ClientUpdate> = (0..n)
                .map(|i| {
                    let delta: Vec<f32> = (0..9).map(|j| ((i * 17 + j * 5) as f32).sin()).collect();
                    ClientUpdate::new(i, delta, 10)
                })
                .collect();
            let expected: Vec<u64> = reference_scores(&us, 1)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let best = (0..n)
                .min_by(|&a, &b| {
                    f64::from_bits(expected[a]).total_cmp(&f64::from_bits(expected[b]))
                })
                .unwrap();
            for workers in [1, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let mut agg = Krum::new(1);
                let scores: Vec<u64> = agg.scores(&us, &pool).iter().map(|v| v.to_bits()).collect();
                assert_eq!(scores, expected, "n={n} workers={workers}");
                let mut out = vec![0.0f32; 9];
                agg.aggregate_pooled(&us, &mut out, &mut rng, &pool);
                assert_eq!(out, us[best].delta, "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let mut agg = Krum::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 2, &mut rng), vec![0.0, 0.0]);
        let single = updates(&[&[2.0, 3.0]]);
        assert_eq!(agg.aggregate(&single, 2, &mut rng), vec![2.0, 3.0]);
    }
}
