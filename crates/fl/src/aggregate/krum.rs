//! Krum and Multi-Krum [Blanchard et al., NeurIPS 2017].
//!
//! Krum scores each update by the sum of squared distances to its
//! `n − f − 2` nearest neighbours and selects the lowest-scoring update;
//! Multi-Krum averages the `m` best. Under highly non-IID data the selected
//! update is unrepresentative of most clients, which is exactly the
//! Benign-AC collapse the paper reports (§V, "Standard defenses … lead to
//! substantial drops in Benign AC").

use super::Aggregator;
use crate::update::{pairwise_sq_distances_pooled, tree_reduce_into, ClientUpdate, MEAN_CHUNK};
use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// Krum / Multi-Krum aggregation.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Assumed number of malicious clients `f`.
    assumed_malicious: usize,
    /// Number of selected updates `m` (1 = classic Krum).
    select: usize,
}

impl Krum {
    /// Classic Krum (selects a single update).
    pub fn new(assumed_malicious: usize) -> Self {
        Self {
            assumed_malicious,
            select: 1,
        }
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
        }
    }

    /// Krum scores for each update (lower = more central).
    ///
    /// The pairwise squared distances are computed once per unordered pair
    /// through the kernel layer and mirrored; each score sorts its row and
    /// sums the `k` nearest in ascending order, so scores are exactly
    /// stable under client reordering.
    pub fn scores(&self, updates: &[ClientUpdate]) -> Vec<f64> {
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        self.score_rows(&kernels::pairwise_sq_distances(&deltas), updates.len())
    }

    /// [`Krum::scores`] with the distance triangle sharded over `pool`'s
    /// lanes, each unordered pair computed once (DESIGN.md §9). The matrix
    /// is bitwise the serial one, so the scores are too.
    pub fn scores_pooled(&self, updates: &[ClientUpdate], pool: &WorkerPool) -> Vec<f64> {
        self.score_rows(&pairwise_sq_distances_pooled(updates, pool), updates.len())
    }

    /// Scores the rows of a finished `n × n` distance matrix: each row's
    /// off-diagonal entries sorted ascending, the `k` nearest summed in
    /// that order.
    fn score_rows(&self, d2: &[f64], n: usize) -> Vec<f64> {
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

    /// Selection order (ascending score, stable) and the mean of the best
    /// `select` updates via the fixed-shape reduction tree.
    fn select_and_average(&self, updates: &[ClientUpdate], scores: &[f64], out: &mut [f32]) {
        let mut order: Vec<usize> = (0..updates.len()).collect();
        order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
        order.truncate(self.select.min(updates.len()));
        let chosen = order.as_slice();
        let mut acc = Vec::new();
        tree_reduce_into(chosen.len(), out, &mut acc, |c, row| {
            let lo = c * MEAN_CHUNK;
            let hi = (lo + MEAN_CHUNK).min(chosen.len());
            for &idx in &chosen[lo..hi] {
                kernels::acc_add(row, &updates[idx].delta);
            }
        });
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

    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, _rng: &mut StdRng) -> Vec<f32> {
        if updates.is_empty() {
            return vec![0.0; dim];
        }
        if updates.len() == 1 {
            return updates[0].delta.clone();
        }
        let scores = self.scores(updates);
        let mut out = vec![0.0f32; dim];
        self.select_and_average(updates, &scores, &mut out);
        out
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        if updates.is_empty() {
            out.fill(0.0);
            return;
        }
        if updates.len() == 1 {
            out.copy_from_slice(&updates[0].delta);
            return;
        }
        let scores = self.scores_pooled(updates, pool);
        self.select_and_average(updates, &scores, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
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

    #[test]
    fn pooled_scores_and_aggregate_match_serial_bitwise() {
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
            for mut agg in [Krum::new(1), Krum::multi(2, 3)] {
                let serial_scores = agg.scores(&us);
                let serial = agg.aggregate(&us, 9, &mut rng);
                for workers in [1, 2, 4, 8] {
                    let pool = WorkerPool::new(workers);
                    let pooled_scores = agg.scores_pooled(&us, &pool);
                    let s: Vec<u64> = serial_scores.iter().map(|v| v.to_bits()).collect();
                    let p: Vec<u64> = pooled_scores.iter().map(|v| v.to_bits()).collect();
                    let what = format!("{} n={n} workers={workers}", agg.name());
                    assert_eq!(s, p, "scores diverge: {what}");
                    let mut out = vec![0.0f32; 9];
                    agg.aggregate_pooled(&us, &mut out, &mut rng, &pool);
                    let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
                    let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(a, b, "aggregate diverges: {what}");
                }
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
