//! FLARE [Wang et al., ASIACCS 2022] — trust-score-weighted aggregation.
//!
//! FLARE estimates a trust score per update from the pairwise distances of
//! penultimate-layer representations; updates far from the crowd receive low
//! trust. This reproduction computes the trust scores from the update
//! vectors themselves (the same trust-weighted aggregation path; see
//! DESIGN.md §1).

use super::Aggregator;
use crate::update::{pairwise_sq_distances_pooled, ClientUpdate};
use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// Trust-weighted aggregation with softmax over negative mean pairwise
/// distances.
#[derive(Debug, Clone)]
pub struct Flare {
    /// Softmax temperature: larger = sharper down-weighting of outliers.
    sharpness: f64,
    /// Reusable `f64` accumulator for the trust-weighted sum.
    acc: Vec<f64>,
}

impl Flare {
    /// Creates the aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `sharpness <= 0`.
    pub fn new(sharpness: f64) -> Self {
        assert!(sharpness > 0.0, "sharpness must be positive");
        Self {
            sharpness,
            acc: Vec::new(),
        }
    }

    /// Trust scores (softmax weights, sum to 1) for the given updates,
    /// from the pairwise squared distances (one evaluation per unordered
    /// pair, the triangle sharded over `pool`'s lanes; bitwise equal at
    /// every worker count).
    pub fn trust_scores(&self, updates: &[ClientUpdate], pool: &WorkerPool) -> Vec<f64> {
        let n = updates.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            return vec![1.0];
        }
        // Mean distance of each update to all others.
        let d2 = pairwise_sq_distances_pooled(updates, pool);
        let mut mean_dist = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = d2[i * n + j].sqrt();
                mean_dist[i] += d;
                mean_dist[j] += d;
            }
        }
        for m in &mut mean_dist {
            *m /= (n - 1) as f64;
        }
        // Normalize distances to a comparable scale before the softmax.
        let scale = mean_dist.iter().sum::<f64>() / n as f64;
        let scale = scale.max(1e-12);
        let logits: Vec<f64> = mean_dist
            .iter()
            .map(|&d| -self.sharpness * d / scale)
            .collect();
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.into_iter().map(|e| e / sum).collect()
    }
}

impl Aggregator for Flare {
    fn name(&self) -> &'static str {
        "flare"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        // `out = Σ trustᵢ·Δθᵢ`, accumulated in `f64` in update order —
        // serially: the mean's reduction tree would reassociate the sum.
        let trust = self.trust_scores(updates, pool);
        self.acc.clear();
        self.acc.resize(out.len(), 0.0);
        for (u, &w) in updates.iter().zip(&trust) {
            kernels::acc_scaled(&mut self.acc, &u.delta, w);
        }
        for (o, &a) in out.iter_mut().zip(&self.acc) {
            *o = a as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use rand::SeedableRng;

    #[test]
    fn outlier_receives_low_trust() {
        let agg = Flare::new(4.0);
        let us = updates(&[&[0.0, 0.0], &[0.1, 0.0], &[0.0, 0.1], &[50.0, 50.0]]);
        let trust = agg.trust_scores(&us, &WorkerPool::new(1));
        assert!(trust[3] < 0.05, "outlier trust {}", trust[3]);
        assert!((trust.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_discounts_outlier() {
        let mut agg = Flare::new(4.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[0.0], &[0.1], &[0.05], &[100.0]]);
        let out = agg.aggregate(&us, 1, &mut rng);
        assert!(out[0] < 10.0, "outlier dominated: {}", out[0]);
    }

    #[test]
    fn identical_updates_get_uniform_trust() {
        let agg = Flare::new(4.0);
        let us = updates(&[&[1.0], &[1.0], &[1.0]]);
        let trust = agg.trust_scores(&us, &WorkerPool::new(1));
        for t in trust {
            assert!((t - 1.0 / 3.0).abs() < 1e-9);
        }
    }

    /// FLARE trust from the serial distance kernel: softmax over each
    /// update's negative mean distance to the others, scaled by the mean.
    fn reference_trust(updates: &[ClientUpdate], sharpness: f64) -> Vec<f64> {
        let n = updates.len();
        if n == 1 {
            return vec![1.0];
        }
        let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
        let d2 = kernels::pairwise_sq_distances(&deltas);
        let mut mean = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                mean[i] += d2[i * n + j].sqrt();
                mean[j] += d2[i * n + j].sqrt();
            }
        }
        let mean: Vec<f64> = mean.iter().map(|m| m / (n - 1) as f64).collect();
        let scale = (mean.iter().sum::<f64>() / n as f64).max(1e-12);
        let logits: Vec<f64> = mean.iter().map(|&d| -sharpness * d / scale).collect();
        let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
        let sum: f64 = exps.iter().sum();
        exps.iter().map(|e| e / sum).collect()
    }

    #[test]
    fn trust_and_aggregate_match_the_serial_kernel_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [1, 2, 5, 13, 40] {
            let us: Vec<ClientUpdate> = (0..n)
                .map(|i| {
                    let delta: Vec<f32> =
                        (0..11).map(|j| ((i * 13 + j * 7) as f32).cos()).collect();
                    ClientUpdate::new(i, delta, 10)
                })
                .collect();
            let trust = reference_trust(&us, 4.0);
            let expected: Vec<u32> = (0..11)
                .map(|j| {
                    let sum = us
                        .iter()
                        .zip(&trust)
                        .fold(0.0f64, |acc, (u, &w)| acc + w * u.delta[j] as f64);
                    (sum as f32).to_bits()
                })
                .collect();
            let trust: Vec<u64> = trust.iter().map(|v| v.to_bits()).collect();
            for workers in [1, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let mut agg = Flare::new(4.0);
                let pooled: Vec<u64> = agg
                    .trust_scores(&us, &pool)
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(pooled, trust, "trust: n={n} workers={workers}");
                let mut out = vec![0.0f32; 11];
                agg.aggregate_pooled(&us, &mut out, &mut rng, &pool);
                let out: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
                assert_eq!(out, expected, "aggregate: n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn degenerate_inputs() {
        let mut agg = Flare::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 2, &mut rng), vec![0.0; 2]);
        let single = updates(&[&[3.0]]);
        assert_eq!(agg.aggregate(&single, 1, &mut rng), vec![3.0]);
    }
}
