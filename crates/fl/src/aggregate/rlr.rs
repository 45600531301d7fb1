//! Robust Learning Rate [Ozdayi et al., AAAI 2021].
//!
//! For every model coordinate, count how many clients agree on the update's
//! sign; where the |sum of signs| falls below a threshold θ, the server's
//! learning rate for that coordinate is flipped to −1 (pushing against the
//! disputed direction). Under highly non-IID data most coordinates are
//! disputed, which destroys benign accuracy — the paper's observed 61.53 %
//! Benign-AC drop.

use super::{count_signs, Aggregator};
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// RLR defense: sign-agreement-gated learning-rate flipping.
#[derive(Debug, Clone)]
pub struct RobustLearningRate {
    threshold: usize,
    /// Reusable partial-accumulator matrix for the mean's reduction tree.
    acc: Vec<f64>,
    /// Reusable per-coordinate sign votes.
    votes: Vec<i32>,
}

impl RobustLearningRate {
    /// Creates the defense with agreement threshold θ (the minimum |Σ sign|
    /// needed to keep the positive learning rate).
    ///
    /// # Panics
    ///
    /// Panics if `threshold == 0`.
    pub fn new(threshold: usize) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            threshold,
            acc: Vec::new(),
            votes: Vec::new(),
        }
    }
}

impl Aggregator for RobustLearningRate {
    fn name(&self) -> &'static str {
        "rlr"
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
        mean_delta_pooled_into(updates, None, None, out, &mut self.acc, pool);
        count_signs(updates, out.len(), &mut self.votes);
        for (v, &vote) in out.iter_mut().zip(&self.votes) {
            if (vote.unsigned_abs() as usize) < self.threshold {
                *v = -*v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use rand::SeedableRng;

    #[test]
    fn agreement_keeps_direction() {
        let mut agg = RobustLearningRate::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[2.0], &[0.5]]);
        let out = agg.aggregate(&us, 1, &mut rng);
        assert!(out[0] > 0.0);
    }

    #[test]
    fn dispute_flips_direction() {
        let mut agg = RobustLearningRate::new(3);
        let mut rng = StdRng::seed_from_u64(0);
        // 2 positive, 1 negative: |sum| = 1 < 3 → flipped.
        let us = updates(&[&[1.0], &[2.0], &[-0.5]]);
        let out = agg.aggregate(&us, 1, &mut rng);
        let mean = (1.0 + 2.0 - 0.5) / 3.0;
        assert!(
            (out[0] + mean).abs() < 1e-6,
            "expected flipped mean, got {}",
            out[0]
        );
    }

    #[test]
    fn per_coordinate_independence() {
        let mut agg = RobustLearningRate::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, 1.0], &[1.0, -1.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(out[0] > 0.0); // agreement on coord 0
        assert!(out[1].abs() < 1e-9); // disputed coord averages to 0 either way
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = RobustLearningRate::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 2, &mut rng), vec![0.0; 2]);
    }
}
