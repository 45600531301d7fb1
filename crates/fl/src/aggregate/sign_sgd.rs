//! SignSGD with majority vote [Bernstein et al., 2018].

use super::{count_signs, Aggregator};
use crate::update::ClientUpdate;
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// SignSGD: the aggregated delta is the per-coordinate majority sign times a
/// fixed step size.
#[derive(Debug, Clone)]
pub struct SignSgd {
    step: f64,
    /// Reusable per-coordinate sign votes.
    votes: Vec<i32>,
}

impl SignSgd {
    /// Creates the aggregator with the per-coordinate step size.
    ///
    /// # Panics
    ///
    /// Panics if `step <= 0`.
    pub fn new(step: f64) -> Self {
        assert!(step > 0.0, "step must be positive");
        Self {
            step,
            votes: Vec::new(),
        }
    }
}

impl Aggregator for SignSgd {
    fn name(&self) -> &'static str {
        "signsgd"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        _pool: &WorkerPool,
    ) {
        let step = self.step as f32;
        count_signs(updates, out.len(), &mut self.votes);
        for (o, &vote) in out.iter_mut().zip(&self.votes) {
            // ±step by the majority sign, +0.0 on a tie or an empty round.
            *o = step * vote.signum() as f32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use rand::SeedableRng;

    #[test]
    fn majority_vote_per_coordinate() {
        let mut agg = SignSgd::new(0.01);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[5.0, -1.0, 0.0], &[0.1, -2.0, 0.0], &[-9.0, 3.0, 0.0]]);
        let out = agg.aggregate(&us, 3, &mut rng);
        assert_eq!(out, vec![0.01, -0.01, 0.0]);
    }

    #[test]
    fn magnitude_is_ignored() {
        let mut agg = SignSgd::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        // A huge malicious magnitude has exactly one vote.
        let us = updates(&[&[1e9], &[-0.1], &[-0.1]]);
        assert_eq!(agg.aggregate(&us, 1, &mut rng), vec![-1.0]);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = SignSgd::new(0.1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 2, &mut rng), vec![0.0; 2]);
    }
}
