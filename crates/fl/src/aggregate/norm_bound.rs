//! Norm bounding [Sun et al., 2019]: clip each update's l2 norm, average,
//! optionally add Gaussian noise.

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;

/// NormBound defense: per-update l2 clipping plus optional noise.
///
/// The clip-average is FedAvg's mean with a clip bound (each leaf chunk of
/// the reduction tree clips and accumulates its own updates), so it is
/// bitwise identical at every worker count — and with a bound no update
/// exceeds, NormBound degenerates to exactly FedAvg's sum.
#[derive(Debug, Clone)]
pub struct NormBound {
    bound: f64,
    noise_std: f64,
    /// Reusable partial-accumulator matrix for the reduction tree.
    acc: Vec<f64>,
}

impl NormBound {
    /// Creates the defense with the given clipping bound (no noise).
    ///
    /// # Panics
    ///
    /// Panics if `bound <= 0`.
    pub fn new(bound: f64) -> Self {
        assert!(bound > 0.0, "bound must be positive");
        Self {
            bound,
            noise_std: 0.0,
            acc: Vec::new(),
        }
    }

    /// Adds Gaussian noise of the given std-dev to the aggregated delta.
    ///
    /// # Panics
    ///
    /// Panics if `noise_std < 0`.
    pub fn with_noise(mut self, noise_std: f64) -> Self {
        assert!(noise_std >= 0.0, "noise std must be non-negative");
        self.noise_std = noise_std;
        self
    }
}

impl Aggregator for NormBound {
    fn name(&self) -> &'static str {
        "norm-bound"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        mean_delta_pooled_into(updates, None, Some(self.bound), out, &mut self.acc, pool);
        // Serial: the noise stream consumes `rng` in coordinate order at
        // every worker count.
        if self.noise_std > 0.0 {
            for_each_standard_normal(rng, out, |v, z| *v += (self.noise_std * z) as f32);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use collapois_stats::geometry::l2_norm;
    use rand::SeedableRng;

    #[test]
    fn clips_each_update() {
        let mut agg = NormBound::new(1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[30.0, 40.0]]); // norm 50 -> clipped to 1
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!((l2_norm(&out) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn output_norm_at_most_bound() {
        let mut agg = NormBound::new(2.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[10.0, 0.0], &[0.0, 10.0], &[-10.0, 0.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(l2_norm(&out) <= 2.0 + 1e-6);
    }

    #[test]
    fn small_updates_pass_unchanged() {
        let mut agg = NormBound::new(100.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(agg.aggregate(&us, 2, &mut rng), vec![2.0, 3.0]);
    }

    #[test]
    fn noise_perturbs_output() {
        let mut agg = NormBound::new(1.0).with_noise(0.1);
        let us = updates(&[&[0.0, 0.0]]);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let a = agg.aggregate(&us, 2, &mut r1);
        let b = agg.aggregate(&us, 2, &mut r2);
        assert_ne!(a, b);
    }
}
