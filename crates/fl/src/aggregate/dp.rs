//! DP-optimizer defense [Hong et al., 2020; McMahan et al., ICLR 2018].
//!
//! Server-side differential privacy: clip every client update to a
//! sensitivity bound `S`, average, then add Gaussian noise with std
//! `z·S/|S_t|` where `z` is the noise multiplier (user-level DP accounting).

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;

/// Server-side DP aggregation (clip + calibrated Gaussian noise).
///
/// Each update is clipped inside the mean's reduction tree, so no clipped
/// copy is made and steady-state rounds aggregate without allocating.
#[derive(Debug, Clone)]
pub struct DpAggregator {
    clip: f64,
    noise_multiplier: f64,
    /// Reusable partial-accumulator matrix for the reduction tree.
    acc: Vec<f64>,
}

impl DpAggregator {
    /// Creates the aggregator.
    ///
    /// # Panics
    ///
    /// Panics if `clip <= 0` or `noise_multiplier < 0`.
    pub fn new(clip: f64, noise_multiplier: f64) -> Self {
        assert!(clip > 0.0, "clip must be positive");
        assert!(
            noise_multiplier >= 0.0,
            "noise multiplier must be non-negative"
        );
        Self {
            clip,
            noise_multiplier,
            acc: Vec::new(),
        }
    }
}

impl Aggregator for DpAggregator {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        mean_delta_pooled_into(updates, None, Some(self.clip), out, &mut self.acc, pool);
        if self.noise_multiplier > 0.0 && !updates.is_empty() {
            let sigma = (self.noise_multiplier * self.clip / updates.len() as f64) as f32;
            for_each_standard_normal(rng, out, |v, z| *v += sigma * z as f32);
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
    fn clips_before_averaging() {
        let mut agg = DpAggregator::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[100.0, 0.0], &[0.0, 100.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(l2_norm(&out) <= 1.0 + 1e-6);
    }

    #[test]
    fn noise_scales_inversely_with_cohort() {
        let mut agg = DpAggregator::new(1.0, 1.0);
        let zeros = vec![0.0f32; 1000];
        let small = updates(&[&zeros, &zeros]);
        let many: Vec<Vec<f32>> = (0..50).map(|_| zeros.clone()).collect();
        let big = updates(&many.iter().map(|v| v.as_slice()).collect::<Vec<_>>());
        let mut rng = StdRng::seed_from_u64(1);
        let a = agg.aggregate(&small, 1000, &mut rng);
        let b = agg.aggregate(&big, 1000, &mut rng);
        assert!(
            l2_norm(&a) > l2_norm(&b),
            "noise must shrink with cohort size"
        );
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = DpAggregator::new(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 3, &mut rng), vec![0.0; 3]);
    }
}
