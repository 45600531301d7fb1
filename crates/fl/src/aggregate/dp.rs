//! DP-optimizer defense [Hong et al., 2020; McMahan et al., ICLR 2018].
//!
//! Server-side differential privacy: clip every client update to a
//! sensitivity bound `S`, average, then add Gaussian noise with std
//! `z·S/|S_t|` where `z` is the noise multiplier (user-level DP accounting).

use super::Aggregator;
use crate::update::{mean_delta, ClientUpdate};
use collapois_stats::distribution::for_each_standard_normal;
use collapois_stats::geometry::clip_to_norm;
use rand::rngs::StdRng;

/// Server-side DP aggregation (clip + calibrated Gaussian noise).
#[derive(Debug, Clone, Copy)]
pub struct DpAggregator {
    clip: f64,
    noise_multiplier: f64,
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
        }
    }

    /// The sensitivity (clipping) bound.
    pub fn clip(&self) -> f64 {
        self.clip
    }
}

impl Aggregator for DpAggregator {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32> {
        let clipped: Vec<ClientUpdate> = updates
            .iter()
            .map(|u| {
                let mut delta = u.delta.clone();
                clip_to_norm(&mut delta, self.clip);
                ClientUpdate::new(u.client_id, delta, u.num_samples)
            })
            .collect();
        let mut agg = mean_delta(&clipped, dim);
        if self.noise_multiplier > 0.0 && !updates.is_empty() {
            let sigma = (self.noise_multiplier * self.clip / updates.len() as f64) as f32;
            for_each_standard_normal(rng, &mut agg, |v, z| *v += sigma * z as f32);
        }
        agg
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
