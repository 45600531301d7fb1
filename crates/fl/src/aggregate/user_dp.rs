//! User-level differential privacy [McMahan et al., ICLR 2018].
//!
//! Unlike the per-step DP-optimizer, user-level DP protects whole client
//! *updates*: every update is clipped to the sensitivity bound `S`, the
//! average is perturbed with Gaussian noise `N(0, (z·S/m)²)` per coordinate,
//! and the privacy cost of the whole training run is tracked with a zCDP
//! accountant (each Gaussian release of noise multiplier `z` costs
//! `ρ = 1/(2z²)`; `ε(δ) = ρ + 2√(ρ·ln(1/δ))`).

use super::Aggregator;
use crate::update::{mean_delta, ClientUpdate};
use collapois_stats::distribution::for_each_standard_normal;
use collapois_stats::geometry::clip_to_norm;
use rand::rngs::StdRng;

/// User-level DP aggregation with zCDP accounting.
#[derive(Debug, Clone, Copy)]
pub struct UserLevelDp {
    sensitivity: f64,
    noise_multiplier: f64,
    /// Accumulated zCDP budget ρ.
    rho: f64,
}

impl UserLevelDp {
    /// Creates the aggregator with sensitivity bound `S` and noise
    /// multiplier `z`.
    ///
    /// # Panics
    ///
    /// Panics if `sensitivity <= 0` or `noise_multiplier <= 0`.
    pub fn new(sensitivity: f64, noise_multiplier: f64) -> Self {
        assert!(sensitivity > 0.0, "sensitivity must be positive");
        assert!(noise_multiplier > 0.0, "noise multiplier must be positive");
        Self {
            sensitivity,
            noise_multiplier,
            rho: 0.0,
        }
    }

    /// Accumulated zCDP budget ρ.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Spent (ε, δ)-DP budget via the standard zCDP conversion
    /// `ε = ρ + 2·√(ρ·ln(1/δ))`.
    ///
    /// # Panics
    ///
    /// Panics if `delta` is outside `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> f64 {
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        self.rho + 2.0 * (self.rho * (1.0 / delta).ln()).sqrt()
    }
}

impl Aggregator for UserLevelDp {
    fn name(&self) -> &'static str {
        "user-dp"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32> {
        let clipped: Vec<ClientUpdate> = updates
            .iter()
            .map(|u| {
                let mut delta = u.delta.clone();
                clip_to_norm(&mut delta, self.sensitivity);
                ClientUpdate::new(u.client_id, delta, u.num_samples)
            })
            .collect();
        let mut agg = mean_delta(&clipped, dim);
        if !updates.is_empty() {
            let sigma = (self.noise_multiplier * self.sensitivity / updates.len() as f64) as f32;
            for_each_standard_normal(rng, &mut agg, |v, z| *v += sigma * z as f32);
            // One Gaussian release at multiplier z.
            self.rho += 1.0 / (2.0 * self.noise_multiplier * self.noise_multiplier);
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
    fn clips_to_sensitivity() {
        let mut agg = UserLevelDp::new(1.0, 0.01);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[100.0, 0.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        // Clipped to 1, plus modest noise.
        assert!(l2_norm(&out) < 2.0);
    }

    #[test]
    fn accountant_accumulates_per_round() {
        let mut agg = UserLevelDp::new(1.0, 2.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(agg.rho(), 0.0);
        let us = updates(&[&[0.1, 0.1], &[0.2, 0.0]]);
        for _ in 0..8 {
            let _ = agg.aggregate(&us, 2, &mut rng);
        }
        // rho = 8 / (2·4) = 1.0
        assert!((agg.rho() - 1.0).abs() < 1e-12);
        let eps = agg.epsilon(1e-5);
        assert!(eps > 1.0, "eps accounts for the delta term: {eps}");
        // Empty rounds cost nothing.
        let _ = agg.aggregate(&[], 2, &mut rng);
        assert!((agg.rho() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn more_noise_means_cheaper_privacy() {
        let mut low_noise = UserLevelDp::new(1.0, 1.0);
        let mut high_noise = UserLevelDp::new(1.0, 4.0);
        let mut rng = StdRng::seed_from_u64(2);
        let us = updates(&[&[0.1]]);
        let _ = low_noise.aggregate(&us, 1, &mut rng);
        let _ = high_noise.aggregate(&us, 1, &mut rng);
        assert!(high_noise.epsilon(1e-5) < low_noise.epsilon(1e-5));
    }

    #[test]
    #[should_panic(expected = "noise multiplier must be positive")]
    fn rejects_zero_noise() {
        let _ = UserLevelDp::new(1.0, 0.0);
    }
}
