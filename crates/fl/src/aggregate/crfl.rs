//! CRFL [Xie et al., ICML 2021] — certified robustness via model clipping
//! and noising.
//!
//! CRFL averages updates normally but then **clips the global model's
//! parameter norm** and perturbs it with Gaussian noise, yielding sample
//! robustness certificates. The clip/noise happens in
//! [`Aggregator::post_process`].

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;

/// CRFL: FedAvg + global-model parameter clipping + noising.
#[derive(Debug, Clone)]
pub struct Crfl {
    param_bound: f64,
    noise_std: f64,
    /// Reusable partial-accumulator matrix for the mean's reduction tree.
    acc: Vec<f64>,
}

impl Crfl {
    /// Creates the defense.
    ///
    /// # Panics
    ///
    /// Panics if `param_bound <= 0` or `noise_std < 0`.
    pub fn new(param_bound: f64, noise_std: f64) -> Self {
        assert!(param_bound > 0.0, "param bound must be positive");
        assert!(noise_std >= 0.0, "noise std must be non-negative");
        Self {
            param_bound,
            noise_std,
            acc: Vec::new(),
        }
    }
}

impl Aggregator for Crfl {
    fn name(&self) -> &'static str {
        "crfl"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        mean_delta_pooled_into(updates, None, None, out, &mut self.acc, pool);
    }

    fn post_process(&mut self, global: &mut [f32], rng: &mut StdRng) {
        let norm = kernels::sq_l2_norm(global).sqrt();
        if norm > self.param_bound {
            kernels::scale(global, (self.param_bound / norm) as f32);
        }
        if self.noise_std > 0.0 {
            for_each_standard_normal(rng, global, |v, z| *v += (self.noise_std * z) as f32);
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
    fn aggregation_is_plain_mean() {
        let mut agg = Crfl::new(10.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[2.0], &[4.0]]);
        assert_eq!(agg.aggregate(&us, 1, &mut rng), vec![3.0]);
    }

    #[test]
    fn post_process_clips_model_norm() {
        let mut agg = Crfl::new(1.0, 0.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut global = vec![3.0f32, 4.0];
        agg.post_process(&mut global, &mut rng);
        assert!((l2_norm(&global) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn post_process_noise_perturbs() {
        let mut agg = Crfl::new(100.0, 0.5);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let mut a = vec![0.0f32; 4];
        let mut b = vec![0.0f32; 4];
        agg.post_process(&mut a, &mut r1);
        agg.post_process(&mut b, &mut r2);
        assert_ne!(a, b);
    }
}
