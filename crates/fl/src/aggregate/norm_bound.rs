//! Norm bounding [Sun et al., 2019]: clip each update's l2 norm, average,
//! optionally add Gaussian noise.

use super::Aggregator;
use crate::update::{tree_reduce_into, tree_reduce_pooled_into, ClientUpdate, MEAN_CHUNK};
use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;

/// NormBound defense: per-update l2 clipping plus optional noise.
///
/// The clip-average runs through the same fixed-shape reduction tree as
/// FedAvg (each leaf chunk clips and accumulates its own updates), so the
/// serial and pooled paths are bitwise identical — and with a bound no
/// update exceeds, NormBound degenerates to exactly FedAvg's sum.
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

    /// The clipping bound.
    pub fn bound(&self) -> f64 {
        self.bound
    }
}

/// Clips and accumulates leaf chunk `c`'s updates into `row` — one leaf of
/// the reduction tree. Updates within the bound accumulate directly; the
/// rest accumulate their `f32`-rounded rescaled coordinates (exactly what
/// averaging an explicitly clipped copy would have summed). No clipped
/// copies are materialized.
fn clip_leaf(updates: &[ClientUpdate], bound: f64, c: usize, row: &mut [f64]) {
    let dim = row.len();
    let lo = c * MEAN_CHUNK;
    let hi = (lo + MEAN_CHUNK).min(updates.len());
    for u in &updates[lo..hi] {
        assert_eq!(u.delta.len(), dim, "update dimension mismatch");
        let norm = kernels::sq_l2_norm(&u.delta).sqrt();
        if norm > bound {
            kernels::acc_scaled_f32(row, &u.delta, (bound / norm) as f32);
        } else {
            kernels::acc_add(row, &u.delta);
        }
    }
}

impl NormBound {
    /// Adds the optional Gaussian perturbation (serial — the noise stream
    /// must consume `rng` in coordinate order regardless of worker count).
    fn add_noise(&self, out: &mut [f32], rng: &mut StdRng) {
        if self.noise_std > 0.0 {
            for_each_standard_normal(rng, out, |v, z| *v += (self.noise_std * z) as f32);
        }
    }
}

impl Aggregator for NormBound {
    fn name(&self) -> &'static str {
        "norm-bound"
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut out = vec![0.0f32; dim];
        self.aggregate_into(updates, &mut out, rng);
        out
    }

    fn aggregate_into(&mut self, updates: &[ClientUpdate], out: &mut [f32], rng: &mut StdRng) {
        let bound = self.bound;
        let mut acc = std::mem::take(&mut self.acc);
        tree_reduce_into(updates.len(), out, &mut acc, |c, row| {
            clip_leaf(updates, bound, c, row);
        });
        self.acc = acc;
        self.add_noise(out, rng);
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        let bound = self.bound;
        let mut acc = std::mem::take(&mut self.acc);
        tree_reduce_pooled_into(updates.len(), out, &mut acc, pool, |c, row| {
            clip_leaf(updates, bound, c, row);
        });
        self.acc = acc;
        self.add_noise(out, rng);
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
    fn pooled_clip_average_matches_serial_bitwise() {
        // Mix of clipped and unclipped updates across several tree leaves.
        let us: Vec<ClientUpdate> = (0..21)
            .map(|i| {
                let scale = if i % 3 == 0 { 10.0 } else { 0.1 };
                let delta: Vec<f32> = (0..7)
                    .map(|j| ((i * 11 + j * 3) as f32).sin() * scale)
                    .collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let mut agg = NormBound::new(1.5);
        let mut rng = StdRng::seed_from_u64(0);
        let serial = agg.aggregate(&us, 7, &mut rng);
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f32; 7];
            let mut rng = StdRng::seed_from_u64(0);
            agg.aggregate_pooled(&us, &mut out, &mut rng, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
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
