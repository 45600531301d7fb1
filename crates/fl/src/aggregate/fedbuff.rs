//! FedBuff: staleness-weighted buffered-async merging (Nguyen et al.,
//! AISTATS 2022).
//!
//! In buffered-async mode updates do not belong to a synchronous round:
//! each client trained against whatever global version it fetched, and the
//! buffer flushes when it holds K completions or a virtual deadline
//! passes. A completion that fetched version `v` and lands when the server
//! is at version `v + s` is *s-stale*; FedBuff discounts it by
//! `w = (1 + s)^(-a)` and applies the weighted mean
//! `Δ = Σ wᵢ·Δθᵢ / Σ wᵢ`.
//!
//! The merge reuses the engine's fixed-shape pooled reduction tree
//! ([`crate::update::weighted_mean_delta_pooled_into`]), so it is bitwise
//! identical at every worker count — the property the sim's determinism
//! guarantee leans on.

use crate::update::{weighted_mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;

/// FedBuff's default staleness exponent.
pub const DEFAULT_STALENESS_DECAY: f64 = 0.5;

/// The FedBuff discount `(1 + staleness)^(-decay)`. `decay = 0` weights
/// all updates equally (pure buffered FedAvg).
pub fn staleness_weight(staleness: u64, decay: f64) -> f64 {
    (1.0 + staleness as f64).powf(-decay)
}

/// Staleness-weighted buffered merge state (reusable accumulators).
#[derive(Debug, Default)]
pub struct FedBuff {
    decay: f64,
    weights: Vec<f64>,
    acc: Vec<f64>,
}

impl FedBuff {
    /// A merger with staleness exponent `decay` (≥ 0).
    pub fn new(decay: f64) -> Self {
        assert!(decay.is_finite() && decay >= 0.0, "invalid decay {decay}");
        Self {
            decay,
            weights: Vec::new(),
            acc: Vec::new(),
        }
    }

    /// Short name for traces and report tables.
    pub fn name(&self) -> &'static str {
        "fedbuff"
    }

    /// Merges one flushed buffer: `out = Σ wᵢ·Δθᵢ / Σ wᵢ` with
    /// `wᵢ = (1 + staleness[i])^(-decay)`, fanned over `pool` through the
    /// fixed-shape reduction tree (bitwise worker-count-invariant).
    /// Writes zeros when `updates` is empty.
    ///
    /// # Panics
    ///
    /// Panics if `staleness.len() != updates.len()` or any update's
    /// dimension differs from `out.len()`.
    pub fn merge_pooled(
        &mut self,
        updates: &[ClientUpdate],
        staleness: &[u64],
        out: &mut [f32],
        pool: &WorkerPool,
    ) {
        assert_eq!(
            staleness.len(),
            updates.len(),
            "one staleness per update required"
        );
        self.weights.clear();
        self.weights
            .extend(staleness.iter().map(|&s| staleness_weight(s, self.decay)));
        weighted_mean_delta_pooled_into(updates, &self.weights, out, &mut self.acc, pool);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::mean_delta_pooled_into;

    fn updates(vs: &[&[f32]]) -> Vec<ClientUpdate> {
        vs.iter()
            .enumerate()
            .map(|(i, v)| ClientUpdate::new(i, v.to_vec(), 10))
            .collect()
    }

    #[test]
    fn weight_decays_with_staleness() {
        assert_eq!(staleness_weight(0, 0.5), 1.0);
        let w1 = staleness_weight(1, 0.5);
        let w3 = staleness_weight(3, 0.5);
        assert!((w1 - 0.5f64.sqrt() * 2.0 / 2.0).abs() < 1e-12);
        assert!(w3 < w1 && w1 < 1.0);
        assert_eq!(staleness_weight(7, 0.0), 1.0, "decay 0 ignores staleness");
    }

    #[test]
    fn fresh_buffer_matches_uniform_mean_bitwise() {
        let us = updates(&[&[1.0, 2.0, 3.0], &[3.0, 0.0, -1.0], &[-2.0, 4.0, 0.5]]);
        let pool = WorkerPool::new(1);
        let mut fb = FedBuff::new(DEFAULT_STALENESS_DECAY);
        let mut out = vec![0.0f32; 3];
        fb.merge_pooled(&us, &[0, 0, 0], &mut out, &pool);
        let mut uniform = vec![0.0f32; 3];
        mean_delta_pooled_into(&us, None, None, &mut uniform, &mut Vec::new(), &pool);
        let a: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = uniform.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "all-fresh buffers must merge as plain FedAvg");
    }

    #[test]
    fn stale_updates_are_discounted() {
        let us = updates(&[&[1.0], &[-1.0]]);
        let pool = WorkerPool::new(1);
        let mut fb = FedBuff::new(1.0);
        let mut out = vec![0.0f32; 1];
        // Second update is 3-stale: w = 1/4; merge = (1 - 0.25)/(1.25).
        fb.merge_pooled(&us, &[0, 3], &mut out, &pool);
        assert!((out[0] - 0.6).abs() < 1e-6, "got {}", out[0]);
    }

    #[test]
    fn merge_is_worker_count_invariant() {
        let us: Vec<ClientUpdate> = (0..21)
            .map(|i| ClientUpdate::new(i, (0..9).map(|j| ((i * 3 + j) as f32).sin()).collect(), 1))
            .collect();
        let staleness: Vec<u64> = (0..21).map(|i| (i % 5) as u64).collect();
        let mut reference: Option<Vec<u32>> = None;
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut fb = FedBuff::new(0.5);
            let mut out = vec![0.0f32; 9];
            fb.merge_pooled(&us, &staleness, &mut out, &pool);
            let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "workers={workers}"),
            }
        }
    }

    #[test]
    fn empty_buffer_merges_to_zero() {
        let pool = WorkerPool::new(1);
        let mut fb = FedBuff::new(0.5);
        let mut out = vec![7.0f32; 4];
        fb.merge_pooled(&[], &[], &mut out, &pool);
        assert_eq!(out, vec![0.0; 4]);
    }
}
