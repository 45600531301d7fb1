//! FedAvg: plain uniform averaging (Eq. 2 of the paper).

use super::Aggregator;
use crate::update::{mean_delta_pooled_into, ClientUpdate};
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// Uniform mean of the round's deltas — the paper's Eq. 2 baseline
/// aggregation, vulnerable by construction.
///
/// Keeps a reusable f64 accumulator so steady-state rounds aggregate
/// without allocating.
#[derive(Debug, Clone, Default)]
pub struct FedAvg {
    acc: Vec<f64>,
}

impl FedAvg {
    /// Creates the aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Aggregator for FedAvg {
    fn name(&self) -> &'static str {
        "fedavg"
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use rand::SeedableRng;

    #[test]
    fn averages_uniformly() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[2.0, 0.0], &[0.0, 2.0]]);
        assert_eq!(agg.aggregate(&us, 2, &mut rng), vec![1.0, 1.0]);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 3, &mut rng), vec![0.0; 3]);
    }

    #[test]
    fn identity_on_single_update() {
        let mut agg = FedAvg::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, -2.0, 3.0]]);
        assert_eq!(agg.aggregate(&us, 3, &mut rng), vec![1.0, -2.0, 3.0]);
    }
}
