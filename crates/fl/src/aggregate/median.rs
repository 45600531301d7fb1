//! Coordinate-wise median [Yin et al., ICML 2018].

use super::{reduce_column_blocks, Aggregator};
use crate::update::ClientUpdate;
use collapois_nn::kernels::{BlockRow, SortingNetwork};
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use rand::rngs::StdRng;

/// Element-wise median of the round's deltas.
///
/// Each block of 8 coordinates is copied from every update into a lane's
/// block of rows and its columns sorted at once by the round's
/// [`SortingNetwork`]; the median is the middle row, and even counts
/// interpolate the two middle rows in `f64` (matching
/// `collapois_stats::descriptive::median`). The coordinate loop is sharded
/// into fixed-width column shards, each lane filling its own rows —
/// bitwise exact because coordinates are independent.
///
/// Updates must be finite, which the server's finite-norm gate
/// guarantees. A NaN does not panic: it leaves its own coordinate's
/// output unspecified, and a NaN or an infinity changes no other
/// coordinate's output.
#[derive(Debug, Default)]
pub struct CoordinateMedian {
    /// The sorting network for the current round's update count.
    network: SortingNetwork,
    /// Per-lane blocks of rows, one per column-shard lane.
    arenas: WorkerArenas<Vec<BlockRow>>,
}

impl CoordinateMedian {
    /// Creates the aggregator.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Aggregator for CoordinateMedian {
    fn name(&self) -> &'static str {
        "median"
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        _rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        reduce_column_blocks(
            updates,
            out,
            pool,
            &mut self.network,
            &mut self.arenas,
            SortingNetwork::median_columns,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::testutil::updates;
    use collapois_nn::kernels::reference;
    use rand::SeedableRng;

    #[test]
    fn median_resists_single_outlier() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[2.0], &[1000.0]]);
        assert_eq!(agg.aggregate(&us, 1, &mut rng), vec![2.0]);
    }

    #[test]
    fn bounded_by_min_max_per_coordinate() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0, -4.0], &[3.0, 0.0], &[2.0, -2.0], &[5.0, 1.0]]);
        let out = agg.aggregate(&us, 2, &mut rng);
        assert!(out[0] >= 1.0 && out[0] <= 5.0);
        assert!(out[1] >= -4.0 && out[1] <= 1.0);
    }

    #[test]
    fn even_count_interpolates_middle_pair() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        let us = updates(&[&[1.0], &[4.0], &[2.0], &[3.0]]);
        assert_eq!(agg.aggregate(&us, 1, &mut rng), vec![2.5]);
    }

    #[test]
    fn empty_round_is_zero() {
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agg.aggregate(&[], 2, &mut rng), vec![0.0; 2]);
    }

    #[test]
    fn column_shards_match_the_per_coordinate_reference() {
        // Two shards and a ragged last block of 3 coordinates.
        let dim = 523;
        let us: Vec<ClientUpdate> = (0..9)
            .map(|i| {
                let delta: Vec<f32> = (0..dim).map(|j| ((i * 7 + j) as f32).cos()).collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let expected: Vec<u32> = (0..dim)
            .map(|j| {
                let mut col: Vec<f32> = us.iter().map(|u| u.delta[j]).collect();
                reference::median_inplace(&mut col).to_bits()
            })
            .collect();
        let mut agg = CoordinateMedian::new();
        let mut rng = StdRng::seed_from_u64(0);
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut out = vec![0.0f32; dim];
            agg.aggregate_pooled(&us, &mut out, &mut rng, &pool);
            let got: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, expected, "workers={workers}");
        }
    }
}
