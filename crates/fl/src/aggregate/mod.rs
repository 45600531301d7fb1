//! Robust aggregation rules (Table I of the paper).
//!
//! Every rule consumes the round's client updates (flat deltas) and produces
//! the aggregated delta the server applies as `θ ← θ + λ·Δ`. Rules that also
//! modify the resulting global model (CRFL's parameter clipping/noising)
//! implement [`Aggregator::post_process`].

mod crfl;
mod dp;
mod fedavg;
mod fedbuff;
mod flare;
mod krum;
mod median;
mod norm_bound;
mod rlr;
mod sign_sgd;
mod stat_filter;
mod trimmed_mean;
mod user_dp;

pub use crfl::Crfl;
pub use dp::DpAggregator;
pub use fedavg::FedAvg;
pub use fedbuff::{staleness_weight, FedBuff, DEFAULT_STALENESS_DECAY};
pub use flare::Flare;
pub use krum::Krum;
pub use median::CoordinateMedian;
pub use norm_bound::NormBound;
pub use rlr::RobustLearningRate;
pub use sign_sgd::SignSgd;
pub use stat_filter::StatFilter;
pub use trimmed_mean::TrimmedMean;
pub use user_dp::UserLevelDp;

use crate::update::ClientUpdate;
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;

/// A server-side aggregation rule.
pub trait Aggregator: std::fmt::Debug + Send {
    /// Short name for report tables.
    fn name(&self) -> &'static str;

    /// Aggregates the round's updates into one delta of length `dim`.
    /// Must return a zero vector when `updates` is empty.
    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32>;

    /// In-place aggregation: writes the aggregated delta into `out`
    /// (whose length is the parameter dimension). The default forwards to
    /// [`Aggregator::aggregate`] and copies; rules on the steady-state hot
    /// path (FedAvg) override this to reuse internal accumulators and write
    /// straight into the borrowed slice. Both paths must produce bitwise
    /// identical results.
    fn aggregate_into(&mut self, updates: &[ClientUpdate], out: &mut [f32], rng: &mut StdRng) {
        let v = self.aggregate(updates, out.len(), rng);
        out.copy_from_slice(&v);
    }

    /// Parallel [`Aggregator::aggregate_into`]: rules with shardable inner
    /// loops (FedAvg's reduction tree, NormBound's clip-average, Krum's and
    /// FLARE's distance triangle, trimmed-mean/median's coordinate shards)
    /// fan them out over `pool`. Implementations must keep shard boundaries
    /// a function of the update count and dimension only — never the worker
    /// count — so the result stays **bitwise identical** to the serial
    /// path. The default ignores the pool and runs serially.
    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        _pool: &WorkerPool,
    ) {
        self.aggregate_into(updates, out, rng);
    }

    /// Optional transformation of the global model after the delta has been
    /// applied (e.g. CRFL's parameter clipping + noising).
    fn post_process(&mut self, _global: &mut [f32], _rng: &mut StdRng) {}
}

/// Refills `out` with the per-coordinate values across updates so the
/// scratch-buffer aggregators (median/trimmed-mean) can reuse one buffer
/// across all `dim` coordinates.
pub(crate) fn fill_coordinate(updates: &[ClientUpdate], coord: usize, out: &mut Vec<f32>) {
    out.clear();
    out.extend(updates.iter().map(|u| u.delta[coord]));
}

/// Coordinates per column shard for the per-coordinate aggregators
/// (trimmed-mean / median). A fixed width keeps shard boundaries a function
/// of the dimension only — per-coordinate reductions are independent, so
/// any sharding is bitwise exact; the constant just bounds dispatch
/// granularity.
pub(crate) const COORD_SHARD: usize = 256;

/// Reduces one column shard: `chunk` is the output slice for coordinates
/// `shard·COORD_SHARD ..`, each gathered into `scratch` and collapsed by
/// `reduce`.
pub(crate) fn coordinate_shard<R>(
    updates: &[ClientUpdate],
    shard: usize,
    chunk: &mut [f32],
    scratch: &mut Vec<f32>,
    reduce: R,
) where
    R: Fn(&mut [f32]) -> f32,
{
    let base = shard * COORD_SHARD;
    for (k, slot) in chunk.iter_mut().enumerate() {
        fill_coordinate(updates, base + k, scratch);
        *slot = reduce(scratch);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::ClientUpdate;

    /// Builds updates from plain vectors.
    pub fn updates(vs: &[&[f32]]) -> Vec<ClientUpdate> {
        vs.iter()
            .enumerate()
            .map(|(i, v)| ClientUpdate::new(i, v.to_vec(), 10))
            .collect()
    }
}
