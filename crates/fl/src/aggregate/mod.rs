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
use collapois_nn::kernels::{BlockRow, SortingNetwork, BLOCK};
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use rand::rngs::StdRng;

/// A server-side aggregation rule.
///
/// Each rule has one body, [`Aggregator::aggregate_pooled`]; the serial
/// entry points are defaults that run it on a one-lane pool, so every
/// entry point and every worker count produce the same bits.
pub trait Aggregator: std::fmt::Debug + Send {
    /// Short name for report tables.
    fn name(&self) -> &'static str;

    /// Aggregates the round's updates into a fresh delta of length `dim`
    /// ([`Aggregator::aggregate_into`] on a zeroed vector).
    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut out = vec![0.0f32; dim];
        self.aggregate_into(updates, &mut out, rng);
        out
    }

    /// [`Aggregator::aggregate_pooled`] on `WorkerPool::new(1)`, which
    /// holds no thread and allocates nothing.
    fn aggregate_into(&mut self, updates: &[ClientUpdate], out: &mut [f32], rng: &mut StdRng) {
        self.aggregate_pooled(updates, out, rng, &WorkerPool::new(1));
    }

    /// The rule itself: writes the aggregated delta into `out` (whose
    /// length is the parameter dimension), zeros when `updates` is empty.
    /// Shardable inner loops (the mean's reduction tree, Krum's and
    /// FLARE's distance triangle, the coordinate rules' column shards) fan
    /// out over `pool`. Shard boundaries must be a function of the update
    /// count and dimension only — never the worker count — so the result
    /// is **bitwise identical** at every worker count.
    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        pool: &WorkerPool,
    );

    /// Optional transformation of the global model after the delta has been
    /// applied (e.g. CRFL's parameter clipping + noising).
    fn post_process(&mut self, _global: &mut [f32], _rng: &mut StdRng) {}
}

/// Coordinates per column shard for the per-coordinate aggregators
/// (trimmed-mean / median), a multiple of [`BLOCK`]. A fixed width keeps
/// shard boundaries a function of the dimension only — per-coordinate
/// reductions are independent, so any sharding is bitwise exact; the
/// constant just bounds dispatch granularity.
const COORD_SHARD: usize = 256;

/// The coordinate rules' one body: writes `reduce`'s statistic of every
/// coordinate's values across `updates` into `out` (zeros for an empty
/// round). `network` is rebuilt for the update count. The parameter
/// vector is split into [`COORD_SHARD`]-wide column shards over `pool`,
/// and each block of [`BLOCK`] coordinates in a shard (fewer at the end of
/// the vector) is copied from every update into the lane's rows, one row
/// per update, which `reduce` collapses to one value per column.
pub(crate) fn reduce_column_blocks<R>(
    updates: &[ClientUpdate],
    out: &mut [f32],
    pool: &WorkerPool,
    network: &mut SortingNetwork,
    arenas: &mut WorkerArenas<Vec<BlockRow>>,
    reduce: R,
) where
    R: Fn(&SortingNetwork, &mut [BlockRow]) -> BlockRow + Sync,
{
    if updates.is_empty() {
        out.fill(0.0);
        return;
    }
    network.build(updates.len());
    let network = &*network;
    pool.for_chunks_mut_with_arena(arenas, out, COORD_SHARD, Vec::new, |shard, chunk, rows| {
        rows.resize(updates.len(), [0.0; BLOCK]);
        for (b, out) in chunk.chunks_mut(BLOCK).enumerate() {
            let start = shard * COORD_SHARD + b * BLOCK;
            for (row, u) in rows.iter_mut().zip(updates) {
                let src = &u.delta[start..start + out.len()];
                // A whole block moves as one `[f32; 8]`; a copy of unknown
                // length calls `memcpy` per row, which doubled the rules' time.
                match <&BlockRow>::try_from(src) {
                    Ok(block) => *row = *block,
                    Err(_) => row[..src.len()].copy_from_slice(src),
                }
            }
            out.copy_from_slice(&reduce(network, rows)[..out.len()]);
        }
    });
}

/// Refills `votes` with the updates' sign vote on each of the first `dim`
/// coordinates, `Σᵢ sign(Δθᵢ[c])`, where a zero (or NaN) coordinate votes
/// 0: one pass over each update. RLR and SignSGD share it.
///
/// # Panics
///
/// Panics if an update has fewer than `dim` coordinates.
pub(crate) fn count_signs(updates: &[ClientUpdate], dim: usize, votes: &mut Vec<i32>) {
    votes.clear();
    votes.resize(dim, 0);
    for u in updates {
        for (v, &d) in votes.iter_mut().zip(&u.delta[..dim]) {
            *v += i32::from(d > 0.0) - i32::from(d < 0.0);
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_runtime::checkpoint::{fnv1a, fnv1a_extend};
    use rand::{Rng, RngCore, SeedableRng};

    /// Deterministic updates mixing exact zeros (sign votes), every
    /// seventh client boosted 500× (clipping, screening), magnitudes spread
    /// over 2^±15, and ±2^40 in every fifth coordinate of clients 0, 9, 18
    /// and 27: pairs that cancel exactly across tree leaves, so the leaves'
    /// rounding, and with it any change to the tree's shape, shows in the
    /// mean's `f32` bits.
    fn sample_updates(n: usize, dim: usize) -> Vec<ClientUpdate> {
        let mut rng = StdRng::seed_from_u64((n * 1000 + dim) as u64);
        (0..n)
            .map(|i| {
                let boost = if i % 7 == 3 { 500.0 } else { 1.0 };
                let delta = (0..dim)
                    .map(|j| {
                        let v: f32 = rng.gen_range(-1.0..1.0);
                        let exp = ((i * 7 + j * 3) % 31) as i32 - 15;
                        if (i + j) % 11 == 0 {
                            0.0
                        } else if i % 9 == 0 && j % 5 == 0 {
                            if i % 18 == 0 {
                                2f32.powi(40)
                            } else {
                                -(2f32.powi(40))
                            }
                        } else {
                            v * boost * 2f32.powi(exp)
                        }
                    })
                    .collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect()
    }

    /// The entry point a run drives: `aggregate`, `aggregate_into`, or
    /// `aggregate_pooled` at a worker count.
    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Fresh,
        Into,
        Pooled(usize),
    }

    /// Two rounds through one rule instance via `entry` (the output buffer
    /// starts as NaN, so every coordinate must be written): the output
    /// bits of both rounds, the next draw of the RNG, and the rule state.
    fn run<A, S>(
        make: &impl Fn() -> A,
        state: &impl Fn(&A) -> S,
        updates: &[ClientUpdate],
        dim: usize,
        entry: Entry,
    ) -> (Vec<u32>, u64, S)
    where
        A: Aggregator,
    {
        let mut rule = make();
        let mut rng = StdRng::seed_from_u64(11);
        let mut bits = Vec::new();
        for _ in 0..2 {
            let out = match entry {
                Entry::Fresh => rule.aggregate(updates, dim, &mut rng),
                Entry::Into => {
                    let mut out = vec![f32::NAN; dim];
                    rule.aggregate_into(updates, &mut out, &mut rng);
                    out
                }
                Entry::Pooled(workers) => {
                    let mut out = vec![f32::NAN; dim];
                    rule.aggregate_pooled(updates, &mut out, &mut rng, &WorkerPool::new(workers));
                    out
                }
            };
            bits.extend(out.iter().map(|v| v.to_bits()));
        }
        (bits, rng.next_u64(), state(&rule))
    }

    /// Every rule of Table I's battery, with the state each rule keeps
    /// across rounds, handed one row at a time to a [`Rows`] visitor.
    fn table(rows: &mut impl Rows) {
        rows.row("fedavg", FedAvg::new, |_| ());
        rows.row("norm-bound", || NormBound::new(1.0), |_| ());
        rows.row(
            "noisy norm-bound",
            || NormBound::new(1.0).with_noise(0.05),
            |_| (),
        );
        rows.row("krum", || Krum::new(1), |_| ());
        rows.row("multi-krum", || Krum::multi(2, 3), |_| ());
        rows.row("flare", || Flare::new(4.0), |_| ());
        rows.row("trimmed-mean", || TrimmedMean::new(0.2), |_| ());
        rows.row("median", CoordinateMedian::new, |_| ());
        rows.row("dp", || DpAggregator::new(1.0, 0.0), |_| ());
        rows.row("noisy dp", || DpAggregator::new(1.0, 1.0), |_| ());
        rows.row(
            "user-dp",
            || UserLevelDp::new(1.0, 0.5),
            |a| a.rho().to_bits(),
        );
        rows.row("crfl", || Crfl::new(10.0, 0.1), |_| ());
        rows.row("rlr", || RobustLearningRate::new(2), |_| ());
        rows.row("signsgd", || SignSgd::new(0.01), |_| ());
        rows.row("stat-filter", StatFilter::new, |a| a.excluded_total());
    }

    /// A check run on every row of [`table`].
    trait Rows {
        fn row<A, S>(&mut self, name: &'static str, make: impl Fn() -> A, state: impl Fn(&A) -> S)
        where
            A: Aggregator,
            S: PartialEq + std::fmt::Debug;
    }

    /// Update counts that make one tree leaf, two leaves, and several
    /// leaves with a ragged tail, at dimensions below and past one
    /// `COORD_SHARD`.
    const SHAPES: [(usize, usize); 8] = [
        (1, 1),
        (1, 300),
        (2, 1),
        (2, 300),
        (9, 1),
        (9, 300),
        (33, 1),
        (33, 300),
    ];

    /// Every entry point at every worker count must give the bits, RNG
    /// position and rule state of `aggregate`.
    struct EntryPoints;

    impl Rows for EntryPoints {
        fn row<A, S>(&mut self, name: &'static str, make: impl Fn() -> A, state: impl Fn(&A) -> S)
        where
            A: Aggregator,
            S: PartialEq + std::fmt::Debug,
        {
            for (n, dim) in SHAPES {
                let updates = sample_updates(n, dim);
                let expected = run(&make, &state, &updates, dim, Entry::Fresh);
                let entries = [1, 2, 4, 8].map(Entry::Pooled);
                for entry in std::iter::once(Entry::Into).chain(entries) {
                    let got = run(&make, &state, &updates, dim, entry);
                    assert!(
                        got == expected,
                        "{name}: n={n} dim={dim} {entry:?} diverges from `aggregate`"
                    );
                }
            }
        }
    }

    #[test]
    fn every_rule_has_one_body_at_every_entry_point_and_worker_count() {
        table(&mut EntryPoints);
    }

    /// The coordinate rules expect finite updates, which the server's
    /// finite-norm gate guarantees. A NaN or an infinity that gets through
    /// anyway must not panic, and changes no coordinate's output but its
    /// own: at a block's first and last lane, and in the ragged last block.
    #[test]
    fn a_non_finite_coordinate_changes_only_its_own_output() {
        let dim = 300;
        let clean = sample_updates(9, dim);
        let rules: [fn() -> Box<dyn Aggregator>; 2] = [
            || Box::new(CoordinateMedian::new()),
            || Box::new(TrimmedMean::new(0.2)),
        ];
        for make in rules {
            let mut rule = make();
            let mut rng = StdRng::seed_from_u64(0);
            let expected = rule.aggregate(&clean, dim, &mut rng);
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                for coord in [0, 7, 256, 299] {
                    let mut poisoned = clean.clone();
                    poisoned[4].delta[coord] = bad;
                    let got = rule.aggregate(&poisoned, dim, &mut rng);
                    for c in (0..dim).filter(|&c| c != coord) {
                        assert_eq!(
                            got[c].to_bits(),
                            expected[c].to_bits(),
                            "{}: {bad} at {coord} moved coordinate {c}",
                            rule.name()
                        );
                    }
                }
            }
        }
    }

    /// One FNV-1a digest per row over every shape's two rounds of output
    /// bits, next RNG draw and `Debug`-printed rule state.
    struct Digests(Vec<(&'static str, u64)>);

    impl Rows for Digests {
        fn row<A, S>(&mut self, name: &'static str, make: impl Fn() -> A, state: impl Fn(&A) -> S)
        where
            A: Aggregator,
            S: PartialEq + std::fmt::Debug,
        {
            let mut h = fnv1a(name.as_bytes());
            for (n, dim) in SHAPES {
                let updates = sample_updates(n, dim);
                let (bits, draw, state) = run(&make, &state, &updates, dim, Entry::Fresh);
                for b in bits {
                    h = fnv1a_extend(h, &b.to_le_bytes());
                }
                h = fnv1a_extend(h, &draw.to_le_bytes());
                h = fnv1a_extend(h, format!("{state:?}").as_bytes());
            }
            self.0.push((name, h));
        }
    }

    /// Each rule's output, RNG position and state, pinned per row. The
    /// digests were recorded before the rules shared one averaging path
    /// (clipping and index selection in the reduction tree's leaf), so any
    /// bit that path moves shows here. The oracle kernels of the
    /// `reference` feature reassociate norms and distances, so the pins
    /// hold for the blocked and SIMD tiers only.
    #[cfg(not(feature = "reference"))]
    #[test]
    fn every_rule_reproduces_its_pinned_output() {
        const PINNED: [(&str, u64); 15] = [
            ("fedavg", 0x42580befda9ab010),
            ("norm-bound", 0xdbe3c5e26e13057a),
            ("noisy norm-bound", 0x95c0e9c7fdeabca2),
            ("krum", 0xc80f12ce0c00c6f2),
            ("multi-krum", 0x21306d1dcbd55daa),
            ("flare", 0xe0c0f7ef2d3553eb),
            ("trimmed-mean", 0x02db9db57e08755d),
            ("median", 0x1a68c68b7355149b),
            ("dp", 0x77d3635a2badd2ed),
            ("noisy dp", 0x3fca036fdda2b406),
            ("user-dp", 0x121e5c8b233d754d),
            ("crfl", 0xc31a20c2dd0b5352),
            ("rlr", 0xfbfc41ea74f5094b),
            ("signsgd", 0x1f41e978828b4946),
            ("stat-filter", 0xb7183349df7cffe9),
        ];
        let mut digests = Digests(Vec::new());
        table(&mut digests);
        assert_eq!(digests.0, PINNED);
    }
}
