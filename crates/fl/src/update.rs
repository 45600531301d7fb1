//! Client model updates.
//!
//! Sign convention (see DESIGN.md): a client update is the flat delta
//! `Δθ_i = θ_i^t − θ^t` — the direction the client wants the global model to
//! move — and the server applies `θ^{t+1} = θ^t + λ · Aggregate({Δθ_i})`.
//! CollaPois' malicious delta `ψ(X − θ^t)` therefore pulls the model toward
//! the Trojaned model X.

use collapois_nn::kernels;
use collapois_runtime::pool::WorkerPool;
use collapois_stats::geometry::l2_norm;

/// Updates per leaf of the fixed-shape reduction tree (DESIGN.md §9).
///
/// Aggregation sums are reassociated into per-chunk partial accumulators so
/// the chunks can run on different lanes; the chunk width is a constant, so
/// the tree's shape — and therefore every rounding step — depends only on
/// the number of updates, never on the worker count. With `n ≤ MEAN_CHUNK`
/// updates there is a single leaf and the sum order degenerates to the
/// plain serial accumulation.
pub(crate) const MEAN_CHUNK: usize = 8;

/// One client's contribution to a training round.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientUpdate {
    /// The submitting client's id.
    pub client_id: usize,
    /// Flat delta vector `θ_local − θ_global`.
    pub delta: Vec<f32>,
    /// Number of local samples (available to weighted aggregation rules;
    /// the paper's Eq. 2 averages uniformly over `|S_t|`).
    pub num_samples: usize,
}

impl ClientUpdate {
    /// Creates an update.
    pub fn new(client_id: usize, delta: Vec<f32>, num_samples: usize) -> Self {
        Self {
            client_id,
            delta,
            num_samples,
        }
    }

    /// l2 norm of the delta.
    pub fn norm(&self) -> f64 {
        l2_norm(&self.delta)
    }

    /// Parameter dimension.
    pub fn dim(&self) -> usize {
        self.delta.len()
    }
}

/// Uniform element-wise mean of the deltas (Eq. 2's `Σ Δθ / |S_t|`).
/// Returns a zero vector of `dim` when `updates` is empty.
///
/// # Panics
///
/// Panics if any update's dimension differs from `dim`.
pub fn mean_delta(updates: &[ClientUpdate], dim: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; dim];
    let mut acc = Vec::new();
    mean_delta_into(updates, &mut out, &mut acc);
    out
}

/// In-place [`mean_delta`]: writes the mean into `out` (length `dim`) using
/// `acc` as a reusable f64 accumulator. Bitwise identical to the allocating
/// path and to [`mean_delta_pooled_into`] at any worker count — all three
/// share the fixed-shape reduction tree.
///
/// # Panics
///
/// Panics if any update's dimension differs from `out.len()`.
pub fn mean_delta_into(updates: &[ClientUpdate], out: &mut [f32], acc: &mut Vec<f64>) {
    tree_reduce_into(updates.len(), out, acc, |c, row| {
        mean_leaf(updates, c, row);
    });
}

/// Parallel [`mean_delta_into`]: leaf chunks of the reduction tree fan out
/// over `pool`'s lanes. The tree shape is fixed by the update count (see
/// [`MEAN_CHUNK`]), so the result is bitwise identical to the serial path
/// at every worker count.
///
/// # Panics
///
/// Panics if any update's dimension differs from `out.len()`.
pub fn mean_delta_pooled_into(
    updates: &[ClientUpdate],
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
) {
    tree_reduce_pooled_into(updates.len(), out, acc, pool, |c, row| {
        mean_leaf(updates, c, row);
    });
}

/// Accumulates leaf chunk `c`'s updates into `row` (one tree leaf).
fn mean_leaf(updates: &[ClientUpdate], c: usize, row: &mut [f64]) {
    let dim = row.len();
    let lo = c * MEAN_CHUNK;
    let hi = (lo + MEAN_CHUNK).min(updates.len());
    for u in &updates[lo..hi] {
        assert_eq!(u.delta.len(), dim, "update dimension mismatch");
        kernels::acc_add(row, &u.delta);
    }
}

/// Weighted element-wise mean `Σ wᵢ·Δθᵢ / Σ wᵢ` through the same
/// fixed-shape reduction tree as [`mean_delta_pooled_into`] (staleness
/// weighting for buffered-async FedBuff merges). Leaves accumulate
/// `wᵢ·Δθᵢ` in update order and the root is scaled by `1/Σ wᵢ`, so the
/// result is bitwise identical at every worker count. With all weights
/// equal to 1 this reduces exactly to the uniform mean. Writes zeros when
/// `updates` is empty or the weight sum is zero.
///
/// # Panics
///
/// Panics if `weights.len() != updates.len()` or any update's dimension
/// differs from `out.len()`.
pub fn weighted_mean_delta_pooled_into(
    updates: &[ClientUpdate],
    weights: &[f64],
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
) {
    assert_eq!(
        weights.len(),
        updates.len(),
        "one weight per update required"
    );
    let wsum: f64 = weights.iter().sum();
    let denom = if wsum > 0.0 { wsum } else { 1.0 };
    tree_reduce_scaled_pooled_into(updates.len(), out, acc, pool, denom, |c, row| {
        weighted_leaf(updates, weights, c, row);
    });
}

/// Serial [`weighted_mean_delta_pooled_into`] (same tree, same bits).
///
/// # Panics
///
/// Panics if `weights.len() != updates.len()` or any update's dimension
/// differs from `out.len()`.
pub fn weighted_mean_delta_into(
    updates: &[ClientUpdate],
    weights: &[f64],
    out: &mut [f32],
    acc: &mut Vec<f64>,
) {
    assert_eq!(
        weights.len(),
        updates.len(),
        "one weight per update required"
    );
    let wsum: f64 = weights.iter().sum();
    let denom = if wsum > 0.0 { wsum } else { 1.0 };
    let dim = out.len();
    if dim == 0 {
        return;
    }
    let nchunks = updates.len().div_ceil(MEAN_CHUNK).max(1);
    acc.clear();
    acc.resize(nchunks * dim, 0.0);
    for (c, row) in acc.chunks_mut(dim).enumerate() {
        weighted_leaf(updates, weights, c, row);
    }
    merge_and_scale(acc, nchunks, dim, denom, out);
}

/// Accumulates leaf chunk `c`'s weighted updates into `row`.
fn weighted_leaf(updates: &[ClientUpdate], weights: &[f64], c: usize, row: &mut [f64]) {
    let dim = row.len();
    let lo = c * MEAN_CHUNK;
    let hi = (lo + MEAN_CHUNK).min(updates.len());
    for (u, &w) in updates[lo..hi].iter().zip(&weights[lo..hi]) {
        assert_eq!(u.delta.len(), dim, "update dimension mismatch");
        for (r, &d) in row.iter_mut().zip(&u.delta) {
            *r += w * d as f64;
        }
    }
}

/// Serial fixed-shape tree reduction: `leaf(c, row)` accumulates leaf chunk
/// `c` (update indices `c·MEAN_CHUNK ..`) into its borrowed `dim`-length
/// partial-accumulator row; the rows are then merged by a deterministic
/// pairwise (stride-doubling) tree and scaled by `1/n` into `out`.
///
/// The leaf must write a function of `(c, n)` only — never of which thread
/// runs it — which together with the worker-count-independent chunking
/// makes [`tree_reduce_pooled_into`] bitwise identical to this path.
pub(crate) fn tree_reduce_into<L>(n: usize, out: &mut [f32], acc: &mut Vec<f64>, leaf: L)
where
    L: Fn(usize, &mut [f64]),
{
    let dim = out.len();
    if dim == 0 {
        return;
    }
    let nchunks = n.div_ceil(MEAN_CHUNK).max(1);
    acc.clear();
    acc.resize(nchunks * dim, 0.0);
    for (c, row) in acc.chunks_mut(dim).enumerate() {
        leaf(c, row);
    }
    merge_and_scale(acc, nchunks, dim, n.max(1) as f64, out);
}

/// [`tree_reduce_into`] with the leaf chunks fanned out over `pool`.
pub(crate) fn tree_reduce_pooled_into<L>(
    n: usize,
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
    leaf: L,
) where
    L: Fn(usize, &mut [f64]) + Sync,
{
    tree_reduce_scaled_pooled_into(n, out, acc, pool, n.max(1) as f64, leaf);
}

/// Pooled [`kernels::pairwise_sq_distances`] over the updates' deltas: the
/// `n × n` row-major matrix of squared l2 distances, bitwise identical to
/// the serial kernel at every worker count.
///
/// Each row is one fixed chunk of [`WorkerPool::for_chunks_mut`] (a shard
/// boundary that depends on `n` only). A lane fills row `i`'s upper part
/// with [`kernels::pairwise_sq_distances_upper_row_into`] — the exact
/// per-pair operation sequence of the serial kernel, and every unordered
/// pair exactly once — and the caller mirrors the finished triangle.
///
/// # Panics
///
/// Panics if the deltas have different lengths.
pub(crate) fn pairwise_sq_distances_pooled(
    updates: &[ClientUpdate],
    pool: &WorkerPool,
) -> Vec<f64> {
    let n = updates.len();
    let deltas: Vec<&[f32]> = updates.iter().map(|u| u.delta.as_slice()).collect();
    let mut d2 = vec![0.0f64; n * n];
    pool.for_chunks_mut(&mut d2, n.max(1), |i, row| {
        kernels::pairwise_sq_distances_upper_row_into(&deltas, i, row);
    });
    kernels::mirror_upper_triangle(&mut d2, n);
    d2
}

/// [`tree_reduce_pooled_into`] with an arbitrary positive denominator:
/// `out = root / denom`. The uniform mean is the `denom = max(n, 1)`
/// special case; weighted means pass `Σ wᵢ`.
pub(crate) fn tree_reduce_scaled_pooled_into<L>(
    n: usize,
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
    denom: f64,
    leaf: L,
) where
    L: Fn(usize, &mut [f64]) + Sync,
{
    let dim = out.len();
    if dim == 0 {
        return;
    }
    let nchunks = n.div_ceil(MEAN_CHUNK).max(1);
    acc.clear();
    acc.resize(nchunks * dim, 0.0);
    pool.for_chunks_mut(acc, dim, |c, row| leaf(c, row));
    merge_and_scale(acc, nchunks, dim, denom, out);
}

/// Pairwise stride-doubling merge of the `nchunks` partial rows in `acc`
/// (row 0 absorbs the root), then `out = (root / denom) as f32`. Runs
/// on the dispatching thread in both the serial and pooled paths, so the
/// merge order is one fixed tree.
fn merge_and_scale(acc: &mut [f64], nchunks: usize, dim: usize, denom: f64, out: &mut [f32]) {
    let mut stride = 1usize;
    while stride < nchunks {
        let mut base = 0usize;
        while base + stride < nchunks {
            let (lo, hi) = acc.split_at_mut((base + stride) * dim);
            let dst = &mut lo[base * dim..base * dim + dim];
            let src = &hi[..dim];
            for (d, s) in dst.iter_mut().zip(src) {
                *d += s;
            }
            base += 2 * stride;
        }
        stride *= 2;
    }
    for (o, &a) in out.iter_mut().zip(acc.iter()) {
        *o = (a / denom) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_updates() {
        let u1 = ClientUpdate::new(0, vec![1.0, 2.0], 10);
        let u2 = ClientUpdate::new(1, vec![3.0, 4.0], 20);
        assert_eq!(mean_delta(&[u1, u2], 2), vec![2.0, 3.0]);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean_delta(&[], 3), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn norm_and_dim() {
        let u = ClientUpdate::new(0, vec![3.0, 4.0], 1);
        assert!((u.norm() - 5.0).abs() < 1e-9);
        assert_eq!(u.dim(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mean_rejects_mismatch() {
        let u1 = ClientUpdate::new(0, vec![1.0], 1);
        let _ = mean_delta(&[u1], 2);
    }

    #[test]
    fn pooled_mean_is_bitwise_identical_to_serial() {
        // 37 updates spans several tree leaves plus a ragged tail; the
        // pooled path must reproduce the serial tree exactly at every
        // worker count.
        let dim = 19;
        let updates: Vec<ClientUpdate> = (0..37)
            .map(|i| {
                let delta: Vec<f32> = (0..dim)
                    .map(|j| ((i * 31 + j * 7) as f32).sin() * 3.0)
                    .collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect();
        let mut serial = vec![0.0f32; dim];
        let mut acc = Vec::new();
        mean_delta_into(&updates, &mut serial, &mut acc);
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut pooled = vec![0.0f32; dim];
            let mut acc2 = Vec::new();
            mean_delta_pooled_into(&updates, &mut pooled, &mut acc2, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = pooled.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn tree_mean_matches_plain_mean_within_reassociation() {
        // The fixed-shape tree reassociates the sum; the result must stay
        // within a few ulps of the naive left-to-right mean.
        let updates: Vec<ClientUpdate> = (0..29)
            .map(|i| ClientUpdate::new(i, vec![(i as f32).cos(); 5], 1))
            .collect();
        let got = mean_delta(&updates, 5);
        let naive: f64 =
            updates.iter().map(|u| u.delta[0] as f64).sum::<f64>() / updates.len() as f64;
        for &g in &got {
            assert!((g as f64 - naive).abs() < 1e-6, "{g} vs {naive}");
        }
    }

    #[test]
    fn weighted_mean_with_unit_weights_matches_uniform_mean_bitwise() {
        let dim = 17;
        let updates: Vec<ClientUpdate> = (0..23)
            .map(|i| {
                let delta: Vec<f32> = (0..dim)
                    .map(|j| ((i * 13 + j * 5) as f32).cos() * 2.0)
                    .collect();
                ClientUpdate::new(i, delta, 1)
            })
            .collect();
        let weights = vec![1.0f64; updates.len()];
        let mut uniform = vec![0.0f32; dim];
        let mut acc = Vec::new();
        mean_delta_into(&updates, &mut uniform, &mut acc);
        let mut weighted = vec![0.0f32; dim];
        let mut acc2 = Vec::new();
        weighted_mean_delta_into(&updates, &weights, &mut weighted, &mut acc2);
        let a: Vec<u32> = uniform.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u32> = weighted.iter().map(|v| v.to_bits()).collect();
        assert_eq!(a, b, "unit weights must degenerate to the uniform mean");
    }

    #[test]
    fn pooled_weighted_mean_is_bitwise_identical_to_serial() {
        let dim = 11;
        let updates: Vec<ClientUpdate> = (0..37)
            .map(|i| {
                let delta: Vec<f32> = (0..dim).map(|j| ((i * 7 + j * 3) as f32).sin()).collect();
                ClientUpdate::new(i, delta, 1)
            })
            .collect();
        let weights: Vec<f64> = (0..updates.len())
            .map(|i| 1.0 / (1.0 + i as f64).sqrt())
            .collect();
        let mut serial = vec![0.0f32; dim];
        let mut acc = Vec::new();
        weighted_mean_delta_into(&updates, &weights, &mut serial, &mut acc);
        for workers in [1, 2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut pooled = vec![0.0f32; dim];
            let mut acc2 = Vec::new();
            weighted_mean_delta_pooled_into(&updates, &weights, &mut pooled, &mut acc2, &pool);
            let a: Vec<u32> = serial.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = pooled.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "workers={workers}");
        }
    }

    #[test]
    fn weighted_mean_weights_the_updates() {
        let u1 = ClientUpdate::new(0, vec![1.0, 0.0], 1);
        let u2 = ClientUpdate::new(1, vec![0.0, 1.0], 1);
        let mut out = vec![0.0f32; 2];
        let mut acc = Vec::new();
        weighted_mean_delta_into(&[u1, u2], &[3.0, 1.0], &mut out, &mut acc);
        assert!((out[0] - 0.75).abs() < 1e-7);
        assert!((out[1] - 0.25).abs() < 1e-7);
    }

    #[test]
    fn weighted_mean_of_empty_or_zero_weight_is_zero() {
        let mut out = vec![5.0f32; 2];
        let mut acc = Vec::new();
        weighted_mean_delta_into(&[], &[], &mut out, &mut acc);
        assert_eq!(out, vec![0.0, 0.0]);
        let u = ClientUpdate::new(0, vec![1.0, 2.0], 1);
        let mut out2 = vec![5.0f32; 2];
        weighted_mean_delta_into(&[u], &[0.0], &mut out2, &mut acc);
        assert_eq!(out2, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_into_reuses_buffers() {
        let u1 = ClientUpdate::new(0, vec![1.0, 2.0], 10);
        let u2 = ClientUpdate::new(1, vec![3.0, 4.0], 20);
        let mut out = vec![9.0f32; 2];
        let mut acc = vec![7.0f64; 5]; // stale contents must not leak through
        mean_delta_into(&[u1.clone(), u2], &mut out, &mut acc);
        assert_eq!(out, vec![2.0, 3.0]);
        // Second call with different updates reuses the same buffers.
        mean_delta_into(&[u1], &mut out, &mut acc);
        assert_eq!(out, vec![1.0, 2.0]);
    }
}
