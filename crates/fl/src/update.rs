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

/// The one uniform mean of the aggregation rules: writes the mean of the
/// picked deltas into `out` through the fixed-shape reduction tree, with
/// `acc` as a reusable f64 accumulator and the leaves fanned out over
/// `pool` (bitwise identical at every worker count). `pick` lists the
/// updates to average, in order (`None`: all). With `clip`, a leaf sums
/// each update whose norm exceeds the bound scaled by `(bound / norm) as
/// f32` and rounded to `f32`: exactly the sum of a clipped copy, with no
/// copy made. Writes zeros when nothing is picked.
///
/// # Panics
///
/// Panics if a picked update's dimension differs from `out.len()`.
pub fn mean_delta_pooled_into(
    updates: &[ClientUpdate],
    pick: Option<&[usize]>,
    clip: Option<f64>,
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
) {
    let n = pick.map_or(updates.len(), <[usize]>::len);
    tree_reduce_pooled_into(n, n.max(1) as f64, out, acc, pool, |c, row| {
        for k in c * MEAN_CHUNK..((c + 1) * MEAN_CHUNK).min(n) {
            let delta = &updates[pick.map_or(k, |p| p[k])].delta;
            assert_eq!(delta.len(), row.len(), "update dimension mismatch");
            match clip.map(|bound| (bound, kernels::sq_l2_norm(delta).sqrt())) {
                Some((bound, norm)) if norm > bound => {
                    kernels::acc_scaled_f32(row, delta, (bound / norm) as f32);
                }
                _ => kernels::acc_add(row, delta),
            }
        }
    });
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
    let n = updates.len();
    tree_reduce_pooled_into(n, denom, out, acc, pool, |c, row| {
        let (lo, hi) = (c * MEAN_CHUNK, ((c + 1) * MEAN_CHUNK).min(n));
        for (u, &w) in updates[lo..hi].iter().zip(&weights[lo..hi]) {
            assert_eq!(u.delta.len(), row.len(), "update dimension mismatch");
            kernels::acc_scaled(row, &u.delta, w);
        }
    });
}

/// The fixed-shape reduction tree: `leaf(c, row)` accumulates leaf chunk
/// `c` (update indices `c·MEAN_CHUNK ..` of `n`) into its borrowed
/// `dim`-length partial-accumulator row, the leaves fanned out over
/// `pool`; the rows are then merged by a deterministic pairwise
/// (stride-doubling) tree on the dispatching thread and scaled into
/// `out = root / denom`. The uniform mean passes `denom = max(n, 1)`,
/// weighted means `Σ wᵢ`.
///
/// The leaf must write a function of `(c, n)` only — never of which thread
/// runs it — which together with the worker-count-independent chunking
/// makes the result bitwise identical at every worker count.
fn tree_reduce_pooled_into<L>(
    n: usize,
    denom: f64,
    out: &mut [f32],
    acc: &mut Vec<f64>,
    pool: &WorkerPool,
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
    let mut stride = 1usize;
    while stride < nchunks {
        let mut base = 0usize;
        while base + stride < nchunks {
            let (lo, hi) = acc.split_at_mut((base + stride) * dim);
            for (d, s) in lo[base * dim..base * dim + dim].iter_mut().zip(&hi[..dim]) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Uniform mean of every update, unclipped, on a one-lane pool.
    fn mean_delta(updates: &[ClientUpdate], dim: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; dim];
        let pool = WorkerPool::new(1);
        mean_delta_pooled_into(updates, None, None, &mut out, &mut Vec::new(), &pool);
        out
    }

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

    /// The reduction tree written out independently of the pool: leaves of
    /// `MEAN_CHUNK` updates summed in order, merged pairwise by stride
    /// doubling, the root divided by `Σ w` (or 1 when that is not positive).
    fn reference_tree(updates: &[ClientUpdate], weights: &[f64], dim: usize) -> Vec<u32> {
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0; dim]];
        for (c, chunk) in updates.chunks(MEAN_CHUNK).enumerate() {
            if c > 0 {
                rows.push(vec![0.0; dim]);
            }
            for (k, u) in chunk.iter().enumerate() {
                let w = weights[c * MEAN_CHUNK + k];
                for (r, &d) in rows[c].iter_mut().zip(&u.delta) {
                    *r += w * d as f64;
                }
            }
        }
        let mut stride = 1;
        while stride < rows.len() {
            for base in (0..rows.len() - stride).step_by(2 * stride) {
                let src = rows[base + stride].clone();
                for (d, s) in rows[base].iter_mut().zip(src) {
                    *d += s;
                }
            }
            stride *= 2;
        }
        let wsum: f64 = weights.iter().sum();
        let denom = if wsum > 0.0 { wsum } else { 1.0 };
        rows[0]
            .iter()
            .map(|&a| ((a / denom) as f32).to_bits())
            .collect()
    }

    fn sample_updates(n: usize, dim: usize) -> Vec<ClientUpdate> {
        (0..n)
            .map(|i| {
                let delta: Vec<f32> = (0..dim)
                    .map(|j| ((i * 31 + j * 7) as f32).sin() * 3.0)
                    .collect();
                ClientUpdate::new(i, delta, 10)
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `updates` picked by index and clipped to `bound` explicitly: the
    /// copies the leaf's in-place selection and clipping must sum like.
    fn picked_and_clipped(
        updates: &[ClientUpdate],
        pick: &[usize],
        bound: f64,
    ) -> Vec<ClientUpdate> {
        pick.iter()
            .map(|&i| {
                let mut u = updates[i].clone();
                let norm = kernels::sq_l2_norm(&u.delta).sqrt();
                if norm > bound {
                    let s = (bound / norm) as f32;
                    u.delta.iter_mut().for_each(|x| *x *= s);
                }
                u
            })
            .collect()
    }

    #[test]
    fn means_match_the_reference_tree_at_every_worker_count() {
        // 37 updates span several tree leaves plus a ragged tail.
        let dim = 19;
        for n in [0, 1, 8, 9, 37] {
            let updates = sample_updates(n, dim);
            let unit = vec![1.0f64; n];
            let weights: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64).sqrt()).collect();
            // Every third update, last first: a selection that spans leaves
            // out of order. The clip bound lies inside the updates' norm
            // range (8.9–9.6), so some are clipped and some pass.
            let pick: Vec<usize> = (0..n).rev().step_by(3).collect();
            let clipped = picked_and_clipped(&updates, &pick, 9.2);
            for workers in [1, 2, 4, 8] {
                let pool = WorkerPool::new(workers);
                let mut acc = Vec::new();
                let mut out = vec![0.0f32; dim];
                mean_delta_pooled_into(&updates, None, None, &mut out, &mut acc, &pool);
                let expected = reference_tree(&updates, &unit, dim);
                assert_eq!(bits(&out), expected, "mean n={n} workers={workers}");
                weighted_mean_delta_pooled_into(&updates, &unit, &mut out, &mut acc, &pool);
                assert_eq!(bits(&out), expected, "unit weights n={n} workers={workers}");
                weighted_mean_delta_pooled_into(&updates, &weights, &mut out, &mut acc, &pool);
                let expected = reference_tree(&updates, &weights, dim);
                assert_eq!(bits(&out), expected, "weighted n={n} workers={workers}");
                let (pick, bound) = (Some(pick.as_slice()), Some(9.2));
                mean_delta_pooled_into(&updates, pick, bound, &mut out, &mut acc, &pool);
                let expected = reference_tree(&clipped, &vec![1.0; clipped.len()], dim);
                assert_eq!(
                    bits(&out),
                    expected,
                    "picked, clipped n={n} workers={workers}"
                );
            }
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
    fn weighted_mean_weights_the_updates() {
        let u1 = ClientUpdate::new(0, vec![1.0, 0.0], 1);
        let u2 = ClientUpdate::new(1, vec![0.0, 1.0], 1);
        let mut out = vec![0.0f32; 2];
        let pool = WorkerPool::new(1);
        weighted_mean_delta_pooled_into(&[u1, u2], &[3.0, 1.0], &mut out, &mut Vec::new(), &pool);
        assert!((out[0] - 0.75).abs() < 1e-7);
        assert!((out[1] - 0.25).abs() < 1e-7);
    }

    #[test]
    fn weighted_mean_of_empty_or_zero_weight_is_zero() {
        let pool = WorkerPool::new(1);
        let mut out = vec![5.0f32; 2];
        let mut acc = Vec::new();
        weighted_mean_delta_pooled_into(&[], &[], &mut out, &mut acc, &pool);
        assert_eq!(out, vec![0.0, 0.0]);
        let u = ClientUpdate::new(0, vec![1.0, 2.0], 1);
        let mut out2 = vec![5.0f32; 2];
        weighted_mean_delta_pooled_into(&[u], &[0.0], &mut out2, &mut acc, &pool);
        assert_eq!(out2, vec![0.0, 0.0]);
    }

    #[test]
    fn mean_into_reuses_buffers() {
        let u1 = ClientUpdate::new(0, vec![1.0, 2.0], 10);
        let u2 = ClientUpdate::new(1, vec![3.0, 4.0], 20);
        let pool = WorkerPool::new(1);
        let mut out = vec![9.0f32; 2];
        let mut acc = vec![7.0f64; 5]; // stale contents must not leak through
        let both = [u1, u2];
        mean_delta_pooled_into(&both, None, None, &mut out, &mut acc, &pool);
        assert_eq!(out, vec![2.0, 3.0]);
        // Second call with a different selection reuses the same buffers.
        mean_delta_pooled_into(&both, Some(&[0]), None, &mut out, &mut acc, &pool);
        assert_eq!(out, vec![1.0, 2.0]);
    }
}
