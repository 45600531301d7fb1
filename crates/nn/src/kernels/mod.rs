//! Cache-blocked `f32` compute kernels for the nn + aggregation hot paths.
//!
//! Every dense forward/backward matmul, the fused softmax cross-entropy,
//! and the flat-parameter-vector sweeps of the robust aggregation rules in
//! `collapois-fl` route through this module. Two implementations of the
//! same API live side by side:
//!
//! * [`blocked`] — the optimized kernels: GotoBLAS-style tiled matmul with
//!   transposed-`B` packing, 8-wide unrolled axpy microkernels, 4-chain
//!   `f64` reductions, partial-select order statistics, and a fused
//!   softmax + cross-entropy that never materializes a probability tensor.
//! * [`reference`](mod@reference) — the naive textbook formulations, kept alive forever as
//!   the differential-testing oracle (`tests/kernel_equivalence.rs` in the
//!   workspace root pins one to the other).
//! * [`simd`] — the explicit-SIMD tier (AVX2 on x86_64): the blocked
//!   kernels' operation order reproduced with `core::arch` intrinsics, so
//!   it is bitwise identical to [`blocked`] on every function. On hosts
//!   without AVX2 every entry point transparently delegates to [`blocked`].
//!
//! The free functions at this level are thin dispatchers. When the crate is
//! built with the `reference` cargo feature they always call [`reference`](mod@reference)
//! (the whole stack swaps onto the oracle with `cargo test --features
//! reference`; CI runs both). Otherwise the tier is chosen **once per
//! process**: [`simd`] when the host supports it, [`blocked`] when it does
//! not, overridable either way with the environment variable
//! `COLLAPOIS_KERNEL_TIER=scalar|simd` (read at first kernel call and
//! cached — the CI `kernel-tier` job runs the tier-1 suite under both
//! values). [`active_tier`] and [`cpu_features`] expose the decision and
//! the detected ISA extensions for bench metadata.
//!
//! # Numerical contract
//!
//! * Matmul family, element-wise ops (`axpy`, `scale`, the `acc_*`
//!   accumulators), partial-select reductions (`trimmed_mean_inplace`,
//!   `median_inplace`), `softmax_rows` and `softmax_xent`: **bitwise
//!   identical** across implementations — the blocked kernels preserve the
//!   reference's per-element floating-point operation order (see the
//!   module docs of [`blocked`] for why blocking does not change it).
//! * `dot`, `sq_l2_norm`, `sq_l2_distance`, `pairwise_sq_distances`:
//!   reassociated `f64` reductions, deterministic but up to a few `f64`
//!   ulps from the reference.
//! * Pairwise distances in every tier: `sq_l2_distance` is exactly
//!   symmetric, so each tier computes only the upper row of each vector
//!   ([`pairwise_sq_distances_upper_row_into`], one evaluation per
//!   unordered pair) and [`mirror_upper_triangle`] fills the rest. The
//!   serial [`pairwise_sq_distances`] is that loop over all rows; a pooled
//!   caller (Krum, FLARE in `collapois-fl`) hands the same rows to worker
//!   lanes and mirrors once they are done, with the same bits.
//! * [`simd`] vs [`blocked`]: bitwise identical on **every** function,
//!   including the reassociated reductions (the SIMD lanes map exactly onto
//!   the blocked tier's four accumulator chains) — so switching tiers never
//!   changes golden fixtures.

pub mod blocked;
pub mod reference;
pub mod simd;

use std::sync::OnceLock;

/// Whether the dispatchers below route to the naive reference oracle
/// (`reference` cargo feature) instead of the optimized tiers.
pub const USING_REFERENCE: bool = cfg!(feature = "reference");

/// The optimized kernel implementation the process-wide dispatchers route
/// to (ignored when the `reference` cargo feature forces the oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// The portable cache-blocked scalar kernels ([`blocked`]).
    Scalar,
    /// The explicit-SIMD kernels ([`simd`]; bitwise identical to
    /// [`blocked`], AVX2 on x86_64).
    Simd,
}

impl KernelTier {
    /// Stable lowercase name (`"scalar"` / `"simd"`), matching the values
    /// `COLLAPOIS_KERNEL_TIER` accepts.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Simd => "simd",
        }
    }
}

static TIER: OnceLock<KernelTier> = OnceLock::new();

/// The tier the dispatchers route to, decided once per process: the value
/// of `COLLAPOIS_KERNEL_TIER` (`"scalar"` or `"simd"`) if set, otherwise
/// [`KernelTier::Simd`] when [`simd::supported`] detects host support and
/// [`KernelTier::Scalar`] when it does not. Forcing `simd` on a host
/// without SIMD support is harmless — the [`simd`] module then delegates to
/// [`blocked`] internally.
///
/// # Panics
///
/// Panics if `COLLAPOIS_KERNEL_TIER` is set to anything other than
/// `scalar` or `simd` (a misspelled tier must never silently run the
/// wrong kernels).
pub fn active_tier() -> KernelTier {
    *TIER.get_or_init(|| match std::env::var("COLLAPOIS_KERNEL_TIER") {
        Ok(v) if v == "scalar" => KernelTier::Scalar,
        Ok(v) if v == "simd" => KernelTier::Simd,
        Ok(v) => panic!("COLLAPOIS_KERNEL_TIER must be \"scalar\" or \"simd\", got {v:?}"),
        Err(_) => {
            if simd::supported() {
                KernelTier::Simd
            } else {
                KernelTier::Scalar
            }
        }
    })
}

/// Comma-separated list of the SIMD ISA extensions detected on the running
/// host (the ones this crate cares about), e.g. `"avx2,fma,avx512f"` —
/// recorded in bench JSON metadata so rows from different machines are
/// comparable. `"none"` when nothing relevant is detected (including every
/// non-x86_64 target).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats: Vec<&str> = Vec::new();
        if std::arch::is_x86_feature_detected!("sse4.2") {
            feats.push("sse4.2");
        }
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if feats.is_empty() {
            "none".to_string()
        } else {
            feats.join(",")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// Routes one kernel call: reference oracle under the `reference` feature,
/// otherwise the process-wide [`active_tier`].
macro_rules! dispatch {
    ($f:ident ( $($arg:expr),* $(,)? )) => {{
        #[cfg(feature = "reference")]
        {
            reference::$f($($arg),*)
        }
        #[cfg(not(feature = "reference"))]
        {
            match active_tier() {
                KernelTier::Scalar => blocked::$f($($arg),*),
                KernelTier::Simd => simd::$f($($arg),*),
            }
        }
    }};
}

/// `C = A · B` (`A: [m, k]`, `B: [k, n]`, `C: [m, n]`, row-major).
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    dispatch!(matmul(a, b, c, m, k, n))
}

/// `C = A · Bᵀ` with `bt: [n, k]` row-major (dense-layer forward layout).
pub fn matmul_transb(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    dispatch!(matmul_transb(a, bt, c, m, k, n))
}

/// `C += Aᵀ · B` (`A: [m, p]`, `B: [m, q]`, `C: [p, q]`) — weight-gradient
/// accumulation.
pub fn matmul_transa_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, p: usize, q: usize) {
    dispatch!(matmul_transa_acc(a, b, c, m, p, q))
}

/// `y += alpha · x`.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    dispatch!(axpy(y, alpha, x))
}

/// `x *= alpha`.
pub fn scale(x: &mut [f32], alpha: f32) {
    dispatch!(scale(x, alpha))
}

/// `acc += x` (`f64` accumulator vector).
pub fn acc_add(acc: &mut [f64], x: &[f32]) {
    dispatch!(acc_add(acc, x))
}

/// `acc += w · x` with the product in `f64`.
pub fn acc_scaled(acc: &mut [f64], x: &[f32], w: f64) {
    dispatch!(acc_scaled(acc, x, w))
}

/// `acc += (x · s)` with the product rounded to `f32` first (clip-then-
/// average without materializing the clipped copy).
pub fn acc_scaled_f32(acc: &mut [f64], x: &[f32], s: f32) {
    dispatch!(acc_scaled_f32(acc, x, s))
}

/// Dot product in `f64`.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    dispatch!(dot(a, b))
}

/// Squared l2 norm in `f64`.
pub fn sq_l2_norm(a: &[f32]) -> f64 {
    dispatch!(sq_l2_norm(a))
}

/// Squared l2 distance in `f64`.
pub fn sq_l2_distance(a: &[f32], b: &[f32]) -> f64 {
    dispatch!(sq_l2_distance(a, b))
}

/// `n × n` matrix (row-major) of pairwise squared l2 distances.
pub fn pairwise_sq_distances(vectors: &[&[f32]]) -> Vec<f64> {
    dispatch!(pairwise_sq_distances(vectors))
}

/// The upper part of row `i` of [`pairwise_sq_distances`]: writes
/// `row[j]` for every `j > i` and leaves `row[..=i]` untouched — the
/// shard-friendly entry point. Rows are independent and bitwise equal to
/// the full matrix's, so a caller can compute them on any lanes and finish
/// with [`mirror_upper_triangle`].
pub fn pairwise_sq_distances_upper_row_into(vectors: &[&[f32]], i: usize, row: &mut [f64]) {
    dispatch!(pairwise_sq_distances_upper_row_into(vectors, i, row))
}

/// Copies the strict upper triangle of the row-major `n × n` matrix `d`
/// onto its lower triangle (`d[j·n + i] = d[i·n + j]` for `i < j`).
///
/// # Panics
///
/// Panics if `d.len() != n * n`.
pub fn mirror_upper_triangle(d: &mut [f64], n: usize) {
    assert_eq!(d.len(), n * n, "mirror: not an n × n matrix");
    for i in 0..n {
        for j in (i + 1)..n {
            d[j * n + i] = d[i * n + j];
        }
    }
}

/// A tier's full pairwise matrix from its upper-row kernel: zeroed matrix,
/// rows in order, then [`mirror_upper_triangle`] — one code path per tier.
fn pairwise_from_upper_rows(
    vectors: &[&[f32]],
    upper_row: fn(&[&[f32]], usize, &mut [f64]),
) -> Vec<f64> {
    let n = vectors.len();
    let mut out = vec![0.0f64; n * n];
    for (i, row) in out.chunks_exact_mut(n.max(1)).enumerate() {
        upper_row(vectors, i, row);
    }
    mirror_upper_triangle(&mut out, n);
    out
}

/// α-trimmed mean of a scratch buffer (reordered in place): drop the
/// `trim` lowest and highest values, average the rest.
pub fn trimmed_mean_inplace(buf: &mut [f32], trim: usize) -> f32 {
    dispatch!(trimmed_mean_inplace(buf, trim))
}

/// Median of a scratch buffer (reordered in place); even lengths
/// interpolate the two middle order statistics in `f64`.
pub fn median_inplace(buf: &mut [f32]) -> f32 {
    dispatch!(median_inplace(buf))
}

/// In-place numerically-stable softmax over `n` rows of length `k`.
pub fn softmax_rows(data: &mut [f32], n: usize, k: usize) {
    dispatch!(softmax_rows(data, n, k))
}

/// Fused softmax + cross-entropy: writes the batch-mean gradient into
/// `grad`, returns `(summed loss, correct argmax predictions)`.
pub fn softmax_xent(
    logits: &[f32],
    labels: &[usize],
    n: usize,
    k: usize,
    grad: &mut [f32],
) -> (f64, usize) {
    dispatch!(softmax_xent(logits, labels, n, k, grad))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        matmul(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transb_matches_matmul() {
        // B = [2, 3]; Bt = transpose stored [3, 2].
        let a = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2]
        let b = [1.0f32, 0.0, 2.0, 0.0, 1.0, -1.0]; // [2, 3]
        let bt = [1.0f32, 0.0, 0.0, 1.0, 2.0, -1.0]; // [3, 2]
        let mut c1 = [0.0f32; 6];
        let mut c2 = [0.0f32; 6];
        matmul(&a, &b, &mut c1, 2, 2, 3);
        matmul_transb(&a, &bt, &mut c2, 2, 2, 3);
        assert_eq!(c1, c2);
    }

    #[test]
    fn matmul_transa_accumulates() {
        let a = [1.0f32, 2.0, 3.0, 4.0]; // [2, 2] (m=2, p=2)
        let b = [1.0f32, 1.0, 1.0, 1.0]; // [2, 2] (m=2, q=2)
        let mut c = [10.0f32; 4];
        matmul_transa_acc(&a, &b, &mut c, 2, 2, 2);
        // AᵀB = [[1+3, 1+3], [2+4, 2+4]] = [[4,4],[6,6]], plus 10.
        assert_eq!(c, [14.0, 14.0, 16.0, 16.0]);
    }

    #[test]
    fn blocked_matmul_is_bitwise_reference_beyond_tile_bounds() {
        // Dimensions straddling the KC/NC tile edges exercise the packing
        // remainders.
        let (m, k, n) = (3, 130, 300);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 37 % 97) as f32 - 48.0) * 0.03125)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 53 % 89) as f32 - 44.0) * 0.0625)
            .collect();
        let mut c_blk = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        blocked::matmul(&a, &b, &mut c_blk, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        assert_eq!(c_blk, c_ref);
    }

    #[test]
    fn slice_ops_basics() {
        let mut y = vec![1.0f32, 2.0, 3.0];
        axpy(&mut y, 2.0, &[1.0, 1.0, 1.0]);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
        scale(&mut y, 0.5);
        assert_eq!(y, vec![1.5, 2.0, 2.5]);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_l2_norm(&[3.0, 4.0]), 25.0);
        assert_eq!(sq_l2_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        let mut acc = vec![0.0f64; 2];
        acc_add(&mut acc, &[1.0, 2.0]);
        acc_scaled(&mut acc, &[2.0, 2.0], 0.5);
        assert_eq!(acc, vec![2.0, 3.0]);
        acc_scaled_f32(&mut acc, &[4.0, 4.0], 0.25);
        assert_eq!(acc, vec![3.0, 4.0]);
    }

    #[test]
    fn order_statistics() {
        let mut buf = vec![5.0f32, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median_inplace(&mut buf), 3.0);
        let mut buf = vec![4.0f32, 1.0, 2.0, 3.0];
        assert_eq!(median_inplace(&mut buf), 2.5);
        let mut buf = vec![-1000.0f32, 1.0, 3.0, 1000.0];
        assert_eq!(trimmed_mean_inplace(&mut buf, 1), 2.0);
        let mut buf = vec![1.0f32, 2.0, 3.0];
        assert_eq!(trimmed_mean_inplace(&mut buf, 0), 2.0);
    }

    #[test]
    fn pairwise_matrix_is_symmetric_with_zero_diagonal() {
        let vs: Vec<Vec<f32>> = vec![vec![0.0, 0.0], vec![3.0, 4.0], vec![1.0, 1.0]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let d = pairwise_sq_distances(&refs);
        let n = 3;
        for i in 0..n {
            assert_eq!(d[i * n + i], 0.0);
            for j in 0..n {
                assert_eq!(d[i * n + j], d[j * n + i]);
            }
        }
        assert_eq!(d[1], 25.0);
    }

    #[test]
    fn fused_softmax_xent_matches_two_pass_reference() {
        let n = 3;
        let k = 4;
        let logits: Vec<f32> = (0..n * k).map(|i| (i as f32 * 0.7).sin()).collect();
        let labels = [2usize, 0, 3];
        let mut g_blk = vec![0.0f32; n * k];
        let mut g_ref = vec![0.0f32; n * k];
        let (l_blk, c_blk) = blocked::softmax_xent(&logits, &labels, n, k, &mut g_blk);
        let (l_ref, c_ref) = reference::softmax_xent(&logits, &labels, n, k, &mut g_ref);
        assert_eq!(g_blk, g_ref);
        assert_eq!(l_blk, l_ref);
        assert_eq!(c_blk, c_ref);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_rejects_length_mismatch() {
        let mut y = vec![0.0f32; 2];
        axpy(&mut y, 1.0, &[1.0]);
    }
}
