//! Explicit-SIMD implementations of the hot-path primitives (AVX2 on
//! x86_64, with a transparent delegation to [`super::blocked`] everywhere
//! else).
//!
//! # Determinism contract
//!
//! This tier is **bitwise identical** to [`super::blocked`] on every
//! function, including the reassociated `f64` reductions. That is possible
//! because the SIMD formulation mirrors the blocked kernels' operation
//! order exactly instead of inventing its own:
//!
//! * Element-wise ops (`axpy`, the fused 4-step axpy microkernel, `scale`,
//!   the `acc_*` accumulators, the softmax divides): each vector lane is an
//!   independent per-element chain, so an 8-lane `f32` (or 4-lane `f64`)
//!   step performs exactly the scalar per-element sequence. No FMA is used
//!   anywhere — the blocked kernels round after every multiply, and a fused
//!   multiply-add would change that rounding.
//! * `dot` / `sq_l2_norm` / `sq_l2_distance`: the blocked kernels already
//!   run four independent `f64` accumulator chains over `chunks_exact(4)`.
//!   The four lanes of one `__m256d` accumulator *are* those four chains —
//!   lane `i` sees exactly the elements chain `i` saw, in the same order —
//!   and the final horizontal combine uses the same fixed
//!   `((s0 + s1) + (s2 + s3)) + tail` tree.
//! * Matmul family: the same GotoBLAS-style `KC × NC` tiling as the blocked
//!   tier, with the 4-deep fused axpy microkernel vectorized 8 lanes at a
//!   time (per output element the `k` dimension is still visited in the
//!   identical ascending order).
//! * `softmax_rows` / `softmax_xent`: the max fold, `exp` and the running
//!   `f32` sum stay scalar (vectorizing the sum would reassociate it; `exp`
//!   must be the libm call the other tiers use); only the per-element
//!   normalizing divide and `1/n` scale are vectorized.
//! * Order statistics (`trimmed_mean_inplace`, `median_inplace`) are
//!   selection problems with no profitable lane structure — they delegate
//!   to the blocked implementations outright.
//!
//! Every AVX2 call site is guarded by `is_x86_feature_detected!` (cached by
//! `std` after the first CPUID), so calling any function in this module is
//! always safe: hosts without AVX2 — and non-x86_64 targets entirely — take
//! the blocked path. Tier selection for the public dispatchers lives in
//! [`super`] (`COLLAPOIS_KERNEL_TIER`); this module is also callable
//! directly, which is how `tests/kernel_equivalence.rs` pins it to the
//! blocked tier regardless of the process-wide tier choice.

// The one module in the crate allowed to use `unsafe`: `core::arch`
// loads/stores on raw pointers. Kept auditable by requiring every unsafe
// operation to sit in an explicit block even inside `unsafe fn`s.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use super::blocked;

/// Whether the explicit-SIMD paths in this module are usable on the running
/// host (x86_64 with AVX2). When `false` every entry point is a synonym for
/// its [`super::blocked`] counterpart.
#[inline]
pub fn supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `C = A · B` (`A: [m, k]`, `B: [k, n]`, `C: [m, n]`), cache-blocked with
/// row-panel packing of `B` and an 8-lane microkernel. Bitwise identical to
/// [`super::blocked::matmul`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        assert_eq!(a.len(), m * k, "matmul: A length");
        assert_eq!(b.len(), k * n, "matmul: B length");
        assert_eq!(c.len(), m * n, "matmul: C length");
        c.fill(0.0);
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe {
            x86::gemm_tiled(a, c, m, k, n, |pack, kc, kcb, jc, ncb| {
                for t in 0..kcb {
                    let src = &b[(kc + t) * n + jc..(kc + t) * n + jc + ncb];
                    pack[t * ncb..(t + 1) * ncb].copy_from_slice(src);
                }
            });
        }
        return;
    }
    blocked::matmul(a, b, c, m, k, n)
}

/// `C = A · Bᵀ` with `bt: [n, k]` row-major, transposed-`B` packing.
/// Bitwise identical to [`super::blocked::matmul_transb`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transb(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        assert_eq!(a.len(), m * k, "matmul_transb: A length");
        assert_eq!(bt.len(), n * k, "matmul_transb: Bt length");
        assert_eq!(c.len(), m * n, "matmul_transb: C length");
        c.fill(0.0);
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe {
            x86::gemm_tiled(a, c, m, k, n, |pack, kc, kcb, jc, ncb| {
                for j in 0..ncb {
                    let src = &bt[(jc + j) * k + kc..(jc + j) * k + kc + kcb];
                    for (t, &v) in src.iter().enumerate() {
                        pack[t * ncb + j] = v;
                    }
                }
            });
        }
        return;
    }
    blocked::matmul_transb(a, bt, c, m, k, n)
}

/// `C += Aᵀ · B` (`A: [m, p]`, `B: [m, q]`, `C: [p, q]`), column-blocked
/// rank-1 updates with the 8-lane microkernel. Bitwise identical to
/// [`super::blocked::matmul_transa_acc`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transa_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, p: usize, q: usize) {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        assert_eq!(a.len(), m * p, "matmul_transa_acc: A length");
        assert_eq!(b.len(), m * q, "matmul_transa_acc: B length");
        assert_eq!(c.len(), p * q, "matmul_transa_acc: C length");
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::matmul_transa_acc(a, b, c, m, p, q) };
        return;
    }
    blocked::matmul_transa_acc(a, b, c, m, p, q)
}

/// `y += alpha · x`, 8-lane. Bitwise identical to
/// [`super::blocked::axpy`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::axpy(y, alpha, x) };
        return;
    }
    blocked::axpy(y, alpha, x)
}

/// `x *= alpha`, 8-lane (bitwise identical to the blocked tier).
pub fn scale(x: &mut [f32], alpha: f32) {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::scale(x, alpha) };
        return;
    }
    blocked::scale(x, alpha)
}

/// `acc += x` with per-element `f64` accumulation, 4-lane widening loads.
/// Bitwise identical to [`super::blocked::acc_add`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_add(acc: &mut [f64], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "acc_add: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::acc_add(acc, x) };
        return;
    }
    blocked::acc_add(acc, x)
}

/// `acc += w · x` with the product in `f64`, 4-lane. Bitwise identical to
/// [`super::blocked::acc_scaled`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled(acc: &mut [f64], x: &[f32], w: f64) {
    assert_eq!(acc.len(), x.len(), "acc_scaled: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::acc_scaled(acc, x, w) };
        return;
    }
    blocked::acc_scaled(acc, x, w)
}

/// `acc += (x · s)` with the product rounded to `f32` first, 4-lane.
/// Bitwise identical to [`super::blocked::acc_scaled_f32`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled_f32(acc: &mut [f64], x: &[f32], s: f32) {
    assert_eq!(acc.len(), x.len(), "acc_scaled_f32: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        unsafe { x86::acc_scaled_f32(acc, x, s) };
        return;
    }
    blocked::acc_scaled_f32(acc, x, s)
}

/// Dot product: one `__m256d` accumulator whose four lanes are exactly the
/// blocked tier's four `f64` chains, combined with the same fixed tree.
/// Bitwise identical to [`super::blocked::dot`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        return unsafe { x86::dot(a, b) };
    }
    blocked::dot(a, b)
}

/// Squared l2 norm (lane-mapped 4-chain reduction, bitwise identical to
/// [`super::blocked::sq_l2_norm`]).
pub fn sq_l2_norm(a: &[f32]) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        return unsafe { x86::sq_l2_norm(a) };
    }
    blocked::sq_l2_norm(a)
}

/// Squared l2 distance (lane-mapped 4-chain reduction, bitwise identical to
/// [`super::blocked::sq_l2_distance`], and exactly symmetric like it).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_l2_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_l2_distance: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        // SAFETY: AVX2 availability checked by `supported()` above.
        return unsafe { x86::sq_l2_distance(a, b) };
    }
    blocked::sq_l2_distance(a, b)
}

/// Pairwise squared l2 distances (`n × n`, upper rows computed once and
/// mirrored like the blocked tier). Bitwise identical to
/// [`super::blocked::pairwise_sq_distances`].
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn pairwise_sq_distances(vectors: &[&[f32]]) -> Vec<f64> {
    super::pairwise_from_upper_rows(vectors, pairwise_sq_distances_upper_row_into)
}

/// The upper part of row `i` of [`pairwise_sq_distances`]: writes
/// `row[j]` for every `j > i`, leaving `row[..=i]` untouched. Columns go
/// through the interleaved microkernel four at a time, the tail one pair
/// at a time. Bitwise identical to
/// [`super::blocked::pairwise_sq_distances_upper_row_into`].
///
/// # Panics
///
/// Panics if `row.len() != vectors.len()` or the vectors have different
/// lengths.
pub fn pairwise_sq_distances_upper_row_into(vectors: &[&[f32]], i: usize, row: &mut [f64]) {
    let n = vectors.len();
    assert_eq!(row.len(), n, "pairwise row: length mismatch");
    let mut j = i + 1;
    #[cfg(target_arch = "x86_64")]
    if supported() {
        while j + 4 <= n {
            let d4 = distance4(
                vectors[i],
                [vectors[j], vectors[j + 1], vectors[j + 2], vectors[j + 3]],
            );
            row[j..j + 4].copy_from_slice(&d4);
            j += 4;
        }
    }
    while j < n {
        row[j] = sq_l2_distance(vectors[i], vectors[j]);
        j += 1;
    }
}

/// Four distances from one anchor in a single interleaved sweep (asserted,
/// safe wrapper over the AVX2 microkernel). Each result is bitwise
/// identical to [`sq_l2_distance`] on the same pair — the interleave only
/// hides the `f64` add latency the one-accumulator loop is bound by.
#[cfg(target_arch = "x86_64")]
fn distance4(a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
    for bj in &b {
        assert_eq!(a.len(), bj.len(), "sq_l2_distance: length mismatch");
    }
    // SAFETY: callers only reach this behind a `supported()` check.
    unsafe { x86::sq_l2_distance4(a, b) }
}

/// α-trimmed mean — a selection problem with no lane structure; delegates
/// to [`super::blocked::trimmed_mean_inplace`].
///
/// # Panics
///
/// Panics if `buf` is empty, contains NaN, or `2 * trim >= buf.len()`.
pub fn trimmed_mean_inplace(buf: &mut [f32], trim: usize) -> f32 {
    blocked::trimmed_mean_inplace(buf, trim)
}

/// Coordinate median — delegates to [`super::blocked::median_inplace`].
///
/// # Panics
///
/// Panics if `buf` is empty or contains NaN.
pub fn median_inplace(buf: &mut [f32]) -> f32 {
    blocked::median_inplace(buf)
}

/// In-place row softmax: scalar max fold / `exp` / running sum (their
/// order is part of the bitwise contract), vectorized normalizing divide.
/// Bitwise identical to [`super::blocked::softmax_rows`].
///
/// # Panics
///
/// Panics if `data.len() != n * k`.
pub fn softmax_rows(data: &mut [f32], n: usize, k: usize) {
    assert_eq!(data.len(), n * k, "softmax_rows: shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if supported() {
        for i in 0..n {
            let row = &mut data[i * k..(i + 1) * k];
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            // SAFETY: AVX2 availability checked by `supported()` above.
            unsafe { x86::div_by(row, sum) };
        }
        return;
    }
    blocked::softmax_rows(data, n, k)
}

/// Fused softmax + cross-entropy, identical pass structure to
/// [`super::blocked::softmax_xent`] with the normalizing divide and the
/// `1/n` gradient scale vectorized. Bitwise identical to the blocked tier.
///
/// Returns `(summed loss, correct argmax predictions)`.
///
/// # Panics
///
/// Panics if shapes mismatch or any label is out of range.
pub fn softmax_xent(
    logits: &[f32],
    labels: &[usize],
    n: usize,
    k: usize,
    grad: &mut [f32],
) -> (f64, usize) {
    #[cfg(target_arch = "x86_64")]
    if supported() {
        assert_eq!(logits.len(), n * k, "softmax_xent: logits shape");
        assert_eq!(grad.len(), n * k, "softmax_xent: grad shape");
        assert_eq!(labels.len(), n, "softmax_xent: labels/batch mismatch");
        let inv_n = 1.0 / n as f32;
        let mut loss = 0.0f64;
        let mut correct = 0usize;
        for (i, &y) in labels.iter().enumerate() {
            assert!(y < k, "label {y} out of range for {k} classes");
            let zrow = &logits[i * k..(i + 1) * k];
            let grow = &mut grad[i * k..(i + 1) * k];
            let max = zrow.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut sum = 0.0f32;
            for (g, &z) in grow.iter_mut().zip(zrow) {
                *g = (z - max).exp();
                sum += *g;
            }
            // SAFETY: AVX2 availability checked by `supported()` above.
            unsafe { x86::div_by(grow, sum) };
            loss += -(grow[y].max(1e-12) as f64).ln();
            if crate::loss::argmax(grow) == y {
                correct += 1;
            }
            grow[y] -= 1.0;
            // SAFETY: as above.
            unsafe { x86::scale(grow, inv_n) };
        }
        return (loss, correct);
    }
    blocked::softmax_xent(logits, labels, n, k, grad)
}

/// The AVX2 microkernels. Everything here is `unsafe fn` + `#[target_feature
/// (enable = "avx2")]`; callers must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_add_ps, _mm256_cvtps_pd, _mm256_div_ps, _mm256_loadu_pd,
        _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_set1_pd, _mm256_set1_ps,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_storeu_ps, _mm_loadu_ps, _mm_mul_ps,
        _mm_set1_ps,
    };
    use std::cell::RefCell;

    /// Depth (`k`) tile of the packed `B` panel (matches the blocked tier).
    const KC: usize = 128;
    /// Column (`n`) tile of the packed `B` panel (matches the blocked tier).
    const NC: usize = 256;

    thread_local! {
        /// Scratch buffer for packed `B` tiles (at most `KC * NC` floats) —
        /// separate from the blocked tier's so mixed-tier processes never
        /// fight over one buffer.
        static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// Fused 4-step axpy, 8 lanes at a time: per element
    /// `y = (((y + a0·x0) + a1·x1) + a2·x2) + a3·x3` with separate
    /// multiplies and adds (no FMA) — the exact left-associated order of
    /// the blocked microkernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length (callers guarantee it).
    #[target_feature(enable = "avx2")]
    unsafe fn axpy4(y: &mut [f32], al: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32]) {
        let n = y.len();
        let va0 = _mm256_set1_ps(al[0]);
        let va1 = _mm256_set1_ps(al[1]);
        let va2 = _mm256_set1_ps(al[2]);
        let va3 = _mm256_set1_ps(al[3]);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= len for every slice.
            unsafe {
                let mut vy = _mm256_loadu_ps(y.as_ptr().add(i));
                vy = _mm256_add_ps(vy, _mm256_mul_ps(va0, _mm256_loadu_ps(x0.as_ptr().add(i))));
                vy = _mm256_add_ps(vy, _mm256_mul_ps(va1, _mm256_loadu_ps(x1.as_ptr().add(i))));
                vy = _mm256_add_ps(vy, _mm256_mul_ps(va2, _mm256_loadu_ps(x2.as_ptr().add(i))));
                vy = _mm256_add_ps(vy, _mm256_mul_ps(va3, _mm256_loadu_ps(x3.as_ptr().add(i))));
                _mm256_storeu_ps(y.as_mut_ptr().add(i), vy);
            }
            i += 8;
        }
        while i < n {
            let mut s = y[i];
            s += al[0] * x0[i];
            s += al[1] * x1[i];
            s += al[2] * x2[i];
            s += al[3] * x3[i];
            y[i] = s;
            i += 1;
        }
    }

    /// `y += alpha · x`, 8 lanes at a time (separate multiply and add).
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
        let n = y.len();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= len for both slices.
            unsafe {
                let vy = _mm256_loadu_ps(y.as_ptr().add(i));
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(
                    y.as_mut_ptr().add(i),
                    _mm256_add_ps(vy, _mm256_mul_ps(va, vx)),
                );
            }
            i += 8;
        }
        while i < n {
            y[i] += alpha * x[i];
            i += 1;
        }
    }

    /// `x *= alpha`, 8 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn scale(x: &mut [f32], alpha: f32) {
        let n = x.len();
        let va = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= len.
            unsafe {
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_mul_ps(vx, va));
            }
            i += 8;
        }
        while i < n {
            x[i] *= alpha;
            i += 1;
        }
    }

    /// `x /= d`, 8 lanes at a time (the softmax normalizing divide; IEEE
    /// division is a per-element operation, so lane order is irrelevant).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn div_by(x: &mut [f32], d: f32) {
        let n = x.len();
        let vd = _mm256_set1_ps(d);
        let mut i = 0;
        while i + 8 <= n {
            // SAFETY: i + 8 <= len.
            unsafe {
                let vx = _mm256_loadu_ps(x.as_ptr().add(i));
                _mm256_storeu_ps(x.as_mut_ptr().add(i), _mm256_div_ps(vx, vd));
            }
            i += 8;
        }
        while i < n {
            x[i] /= d;
            i += 1;
        }
    }

    /// Widens 4 consecutive `f32`s starting at `p + i` to a `__m256d`.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `p + i .. p + i + 4` must be in bounds.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn load4_as_f64(p: *const f32, i: usize) -> std::arch::x86_64::__m256d {
        // SAFETY: caller guarantees the 4-element window is in bounds.
        unsafe { _mm256_cvtps_pd(_mm_loadu_ps(p.add(i))) }
    }

    /// `acc += x` with per-element `f64` accumulation, 4 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn acc_add(acc: &mut [f64], x: &[f32]) {
        let n = acc.len();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for both slices.
            unsafe {
                let vx = load4_as_f64(x.as_ptr(), i);
                let va = _mm256_loadu_pd(acc.as_ptr().add(i));
                _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_add_pd(va, vx));
            }
            i += 4;
        }
        while i < n {
            acc[i] += x[i] as f64;
            i += 1;
        }
    }

    /// `acc += w · x` with the product in `f64`, 4 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn acc_scaled(acc: &mut [f64], x: &[f32], w: f64) {
        let n = acc.len();
        let vw = _mm256_set1_pd(w);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for both slices.
            unsafe {
                let vx = load4_as_f64(x.as_ptr(), i);
                let va = _mm256_loadu_pd(acc.as_ptr().add(i));
                _mm256_storeu_pd(
                    acc.as_mut_ptr().add(i),
                    _mm256_add_pd(va, _mm256_mul_pd(vw, vx)),
                );
            }
            i += 4;
        }
        while i < n {
            acc[i] += w * x[i] as f64;
            i += 1;
        }
    }

    /// `acc += (x · s)` with the product rounded to `f32` *before* widening,
    /// 4 lanes at a time.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn acc_scaled_f32(acc: &mut [f64], x: &[f32], s: f32) {
        let n = acc.len();
        let vs = _mm_set1_ps(s);
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for both slices.
            unsafe {
                let prod = _mm_mul_ps(_mm_loadu_ps(x.as_ptr().add(i)), vs);
                let vx = _mm256_cvtps_pd(prod);
                let va = _mm256_loadu_pd(acc.as_ptr().add(i));
                _mm256_storeu_pd(acc.as_mut_ptr().add(i), _mm256_add_pd(va, vx));
            }
            i += 4;
        }
        while i < n {
            acc[i] += (x[i] * s) as f64;
            i += 1;
        }
    }

    /// Horizontal combine matching the blocked tier's fixed tree
    /// `((s0 + s1) + (s2 + s3)) + tail`, lane `i` being chain `i`.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn combine4(acc: std::arch::x86_64::__m256d, tail: f64) -> f64 {
        let mut s = [0.0f64; 4];
        // SAFETY: `s` is a 4-element f64 array.
        unsafe { _mm256_storeu_pd(s.as_mut_ptr(), acc) };
        ((s[0] + s[1]) + (s[2] + s[3])) + tail
    }

    /// Dot product; the accumulator's four lanes are the blocked tier's
    /// four chains.
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for both slices.
            unsafe {
                let va = load4_as_f64(a.as_ptr(), i);
                let vb = load4_as_f64(b.as_ptr(), i);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(va, vb));
            }
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < n {
            tail += a[i] as f64 * b[i] as f64;
            i += 1;
        }
        // SAFETY: AVX2 (caller contract).
        unsafe { combine4(acc, tail) }
    }

    /// Squared l2 norm (lane-mapped 4-chain reduction).
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_norm(a: &[f32]) -> f64 {
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len.
            unsafe {
                let va = load4_as_f64(a.as_ptr(), i);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(va, va));
            }
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < n {
            tail += a[i] as f64 * a[i] as f64;
            i += 1;
        }
        // SAFETY: AVX2 (caller contract).
        unsafe { combine4(acc, tail) }
    }

    /// Squared l2 distance (lane-mapped 4-chain reduction).
    ///
    /// # Safety
    ///
    /// Requires AVX2. Slices must share a length.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_distance(a: &[f32], b: &[f32]) -> f64 {
        use std::arch::x86_64::_mm256_sub_pd;
        let n = a.len();
        let mut acc = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for both slices.
            unsafe {
                let va = load4_as_f64(a.as_ptr(), i);
                let vb = load4_as_f64(b.as_ptr(), i);
                let d = _mm256_sub_pd(va, vb);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(d, d));
            }
            i += 4;
        }
        let mut tail = 0.0f64;
        while i < n {
            let d = a[i] as f64 - b[i] as f64;
            tail += d * d;
            i += 1;
        }
        // SAFETY: AVX2 (caller contract).
        unsafe { combine4(acc, tail) }
    }

    /// Four squared l2 distances from one anchor `a` to `b[0..4]`, computed
    /// in one interleaved sweep with four independent accumulators. Each
    /// accumulator executes exactly the operation sequence of
    /// [`sq_l2_distance`] for its pair (same widening loads, same
    /// subtract/multiply/add order, same tail, same combine tree), so every
    /// returned distance is bitwise identical to the one-pair kernel. The
    /// interleave exists purely for instruction-level parallelism: the
    /// one-accumulator loop is bound by the 4-cycle `f64` add latency, and
    /// four independent chains hide it.
    ///
    /// # Safety
    ///
    /// Requires AVX2. All five slices must share a length (the safe wrapper
    /// asserts it).
    #[target_feature(enable = "avx2")]
    pub unsafe fn sq_l2_distance4(a: &[f32], b: [&[f32]; 4]) -> [f64; 4] {
        use std::arch::x86_64::_mm256_sub_pd;
        let n = a.len();
        let mut acc0 = _mm256_setzero_pd();
        let mut acc1 = _mm256_setzero_pd();
        let mut acc2 = _mm256_setzero_pd();
        let mut acc3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 4 <= n {
            // SAFETY: i + 4 <= len for all five slices.
            unsafe {
                let va = load4_as_f64(a.as_ptr(), i);
                let d0 = _mm256_sub_pd(va, load4_as_f64(b[0].as_ptr(), i));
                acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
                let d1 = _mm256_sub_pd(va, load4_as_f64(b[1].as_ptr(), i));
                acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
                let d2 = _mm256_sub_pd(va, load4_as_f64(b[2].as_ptr(), i));
                acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
                let d3 = _mm256_sub_pd(va, load4_as_f64(b[3].as_ptr(), i));
                acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
            }
            i += 4;
        }
        let mut tails = [0.0f64; 4];
        while i < n {
            let av = a[i] as f64;
            for (t, bj) in tails.iter_mut().zip(&b) {
                let d = av - bj[i] as f64;
                *t += d * d;
            }
            i += 1;
        }
        // SAFETY: AVX2 (caller contract).
        unsafe {
            [
                combine4(acc0, tails[0]),
                combine4(acc1, tails[1]),
                combine4(acc2, tails[2]),
                combine4(acc3, tails[3]),
            ]
        }
    }

    /// Shared tiled gemm core, identical loop structure to the blocked
    /// tier's (`C += A · P`, `P` delivered tile-by-tile by `pack_tile`),
    /// with the 8-lane microkernels in the inner loop.
    ///
    /// # Safety
    ///
    /// Requires AVX2. `C` must be zeroed by the caller; slice shapes are the
    /// caller's responsibility (the public wrappers assert them).
    #[target_feature(enable = "avx2")]
    pub unsafe fn gemm_tiled<F>(
        a: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        mut pack_tile: F,
    ) where
        F: FnMut(&mut [f32], usize, usize, usize, usize),
    {
        PACK.with(|p| {
            let mut pack = p.borrow_mut();
            pack.resize(KC * NC, 0.0);
            for jc in (0..n).step_by(NC) {
                let ncb = NC.min(n - jc);
                for kc in (0..k).step_by(KC) {
                    let kcb = KC.min(k - kc);
                    pack_tile(&mut pack, kc, kcb, jc, ncb);
                    for i in 0..m {
                        let arow = &a[i * k + kc..i * k + kc + kcb];
                        let crow = &mut c[i * n + jc..i * n + jc + ncb];
                        let mut t = 0;
                        while t + 4 <= kcb {
                            let rows = &pack[t * ncb..(t + 4) * ncb];
                            let (x0, rest) = rows.split_at(ncb);
                            let (x1, rest) = rest.split_at(ncb);
                            let (x2, x3) = rest.split_at(ncb);
                            // SAFETY: AVX2 (caller contract); equal lengths
                            // by construction.
                            unsafe {
                                axpy4(
                                    crow,
                                    [arow[t], arow[t + 1], arow[t + 2], arow[t + 3]],
                                    x0,
                                    x1,
                                    x2,
                                    x3,
                                );
                            }
                            t += 4;
                        }
                        while t < kcb {
                            // SAFETY: as above.
                            unsafe { axpy(crow, arow[t], &pack[t * ncb..(t + 1) * ncb]) };
                            t += 1;
                        }
                    }
                }
            }
        });
    }

    /// `C += Aᵀ · B`, column-blocked rank-1 updates — the blocked tier's
    /// loop with the 8-lane microkernels.
    ///
    /// # Safety
    ///
    /// Requires AVX2; slice shapes are asserted by the public wrapper.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_transa_acc(
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        p: usize,
        q: usize,
    ) {
        for qc in (0..q).step_by(NC) {
            let qcb = NC.min(q - qc);
            let mut t = 0;
            while t + 4 <= m {
                let b0 = &b[t * q + qc..t * q + qc + qcb];
                let b1 = &b[(t + 1) * q + qc..(t + 1) * q + qc + qcb];
                let b2 = &b[(t + 2) * q + qc..(t + 2) * q + qc + qcb];
                let b3 = &b[(t + 3) * q + qc..(t + 3) * q + qc + qcb];
                for i in 0..p {
                    let al = [
                        a[t * p + i],
                        a[(t + 1) * p + i],
                        a[(t + 2) * p + i],
                        a[(t + 3) * p + i],
                    ];
                    // SAFETY: AVX2 (caller contract); equal lengths by
                    // construction.
                    unsafe {
                        axpy4(&mut c[i * q + qc..i * q + qc + qcb], al, b0, b1, b2, b3);
                    }
                }
                t += 4;
            }
            while t < m {
                let brow = &b[t * q + qc..t * q + qc + qcb];
                for i in 0..p {
                    let av = a[t * p + i];
                    // SAFETY: as above.
                    unsafe { axpy(&mut c[i * q + qc..i * q + qc + qcb], av, brow) };
                }
                t += 1;
            }
        }
    }
}
