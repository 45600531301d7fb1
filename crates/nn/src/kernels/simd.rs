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
//! * Element-wise ops (`axpy`, `scale`, the `acc_*` accumulators, the
//!   softmax divides): each vector lane is an independent per-element
//!   chain, so an 8-lane `f32` (or 4-lane `f64`) step performs exactly the
//!   scalar per-element sequence. No FMA is used anywhere — the blocked
//!   kernels round after every multiply, and a fused multiply-add would
//!   change that rounding.
//! * `dot` / `sq_l2_norm` / `sq_l2_distance`: the blocked kernels already
//!   run four independent `f64` accumulator chains over `chunks_exact(4)`.
//!   The four lanes of one `__m256d` accumulator *are* those four chains —
//!   lane `i` sees exactly the elements chain `i` saw, in the same order —
//!   and the final horizontal combine uses the same fixed
//!   `((s0 + s1) + (s2 + s3)) + tail` tree.
//! * Matmul family: one register-tiled microkernel. A 4 × 16 tile of `C`
//!   lives in eight `__m256` accumulators for the whole reduction; each `k`
//!   step loads two vectors of the `B` row, broadcasts one `A` value per
//!   tile row, and does a separate multiply and add per accumulator.
//!   `matmul` and `matmul_transa_acc` read `B` in place when its row length
//!   is a multiple of 8, and otherwise from a zero-padded copy;
//!   `matmul_transb` transposes its `[n, k]` weight once per call into a
//!   zero-padded `k × round_up(n, 8)` panel with 8×8 AVX transposes.
//!   Edge tiles run on a stack copy, and padded lanes are never stored.
//!   Bitwise equality holds per output element: it keeps one `f32`
//!   accumulator that starts at `+0.0` (or at the existing `C` value for
//!   `matmul_transa_acc`) and adds the separately rounded products in
//!   ascending `k` — the blocked and reference tiers' sequence, whatever
//!   the tiling.
//! * `softmax_rows` / `softmax_xent`: the max fold, `exp` and the running
//!   `f32` sum stay scalar (vectorizing the sum would reassociate it; `exp`
//!   must be the libm call the other tiers use); only the per-element
//!   normalizing divide and `1/n` scale are vectorized.
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

/// `C = A · B` (`A: [m, k]`, `B: [k, n]`, `C: [m, n]`) through the
/// register-tiled microkernel, reading `B` in place when `n` is a multiple
/// of 8 and from a zero-padded copy otherwise. Bitwise identical to
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
        x86::with_padded_rows(b, k, n, |b, ldb| {
            // SAFETY: AVX2 availability checked by `supported()` above;
            // `A[r, t] = a[r * k + t]` over the asserted `m × k` shape, and
            // `with_padded_rows` hands over `k` rows of stride `ldb`.
            unsafe { x86::gemm(a, k, 1, b, ldb, c, m, k, n) }
        });
        return;
    }
    blocked::matmul(a, b, c, m, k, n)
}

/// `C = A · Bᵀ` with `bt: [n, k]` row-major: `bt` is transposed once per
/// call into a zero-padded `k × round_up(n, 8)` panel (8×8 AVX transposes),
/// then multiplied like [`matmul`]. Bitwise identical to
/// [`super::blocked::matmul_transb`].
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
        let ldb = n.next_multiple_of(8);
        x86::with_panel(k * ldb, |panel| {
            // SAFETY: AVX2 availability checked by `supported()` above;
            // `bt` is the asserted `n × k` and `panel` is `k × ldb` with
            // `ldb >= n`, which `pack_transposed` asserts again; then `A`
            // is the asserted `m × k` and the panel holds `k` rows of
            // stride `ldb`.
            unsafe {
                x86::pack_transposed(bt, n, k, panel, ldb);
                x86::gemm(a, k, 1, panel, ldb, c, m, k, n);
            }
        });
        return;
    }
    blocked::matmul_transb(a, bt, c, m, k, n)
}

/// `C += Aᵀ · B` (`A: [m, p]`, `B: [m, q]`, `C: [p, q]`): each register
/// tile of `C` is loaded once, accumulates all `m` batch rows, and is
/// stored once. Bitwise identical to
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
        x86::with_padded_rows(b, m, q, |b, ldb| {
            // SAFETY: AVX2 availability checked by `supported()` above;
            // `Aᵀ[i, t] = a[t * p + i]` over the asserted `m × p` shape, and
            // `with_padded_rows` hands over `m` rows of stride `ldb`.
            unsafe { x86::gemm(a, 1, p, b, ldb, c, p, m, q) }
        });
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
        __m256, _mm256_add_pd, _mm256_add_ps, _mm256_broadcast_ss, _mm256_cvtps_pd, _mm256_div_ps,
        _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_mul_ps, _mm256_permute2f128_ps,
        _mm256_set1_pd, _mm256_set1_ps, _mm256_setzero_pd, _mm256_setzero_ps, _mm256_shuffle_ps,
        _mm256_storeu_pd, _mm256_storeu_ps, _mm256_unpackhi_ps, _mm256_unpacklo_ps, _mm_loadu_ps,
        _mm_mul_ps, _mm_set1_ps,
    };
    use std::cell::RefCell;

    /// Rows of the register tile of `C`.
    const MR: usize = 4;
    /// Columns of the register tile of `C`: two 8-lane vectors, so a full
    /// tile is `MR × 2 = 8` `__m256` accumulators.
    const NR: usize = 16;

    thread_local! {
        /// The zero-padded `B` panel of the calls that cannot read `B` in
        /// place (`k × round_up(n, 8)` floats; 27 KiB at the MLP's
        /// 144 → 48 layer). Separate from the blocked tier's buffer so
        /// mixed-tier processes never fight over one.
        static PANEL: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    }

    /// Runs `f` on this thread's panel, grown to at least `len` floats
    /// (it never shrinks, so steady-state calls do not allocate).
    pub fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
        PANEL.with(|p| {
            let mut panel = p.borrow_mut();
            if panel.len() < len {
                panel.resize(len, 0.0);
            }
            f(&mut panel[..len])
        })
    }

    /// Runs `f(b, ldb)` with `b: [rows, n]` laid out as the microkernel
    /// reads it, `rows` rows of stride `ldb = round_up(n, 8)`: `b` itself
    /// when `n` is a multiple of 8, otherwise a copy in the panel with
    /// columns `n..ldb` zeroed.
    pub fn with_padded_rows<R>(
        b: &[f32],
        rows: usize,
        n: usize,
        f: impl FnOnce(&[f32], usize) -> R,
    ) -> R {
        assert_eq!(b.len(), rows * n, "padded rows: B length");
        if n.is_multiple_of(8) {
            return f(b, n);
        }
        let ldb = n.next_multiple_of(8);
        with_panel(rows * ldb, |panel| {
            for (dst, src) in panel.chunks_exact_mut(ldb).zip(b.chunks_exact(n)) {
                dst[..n].copy_from_slice(src);
                dst[n..].fill(0.0);
            }
            f(panel, ldb)
        })
    }

    /// Transposes `bt: [n, k]` into `panel: [k, ldb]` and zeroes columns
    /// `n..ldb`. Whole 8×8 blocks go through [`transpose8x8`], the `k % 8`
    /// tail and the last `n % 8` rows of `bt` element by element.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    ///
    /// # Panics
    ///
    /// Panics unless `bt.len() == n * k`, `panel.len() == k * ldb` and
    /// `ldb >= n`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn pack_transposed(bt: &[f32], n: usize, k: usize, panel: &mut [f32], ldb: usize) {
        assert_eq!(bt.len(), n * k, "pack_transposed: Bt length");
        assert_eq!(panel.len(), k * ldb, "pack_transposed: panel length");
        assert!(ldb >= n, "pack_transposed: panel narrower than B");
        let (n8, k8) = (n - n % 8, k - k % 8);
        for j in (0..n8).step_by(8) {
            for t in (0..k8).step_by(8) {
                // SAFETY: AVX2 (caller contract). Source rows `j..j + 8 <= n`
                // of `bt` at columns `t..t + 8 <= k`, and destination rows
                // `t..t + 8 <= k` of `panel` at columns `j..j + 8 <= ldb`,
                // are in bounds by the asserted lengths.
                unsafe {
                    transpose8x8(
                        bt.as_ptr().add(j * k + t),
                        k,
                        panel.as_mut_ptr().add(t * ldb + j),
                        ldb,
                    );
                }
            }
            for t in k8..k {
                for jj in j..j + 8 {
                    panel[t * ldb + jj] = bt[jj * k + t];
                }
            }
        }
        for (t, row) in panel.chunks_exact_mut(ldb).enumerate() {
            for (jj, v) in row.iter_mut().enumerate().skip(n8) {
                *v = if jj < n { bt[jj * k + t] } else { 0.0 };
            }
        }
    }

    /// Copies the 8×8 block at `src` (row stride `lds`) transposed to `dst`
    /// (row stride `ldd`): unpack pairs, shuffle quads, swap 128-bit halves.
    /// Pure data movement, so every value keeps its bits.
    ///
    /// # Safety
    ///
    /// Requires AVX2; the eight 8-float rows at `src + r * lds` and
    /// `dst + r * ldd` must be in bounds.
    #[target_feature(enable = "avx2")]
    unsafe fn transpose8x8(src: *const f32, lds: usize, dst: *mut f32, ldd: usize) {
        // SAFETY: the caller guarantees the eight source rows.
        let r: [__m256; 8] = unsafe {
            [
                _mm256_loadu_ps(src),
                _mm256_loadu_ps(src.add(lds)),
                _mm256_loadu_ps(src.add(2 * lds)),
                _mm256_loadu_ps(src.add(3 * lds)),
                _mm256_loadu_ps(src.add(4 * lds)),
                _mm256_loadu_ps(src.add(5 * lds)),
                _mm256_loadu_ps(src.add(6 * lds)),
                _mm256_loadu_ps(src.add(7 * lds)),
            ]
        };
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        let cols = [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ];
        for (i, col) in cols.into_iter().enumerate() {
            // SAFETY: the caller guarantees the eight destination rows.
            unsafe { _mm256_storeu_ps(dst.add(i * ldd), col) };
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

    /// `C += Â · B` over an `m × n` row-major `C`, where `Â[r, t] =
    /// a[r * a_row + t * a_step]` (`a_row = k, a_step = 1` for `A` itself,
    /// `a_row = 1, a_step = p` for `Aᵀ`) and `B` is `k` rows of stride
    /// `ldb >= round_up(n, 8)`, zero-padded past column `n`.
    ///
    /// `C` is swept in `MR × NR` register tiles, column stripe by column
    /// stripe, so a `k × NR` stripe of `B` stays in L1 across the row tiles.
    /// Every output element keeps one `f32` accumulator: it is loaded from
    /// `C` (zeroed by the `C = …` callers), adds the separately rounded
    /// products `Â[r, t] · B[t, j]` for `t` ascending with no FMA, and is
    /// stored once — the operation sequence of the blocked and reference
    /// tiers. Padded lanes are computed but never stored.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    ///
    /// # Panics
    ///
    /// Panics unless `c.len() == m * n`, every `Â[r, t]` (`r < m`, `t < k`)
    /// is in `a`, `ldb >= round_up(n, 8)` and `b` holds `k` such rows.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn gemm(
        a: &[f32],
        a_row: usize,
        a_step: usize,
        b: &[f32],
        ldb: usize,
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(c.len(), m * n, "gemm: C length");
        if m == 0 || n == 0 || k == 0 {
            return;
        }
        assert!(
            (m - 1) * a_row + (k - 1) * a_step < a.len(),
            "gemm: A length"
        );
        let n_pad = n.next_multiple_of(8);
        assert!(ldb >= n_pad, "gemm: B row stride");
        assert!((k - 1) * ldb + n_pad <= b.len(), "gemm: B length");
        for j in (0..n).step_by(NR) {
            let w = NR.min(n - j);
            for i in (0..m).step_by(MR) {
                let h = MR.min(m - i);
                let t = Tile {
                    a: a[i * a_row..].as_ptr(),
                    a_row,
                    a_step,
                    b: b[j..].as_ptr(),
                    ldb,
                    k,
                };
                let c = &mut c[i * n + j..];
                // SAFETY: AVX2 (caller contract). Rows `i..i + h <= m` of
                // `Â` are in `a` by the `A length` assert. The tile reads
                // `B` columns `j..j + 8 * w.div_ceil(8) <= n_pad`, inside
                // `k` rows of stride `ldb` by the `B` asserts. `run`
                // asserts its own `C` rows.
                unsafe {
                    match h {
                        4 => t.run::<4>(c, n, w),
                        3 => t.run::<3>(c, n, w),
                        2 => t.run::<2>(c, n, w),
                        _ => t.run::<1>(c, n, w),
                    }
                }
            }
        }
    }

    /// The operands of one register tile: `Â` from its first row, `B` from
    /// its first column, and the depth `k` (strides as in [`gemm`]).
    struct Tile {
        a: *const f32,
        a_row: usize,
        a_step: usize,
        b: *const f32,
        ldb: usize,
        k: usize,
    }

    impl Tile {
        /// Accumulates an `R × w` block of `C` (row stride `ldc`, `w <= NR`).
        /// Full-width blocks run in place; a narrower one runs on a copy in
        /// a stack tile, of which only the `w` valid columns are copied
        /// back.
        ///
        /// # Safety
        ///
        /// Requires AVX2; `R` rows of `Â` and `k` rows of `B` at
        /// `8 * w.div_ceil(8)` columns must be in bounds.
        ///
        /// # Panics
        ///
        /// Panics unless `c` holds `R` rows of `w <= NR` columns at stride
        /// `ldc`.
        #[target_feature(enable = "avx2")]
        unsafe fn run<const R: usize>(&self, c: &mut [f32], ldc: usize, w: usize) {
            assert!(w <= NR && (R - 1) * ldc + w <= c.len(), "gemm: C tile");
            let vecs = w.div_ceil(8);
            if w == 8 * vecs {
                let c = c.as_mut_ptr();
                // SAFETY: AVX2 and the `Â` / `B` bounds (caller contract);
                // the `C tile` assert puts `R` rows of `w = 8 * vecs`
                // columns at stride `ldc` inside `c`.
                unsafe {
                    if vecs == 2 {
                        self.accumulate::<R, 2>(c, ldc);
                    } else {
                        self.accumulate::<R, 1>(c, ldc);
                    }
                }
                return;
            }
            let mut buf = [[0.0f32; NR]; R];
            for (r, row) in buf.iter_mut().enumerate() {
                row[..w].copy_from_slice(&c[r * ldc..r * ldc + w]);
            }
            let p = buf.as_mut_ptr().cast::<f32>();
            // SAFETY: AVX2 and the `Â` / `B` bounds (caller contract); `buf`
            // is `R` rows of `NR >= 8 * vecs` floats at stride `NR`.
            unsafe {
                if vecs == 2 {
                    self.accumulate::<R, 2>(p, NR);
                } else {
                    self.accumulate::<R, 1>(p, NR);
                }
            }
            for (r, row) in buf.iter().enumerate() {
                c[r * ldc..r * ldc + w].copy_from_slice(&row[..w]);
            }
        }

        /// The microkernel: `R × V` accumulators loaded from `c`, `k` rank-1
        /// steps (`V` loads of the `B` row, one broadcast per `Â` row, then
        /// a separate multiply and add per accumulator), one store.
        ///
        /// # Safety
        ///
        /// Requires AVX2; `R` rows of `Â`, `k` rows of `8 * V` floats of
        /// `B`, and `R` rows of `8 * V` floats at `c` (stride `ldc`) must be
        /// in bounds.
        #[target_feature(enable = "avx2")]
        unsafe fn accumulate<const R: usize, const V: usize>(&self, c: *mut f32, ldc: usize) {
            let mut acc = [[_mm256_setzero_ps(); V]; R];
            for (r, row) in acc.iter_mut().enumerate() {
                for (v, x) in row.iter_mut().enumerate() {
                    // SAFETY: `R` rows of `8 * V` floats at `c` (caller).
                    *x = unsafe { _mm256_loadu_ps(c.add(r * ldc + 8 * v)) };
                }
            }
            let mut bv = [_mm256_setzero_ps(); V];
            for t in 0..self.k {
                for (v, x) in bv.iter_mut().enumerate() {
                    // SAFETY: row `t < k` of `B`, `8 * V` floats (caller).
                    *x = unsafe { _mm256_loadu_ps(self.b.add(t * self.ldb + 8 * v)) };
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    // SAFETY: `Â[r, t]` with `r < R`, `t < k` (caller).
                    let ar = unsafe {
                        _mm256_broadcast_ss(&*self.a.add(r * self.a_row + t * self.a_step))
                    };
                    for (x, &bx) in row.iter_mut().zip(&bv) {
                        *x = _mm256_add_ps(*x, _mm256_mul_ps(ar, bx));
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (v, &x) in row.iter().enumerate() {
                    // SAFETY: as for the loads above.
                    unsafe { _mm256_storeu_ps(c.add(r * ldc + 8 * v), x) };
                }
            }
        }
    }
}
