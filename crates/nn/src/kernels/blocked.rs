//! Cache-blocked, unrolled implementations of the hot-path primitives.
//!
//! # Blocking scheme
//!
//! The matmul family uses a two-level GotoBLAS-style decomposition: the
//! `B` operand is packed one `KC × NC` tile at a time into a contiguous
//! thread-local scratch buffer (transposing on the fly for `matmul_transb`,
//! whose `B` arrives as `[n, k]` — "transposed-B packing"), and the
//! microkernel streams the packed rows through a 4-deep fused axpy into the
//! `C` row (four `k` steps per load/store of `C`, left-associated so the
//! per-element order matches four sequential axpys exactly). `KC × NC × 4`
//! bytes ≈ 128 KiB keeps the packed tile L2-resident while `C`/`A` rows
//! stream through L1.
//!
//! # Reduction-order guarantees
//!
//! Every `f32` output element of the matmul family is produced by a single
//! accumulator visiting `k` in ascending order — exactly the order of the
//! naive triple loop in [`super::reference`] — so the blocked kernels are
//! **bitwise identical** to the reference, not merely close. The same holds
//! for all element-wise ops.
//!
//! The only functions allowed to reassociate are the `f64` reductions
//! `dot` / `sq_l2_norm` / `sq_l2_distance` (and `pairwise_sq_distances` on
//! top of them), which run four independent accumulator chains for
//! instruction-level parallelism and combine them as
//! `((s0 + s1) + (s2 + s3)) + tail`. The combine tree is fixed, so results
//! are deterministic run-to-run; they differ from the reference by at most
//! a few `f64` ulps (see `tests/kernel_equivalence.rs` for the tolerance
//! policy).

use std::cell::RefCell;

/// Depth (`k`) tile of the packed `B` panel.
const KC: usize = 128;
/// Column (`n`) tile of the packed `B` panel.
const NC: usize = 256;

thread_local! {
    /// Scratch buffer for packed `B` tiles (at most `KC * NC` floats).
    static PACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Fused 4-step axpy: `y = (((y + a0·x0) + a1·x1) + a2·x2) + a3·x3`,
/// element-wise with that exact left-associated order — bitwise identical
/// to four sequential [`axpy_unrolled`] calls, but with one load/store of
/// `y` instead of four. Slices must share a length (private microkernel;
/// callers guarantee it).
#[inline(always)]
fn axpy4_unrolled(y: &mut [f32], al: [f32; 4], x0: &[f32], x1: &[f32], x2: &[f32], x3: &[f32]) {
    for ((((yv, &v0), &v1), &v2), &v3) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        let mut s = *yv;
        s += al[0] * v0;
        s += al[1] * v1;
        s += al[2] * v2;
        s += al[3] * v3;
        *yv = s;
    }
}

/// 8-wide unrolled `y += alpha * x` over equal-length slices (no length
/// check; private microkernel).
#[inline(always)]
fn axpy_unrolled(y: &mut [f32], alpha: f32, x: &[f32]) {
    let mut yc = y.chunks_exact_mut(8);
    let mut xc = x.chunks_exact(8);
    for (yv, xv) in (&mut yc).zip(&mut xc) {
        yv[0] += alpha * xv[0];
        yv[1] += alpha * xv[1];
        yv[2] += alpha * xv[2];
        yv[3] += alpha * xv[3];
        yv[4] += alpha * xv[4];
        yv[5] += alpha * xv[5];
        yv[6] += alpha * xv[6];
        yv[7] += alpha * xv[7];
    }
    for (yv, &xv) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yv += alpha * xv;
    }
}

/// Shared tiled core: `C += A · P` where `P` is the `[k, n]` operand
/// delivered tile-by-tile through `pack_tile(scratch, kc, kcb, jc, ncb)`,
/// which must write the `kcb × ncb` tile row-major into `scratch`.
///
/// `C` must be zeroed by the caller; per output element the `k` dimension
/// is visited in ascending order (`jc` fixed per element, `kc` ascending,
/// rows within a tile ascending).
fn gemm_tiled<F>(a: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, mut pack_tile: F)
where
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
                    // Four packed rows per pass (`axpy4_unrolled` keeps the
                    // per-element order of four sequential axpys), then the
                    // `kcb % 4` stragglers one at a time.
                    let mut t = 0;
                    while t + 4 <= kcb {
                        let rows = &pack[t * ncb..(t + 4) * ncb];
                        let (x0, rest) = rows.split_at(ncb);
                        let (x1, rest) = rest.split_at(ncb);
                        let (x2, x3) = rest.split_at(ncb);
                        axpy4_unrolled(
                            crow,
                            [arow[t], arow[t + 1], arow[t + 2], arow[t + 3]],
                            x0,
                            x1,
                            x2,
                            x3,
                        );
                        t += 4;
                    }
                    while t < kcb {
                        axpy_unrolled(crow, arow[t], &pack[t * ncb..(t + 1) * ncb]);
                        t += 1;
                    }
                }
            }
        }
    });
}

/// `C = A · B` (`A: [m, k]`, `B: [k, n]`, `C: [m, n]`), cache-blocked with
/// row-panel packing of `B`. Bitwise identical to
/// [`super::reference::matmul`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: A length");
    assert_eq!(b.len(), k * n, "matmul: B length");
    assert_eq!(c.len(), m * n, "matmul: C length");
    c.fill(0.0);
    gemm_tiled(a, c, m, k, n, |pack, kc, kcb, jc, ncb| {
        for t in 0..kcb {
            let src = &b[(kc + t) * n + jc..(kc + t) * n + jc + ncb];
            pack[t * ncb..(t + 1) * ncb].copy_from_slice(src);
        }
    });
}

/// `C = A · Bᵀ` with `bt: [n, k]` row-major, cache-blocked with
/// transposed-`B` packing (each tile of `bt` is transposed into `[k, n]`
/// panel layout while packing). Bitwise identical to
/// [`super::reference::matmul_transb`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transb(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_transb: A length");
    assert_eq!(bt.len(), n * k, "matmul_transb: Bt length");
    assert_eq!(c.len(), m * n, "matmul_transb: C length");
    c.fill(0.0);
    gemm_tiled(a, c, m, k, n, |pack, kc, kcb, jc, ncb| {
        for j in 0..ncb {
            let src = &bt[(jc + j) * k + kc..(jc + j) * k + kc + kcb];
            for (t, &v) in src.iter().enumerate() {
                pack[t * ncb + j] = v;
            }
        }
    });
}

/// `C += Aᵀ · B` (`A: [m, p]`, `B: [m, q]`, `C: [p, q]`), column-blocked
/// rank-1 updates. Bitwise identical to
/// [`super::reference::matmul_transa_acc`].
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transa_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, p: usize, q: usize) {
    assert_eq!(a.len(), m * p, "matmul_transa_acc: A length");
    assert_eq!(b.len(), m * q, "matmul_transa_acc: B length");
    assert_eq!(c.len(), p * q, "matmul_transa_acc: C length");
    for qc in (0..q).step_by(NC) {
        let qcb = NC.min(q - qc);
        // Four batch rows per pass: each `C` element still accumulates its
        // batch contributions in ascending order (`axpy4_unrolled` is
        // bitwise identical to four sequential rank-1 updates).
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
                axpy4_unrolled(&mut c[i * q + qc..i * q + qc + qcb], al, b0, b1, b2, b3);
            }
            t += 4;
        }
        while t < m {
            let brow = &b[t * q + qc..t * q + qc + qcb];
            for i in 0..p {
                let av = a[t * p + i];
                axpy_unrolled(&mut c[i * q + qc..i * q + qc + qcb], av, brow);
            }
            t += 1;
        }
    }
}

/// `y += alpha · x`, 8-wide unrolled. Element-wise, so bitwise identical to
/// [`super::reference::axpy`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    axpy_unrolled(y, alpha, x);
}

/// `x *= alpha`, element-wise (bitwise identical to the reference).
pub fn scale(x: &mut [f32], alpha: f32) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// `acc += x` with per-element `f64` accumulation, 4-wide unrolled.
/// Element-wise (each coordinate has its own accumulator), so bitwise
/// identical to [`super::reference::acc_add`].
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_add(acc: &mut [f64], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "acc_add: length mismatch");
    let mut ac = acc.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (av, xv) in (&mut ac).zip(&mut xc) {
        av[0] += xv[0] as f64;
        av[1] += xv[1] as f64;
        av[2] += xv[2] as f64;
        av[3] += xv[3] as f64;
    }
    for (a, &v) in ac.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += v as f64;
    }
}

/// `acc += w · x` in `f64`, 4-wide unrolled (bitwise identical to the
/// reference — element-wise).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled(acc: &mut [f64], x: &[f32], w: f64) {
    assert_eq!(acc.len(), x.len(), "acc_scaled: length mismatch");
    let mut ac = acc.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (av, xv) in (&mut ac).zip(&mut xc) {
        av[0] += w * xv[0] as f64;
        av[1] += w * xv[1] as f64;
        av[2] += w * xv[2] as f64;
        av[3] += w * xv[3] as f64;
    }
    for (a, &v) in ac.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += w * v as f64;
    }
}

/// `acc += (x · s)` with the product rounded to `f32` first (bitwise
/// identical to the reference — element-wise).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled_f32(acc: &mut [f64], x: &[f32], s: f32) {
    assert_eq!(acc.len(), x.len(), "acc_scaled_f32: length mismatch");
    let mut ac = acc.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (av, xv) in (&mut ac).zip(&mut xc) {
        av[0] += (xv[0] * s) as f64;
        av[1] += (xv[1] * s) as f64;
        av[2] += (xv[2] * s) as f64;
        av[3] += (xv[3] * s) as f64;
    }
    for (a, &v) in ac.into_remainder().iter_mut().zip(xc.remainder()) {
        *a += (v * s) as f64;
    }
}

/// Combines four partial `f64` sums and a tail with the fixed tree
/// `((s0 + s1) + (s2 + s3)) + tail`.
#[inline(always)]
fn combine4(s: [f64; 4], tail: f64) -> f64 {
    ((s[0] + s[1]) + (s[2] + s[3])) + tail
}

/// Dot product with four independent `f64` accumulator chains
/// (reassociated reduction — within a few ulps of the reference).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut s = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (xa, xb) in (&mut ac).zip(&mut bc) {
        s[0] += xa[0] as f64 * xb[0] as f64;
        s[1] += xa[1] as f64 * xb[1] as f64;
        s[2] += xa[2] as f64 * xb[2] as f64;
        s[3] += xa[3] as f64 * xb[3] as f64;
    }
    let mut tail = 0.0f64;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x as f64 * y as f64;
    }
    combine4(s, tail)
}

/// Squared l2 norm with four accumulator chains (reassociated reduction).
pub fn sq_l2_norm(a: &[f32]) -> f64 {
    let mut s = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    for xa in &mut ac {
        s[0] += xa[0] as f64 * xa[0] as f64;
        s[1] += xa[1] as f64 * xa[1] as f64;
        s[2] += xa[2] as f64 * xa[2] as f64;
        s[3] += xa[3] as f64 * xa[3] as f64;
    }
    let mut tail = 0.0f64;
    for &x in ac.remainder() {
        tail += x as f64 * x as f64;
    }
    combine4(s, tail)
}

/// Squared l2 distance with four accumulator chains (reassociated
/// reduction). Exactly symmetric: `sq_l2_distance(a, b) ==
/// sq_l2_distance(b, a)` bitwise, since `(x − y)² == (y − x)²`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_l2_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_l2_distance: length mismatch");
    let mut s = [0.0f64; 4];
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    for (xa, xb) in (&mut ac).zip(&mut bc) {
        let d0 = xa[0] as f64 - xb[0] as f64;
        let d1 = xa[1] as f64 - xb[1] as f64;
        let d2 = xa[2] as f64 - xb[2] as f64;
        let d3 = xa[3] as f64 - xb[3] as f64;
        s[0] += d0 * d0;
        s[1] += d1 * d1;
        s[2] += d2 * d2;
        s[3] += d3 * d3;
    }
    let mut tail = 0.0f64;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        let d = x as f64 - y as f64;
        tail += d * d;
    }
    combine4(s, tail)
}

/// Pairwise squared l2 distances as an `n × n` matrix: the upper rows of
/// [`pairwise_sq_distances_upper_row_into`], then mirrored, so each
/// unordered pair is computed **once**.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn pairwise_sq_distances(vectors: &[&[f32]]) -> Vec<f64> {
    super::pairwise_from_upper_rows(vectors, pairwise_sq_distances_upper_row_into)
}

/// The upper part of row `i` of [`pairwise_sq_distances`]: writes
/// `row[j] = ‖v_i − v_j‖²` for every `j > i` and leaves `row[..=i]`
/// untouched. Rows are independent, so they can be computed on any thread
/// in any order and mirrored afterwards.
///
/// # Panics
///
/// Panics if `row.len() != vectors.len()` or the vectors have different
/// lengths.
pub fn pairwise_sq_distances_upper_row_into(vectors: &[&[f32]], i: usize, row: &mut [f64]) {
    assert_eq!(row.len(), vectors.len(), "pairwise row: length mismatch");
    for (slot, v) in row[i + 1..].iter_mut().zip(&vectors[i + 1..]) {
        *slot = sq_l2_distance(vectors[i], v);
    }
}

/// In-place row softmax — identical pass structure to the reference (the
/// max-subtract / exp / divide sequence has no reassociation freedom
/// without changing results, so the fusion win lives in
/// [`softmax_xent`], which avoids materializing a separate probability
/// tensor).
///
/// # Panics
///
/// Panics if `data.len() != n * k`.
pub fn softmax_rows(data: &mut [f32], n: usize, k: usize) {
    assert_eq!(data.len(), n * k, "softmax_rows: shape mismatch");
    for i in 0..n {
        let row = &mut data[i * k..(i + 1) * k];
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Fused softmax + cross-entropy: one pass per row computes the
/// max-subtracted exponentials **once**, normalizes them in place in
/// `grad`, and immediately derives the loss term, the argmax and the
/// one-hot-subtracted, `1/n`-scaled gradient — no intermediate probability
/// tensor, no second sweep over the batch. Every per-element operation
/// (exp, divide, subtract, scale) matches the reference's, so the output
/// is bitwise identical.
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
        for g in grow.iter_mut() {
            *g /= sum;
        }
        loss += -(grow[y].max(1e-12) as f64).ln();
        if crate::loss::argmax(grow) == y {
            correct += 1;
        }
        grow[y] -= 1.0;
        for g in grow.iter_mut() {
            *g *= inv_n;
        }
    }
    (loss, correct)
}
