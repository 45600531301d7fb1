//! Naive reference implementations — the differential-testing oracle.
//!
//! Every function here is the textbook, single-accumulator, one-pass-at-a-
//! time formulation of the corresponding primitive in [`super::blocked`],
//! or, for the median and trimmed mean, of one column of a
//! [`super::SortingNetwork`].
//! They are deliberately unoptimized: their only job is to pin down the
//! *semantics* (including the exact floating-point reduction order where the
//! optimized kernel promises bitwise equality) so that
//! `tests/kernel_equivalence.rs` can hold the fast path to them forever.
//!
//! Compiled unconditionally; the `reference` cargo feature merely reroutes
//! the public dispatchers in [`super`] through this module.

/// `C = A · B` with `A: [m, k]`, `B: [k, n]`, `C: [m, n]`, all row-major.
/// Each output element is a single `f32` accumulator over ascending `k`.
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: A length");
    assert_eq!(b.len(), k * n, "matmul: B length");
    assert_eq!(c.len(), m * n, "matmul: C length");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += a[i * k + t] * b[t * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C = A · Bᵀ` with `A: [m, k]`, `Bᵀ` stored as `bt: [n, k]` row-major
/// (the layout of a [`Dense`](crate::layer::Dense) weight matrix).
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transb(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_transb: A length");
    assert_eq!(bt.len(), n * k, "matmul_transb: Bt length");
    assert_eq!(c.len(), m * n, "matmul_transb: C length");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for t in 0..k {
                acc += a[i * k + t] * bt[j * k + t];
            }
            c[i * n + j] = acc;
        }
    }
}

/// `C += Aᵀ · B` with `A: [m, p]`, `B: [m, q]`, `C: [p, q]` — the
/// weight-gradient accumulation `dW += Σ_batch gᵀ x`. Accumulates over
/// ascending `m` into the existing contents of `c`.
///
/// # Panics
///
/// Panics if any slice length mismatches its shape.
pub fn matmul_transa_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, p: usize, q: usize) {
    assert_eq!(a.len(), m * p, "matmul_transa_acc: A length");
    assert_eq!(b.len(), m * q, "matmul_transa_acc: B length");
    assert_eq!(c.len(), p * q, "matmul_transa_acc: C length");
    for t in 0..m {
        for i in 0..p {
            let av = a[t * p + i];
            for j in 0..q {
                c[i * q + j] += av * b[t * q + j];
            }
        }
    }
}

/// `y += alpha · x`, element-wise in `f32`.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy(y: &mut [f32], alpha: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy: length mismatch");
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv += alpha * xv;
    }
}

/// `x *= alpha`, element-wise.
pub fn scale(x: &mut [f32], alpha: f32) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// `acc += x` with per-element `f64` accumulation (the aggregation rules'
/// mean-delta sweep).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_add(acc: &mut [f64], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "acc_add: length mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += v as f64;
    }
}

/// `acc += w · x` with the product taken in `f64` (FLARE's trust-weighted
/// accumulation).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled(acc: &mut [f64], x: &[f32], w: f64) {
    assert_eq!(acc.len(), x.len(), "acc_scaled: length mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += w * v as f64;
    }
}

/// `acc += (x · s)` where the product is rounded to `f32` *before* widening
/// — exactly what accumulating a norm-clipped copy of `x` produces
/// (NormBound's clip-then-average sweep, without materializing the copy).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn acc_scaled_f32(acc: &mut [f64], x: &[f32], s: f32) {
    assert_eq!(acc.len(), x.len(), "acc_scaled_f32: length mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a += (v * s) as f64;
    }
}

/// Dot product with a single `f64` accumulator over ascending index.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        acc += x as f64 * y as f64;
    }
    acc
}

/// Squared l2 norm (`f64` accumulation).
pub fn sq_l2_norm(a: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in a {
        acc += x as f64 * x as f64;
    }
    acc
}

/// Squared l2 distance (`f64` accumulation of squared differences).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn sq_l2_distance(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len(), "sq_l2_distance: length mismatch");
    let mut acc = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        let d = x as f64 - y as f64;
        acc += d * d;
    }
    acc
}

/// Full `n × n` matrix of pairwise squared l2 distances (diagonal zero):
/// the upper rows, mirrored. [`sq_l2_distance`] is exactly symmetric, so
/// the mirror equals computing every ordered pair.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn pairwise_sq_distances(vectors: &[&[f32]]) -> Vec<f64> {
    super::pairwise_from_upper_rows(vectors, pairwise_sq_distances_upper_row_into)
}

/// The upper part of row `i` of [`pairwise_sq_distances`]: writes
/// `row[j] = ‖v_i − v_j‖²` for every `j > i`, leaving `row[..=i]`
/// untouched.
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

/// α-trimmed mean of `buf`: full sort, drop the lowest and highest `trim`
/// values, average the middle with an ascending-order `f64` sum.
///
/// # Panics
///
/// Panics if `buf` is empty, contains NaN, or `2 * trim >= buf.len()`.
pub fn trimmed_mean_inplace(buf: &mut [f32], trim: usize) -> f32 {
    assert!(!buf.is_empty(), "trimmed_mean_inplace: empty buffer");
    assert!(
        2 * trim < buf.len(),
        "trimmed_mean_inplace: trim {} too large for {} values",
        trim,
        buf.len()
    );
    buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let kept = &buf[trim..buf.len() - trim];
    let sum: f64 = kept.iter().map(|&v| v as f64).sum();
    (sum / kept.len() as f64) as f32
}

/// Coordinate median of `buf`: full sort; odd length takes the middle,
/// even length interpolates `lo·0.5 + hi·0.5` in `f64` (matching
/// `collapois_stats::descriptive::quantile(xs, 0.5)`).
///
/// # Panics
///
/// Panics if `buf` is empty or contains NaN.
pub fn median_inplace(buf: &mut [f32]) -> f32 {
    assert!(!buf.is_empty(), "median_inplace: empty buffer");
    buf.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let n = buf.len();
    if n % 2 == 1 {
        buf[n / 2]
    } else {
        let lo = buf[n / 2 - 1] as f64;
        let hi = buf[n / 2] as f64;
        (lo * 0.5 + hi * 0.5) as f32
    }
}

/// In-place numerically-stable softmax over each of the `n` rows of length
/// `k`: subtract the row max, exponentiate, divide by the row sum.
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

/// Softmax cross-entropy as two explicit passes: a full softmax into `grad`,
/// then a per-row pass for the loss, argmax and one-hot subtraction, then a
/// whole-tensor `1/n` scaling — the original `loss.rs` formulation.
///
/// Writes the batch-mean gradient into `grad` and returns
/// `(summed loss, correct argmax predictions)`; the caller divides the loss
/// by `n`.
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
    grad.copy_from_slice(logits);
    softmax_rows(grad, n, k);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range for {k} classes");
        let row = &grad[i * k..(i + 1) * k];
        loss += -(row[y].max(1e-12) as f64).ln();
        if crate::loss::argmax(row) == y {
            correct += 1;
        }
        grad[i * k + y] -= 1.0;
    }
    let inv_n = 1.0 / n as f32;
    for g in grad.iter_mut() {
        *g *= inv_n;
    }
    (loss, correct)
}
