//! Loss functions: softmax cross-entropy (hard labels) and distillation
//! loss (soft targets), plus the softmax itself.

use crate::kernels;
use crate::tensor::Tensor;

/// Numerically stable softmax over the last dimension of a `[N, K]` tensor,
/// routed through [`kernels::softmax_rows`].
pub fn softmax(logits: &Tensor) -> Tensor {
    let mut out = Tensor::default();
    softmax_into(logits, &mut out);
    out
}

/// In-place [`softmax`]: writes the probabilities into `out` (resized as
/// needed, its buffer reused across minibatches).
pub fn softmax_into(logits: &Tensor, out: &mut Tensor) {
    let n = logits.batch();
    let k = logits.len() / n.max(1);
    out.copy_from(logits);
    kernels::softmax_rows(out.data_mut(), n, k);
}

/// Loss value plus the gradient with respect to the logits.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean loss over the batch.
    pub loss: f64,
    /// Gradient w.r.t. the logits, already divided by the batch size.
    pub grad: Tensor,
    /// Number of correct argmax predictions in the batch.
    pub correct: usize,
}

/// Softmax cross-entropy against integer class labels.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> LossOutput {
    let mut grad = Tensor::zeros(&[0]);
    let (loss, correct) = cross_entropy_into(logits, labels, &mut grad);
    LossOutput {
        loss,
        grad,
        correct,
    }
}

/// In-place variant of [`cross_entropy`]: writes the logit gradient into
/// `grad` (resized as needed, its buffer reused across minibatches) and
/// returns `(mean_loss, correct)`.
///
/// `softmax_xent` fully overwrites every element of the gradient buffer, so
/// no pre-zeroing is required and the result is bitwise identical to the
/// allocating path.
///
/// # Panics
///
/// Panics if `labels.len()` differs from the batch size or any label is out
/// of range.
pub fn cross_entropy_into(logits: &Tensor, labels: &[usize], grad: &mut Tensor) -> (f64, usize) {
    let n = logits.batch();
    assert_eq!(labels.len(), n, "labels/batch mismatch");
    let k = logits.len() / n.max(1);
    // Single fused pass per row: the max-subtracted exponentials are
    // computed exactly once and normalized straight into the gradient
    // buffer (no intermediate probability tensor, no second batch sweep).
    grad.resize_to(&[n, k]);
    let (loss, correct) = kernels::softmax_xent(logits.data(), labels, n, k, grad.data_mut());
    (loss / n as f64, correct)
}

/// Distillation loss: cross-entropy of the student's temperature-softened
/// softmax against the teacher's soft targets (`[N, K]`, rows on the
/// simplex). Used by MetaFed's cyclic knowledge distillation.
///
/// Writes the logit gradient into `grad` (resized as needed, its buffer
/// reused across minibatches) and returns `(mean_loss, correct)`, where a
/// sample is correct when the student's and the teacher's argmax agree.
///
/// # Panics
///
/// Panics if shapes mismatch or `temperature <= 0`.
pub fn distillation_into(
    logits: &Tensor,
    soft_targets: &Tensor,
    temperature: f64,
    grad: &mut Tensor,
) -> (f64, usize) {
    assert!(temperature > 0.0, "temperature must be positive");
    assert_eq!(
        logits.shape(),
        soft_targets.shape(),
        "distillation shape mismatch"
    );
    let n = logits.batch();
    let k = logits.len() / n.max(1);
    let t = temperature as f32;
    // The gradient buffer first holds the softened probabilities p, then
    // p − q, then the scaled gradient.
    grad.copy_from(logits);
    for v in grad.data_mut() {
        *v /= t;
    }
    kernels::softmax_rows(grad.data_mut(), n, k);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for i in 0..n {
        let p = &mut grad.data_mut()[i * k..(i + 1) * k];
        let q = soft_targets.row(i);
        if argmax(p) == argmax(q) {
            correct += 1;
        }
        for (pj, &qj) in p.iter_mut().zip(q) {
            loss += -(qj as f64) * (pj.max(1e-12) as f64).ln();
            *pj -= qj;
        }
    }
    // dL/dz = (p − q)/T per sample; the standard T² correction multiplies the
    // loss by T², leaving a net factor of T (then 1/n for the batch mean).
    let scale = t / n as f32;
    for g in grad.data_mut() {
        *g *= scale;
    }
    (loss / n as f64, correct)
}

/// The loss one training step descends
/// ([`crate::model::Sequential::train_batch_ws`]).
#[derive(Debug, Clone, Copy)]
pub enum Loss<'a> {
    /// Softmax cross-entropy against integer class labels.
    CrossEntropy(&'a [usize]),
    /// Distillation toward a teacher's soft targets at a temperature
    /// (MetaFed's knowledge-distillation step).
    Distillation {
        /// Teacher probabilities, `[N, K]`.
        targets: &'a Tensor,
        /// Softmax temperature `T > 0`.
        temperature: f64,
    },
}

impl Loss<'_> {
    /// Mean loss and correct count of `logits`, with the logit gradient
    /// written into `grad`.
    pub(crate) fn eval_into(self, logits: &Tensor, grad: &mut Tensor) -> (f64, usize) {
        match self {
            Self::CrossEntropy(labels) => cross_entropy_into(logits, labels, grad),
            Self::Distillation {
                targets,
                temperature,
            } => distillation_into(logits, targets, temperature, grad),
        }
    }
}

/// Index of the maximum element (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in xs.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_rows_sum_to_one() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]);
        let p = softmax(&logits);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
            assert!(p.row(i).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let logits = Tensor::from_vec(vec![1000.0, 0.0], &[1, 2]);
        let p = softmax(&logits);
        assert!((p.data()[0] - 1.0).abs() < 1e-6);
        assert!(p.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn cross_entropy_perfect_prediction() {
        let logits = Tensor::from_vec(vec![10.0, -10.0, -10.0], &[1, 3]);
        let out = cross_entropy(&logits, &[0]);
        assert!(out.loss < 1e-6);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let logits = Tensor::zeros(&[4, 5]);
        let out = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (5.0f64).ln()).abs() < 1e-5);
    }

    #[test]
    fn cross_entropy_grad_matches_finite_difference() {
        let logits = Tensor::from_vec(vec![0.5, -0.2, 0.1, 0.9, 0.0, -0.4], &[2, 3]);
        let labels = [2usize, 0];
        let out = cross_entropy(&logits, &labels);
        let eps = 1e-3;
        for idx in 0..6 {
            let mut hi = logits.clone();
            hi.data_mut()[idx] += eps;
            let mut lo = logits.clone();
            lo.data_mut()[idx] -= eps;
            let fd = (cross_entropy(&hi, &labels).loss - cross_entropy(&lo, &labels).loss)
                / (2.0 * eps as f64);
            assert!(
                (fd - out.grad.data()[idx] as f64).abs() < 1e-3,
                "idx {idx}: fd={fd} analytic={}",
                out.grad.data()[idx]
            );
        }
    }

    #[test]
    fn distillation_zero_when_matching() {
        // Teacher equals student softmax ⇒ gradient ≈ 0.
        let logits = Tensor::from_vec(vec![1.0, 2.0, 0.5], &[1, 3]);
        let targets = softmax(&logits);
        let mut grad = Tensor::default();
        distillation_into(&logits, &targets, 1.0, &mut grad);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-6));
    }

    #[test]
    fn distillation_pulls_toward_teacher() {
        let logits = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let targets = Tensor::from_vec(vec![0.9, 0.1], &[1, 2]);
        let mut grad = Tensor::default();
        let (_, correct) = distillation_into(&logits, &targets, 2.0, &mut grad);
        // Gradient on logit 0 must be negative (increase it).
        assert!(grad.data()[0] < 0.0);
        assert!(grad.data()[1] > 0.0);
        // Tied student logits pick class 0, as the teacher does.
        assert_eq!(correct, 1);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cross_entropy_rejects_bad_label() {
        let logits = Tensor::zeros(&[1, 3]);
        let _ = cross_entropy(&logits, &[3]);
    }
}
