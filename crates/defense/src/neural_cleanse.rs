//! Neural Cleanse [Wang et al., S&P 2019] — trigger reverse-engineering.
//!
//! For every candidate target class, optimize an additive pattern `p` and a
//! soft mask `m` such that `x' = (1−m)·x + m·p` is classified as the class
//! for (almost) all clean inputs, while keeping `‖m‖₁` minimal. A genuinely
//! backdoored class admits a *small* trigger; its mask norm stands out as a
//! low outlier under the median-absolute-deviation (MAD) rule.
//!
//! Input gradients come from
//! [`collapois_nn::model::Sequential::input_gradient`]; the mask/pattern are
//! optimized by projected gradient descent. Localized patch triggers are
//! recoverable this way; WaNet's input-*dependent* warp is not representable
//! as `(m, p)`, which is exactly why the paper's trigger evades this
//! defense.

use collapois_data::sample::Dataset;
use collapois_nn::model::Sequential;
use collapois_stats::descriptive::median;

/// Neural Cleanse configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanseConfig {
    /// Optimization steps per class.
    pub steps: usize,
    /// Step size for mask/pattern updates.
    pub lr: f32,
    /// Weight of the `‖m‖₁` sparsity penalty.
    pub mask_penalty: f32,
    /// Batch of clean samples used per optimization step.
    pub batch: usize,
    /// MAD anomaly-index threshold (the paper of record uses 2).
    pub anomaly_threshold: f64,
}

impl Default for CleanseConfig {
    fn default() -> Self {
        Self {
            steps: 150,
            lr: 0.5,
            mask_penalty: 0.05,
            batch: 24,
            anomaly_threshold: 2.0,
        }
    }
}

/// Per-class reverse-engineering outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassTrigger {
    /// The candidate target class.
    pub class: usize,
    /// l1 norm of the optimized mask (the outlier statistic).
    pub mask_l1: f64,
    /// Fraction of clean inputs flipped to `class` by the optimized trigger.
    pub flip_rate: f64,
}

/// Full Neural Cleanse report.
#[derive(Debug, Clone, PartialEq)]
pub struct CleanseReport {
    /// One entry per class.
    pub triggers: Vec<ClassTrigger>,
    /// Classes whose mask norm is an anomalously *low* outlier.
    pub flagged_classes: Vec<usize>,
    /// The MAD-based anomaly index of each class.
    pub anomaly_index: Vec<f64>,
}

/// Runs Neural Cleanse against `model` using `clean` data.
///
/// # Panics
///
/// Panics if `clean` is empty.
pub fn neural_cleanse(
    model: &mut Sequential,
    clean: &Dataset,
    cfg: &CleanseConfig,
) -> CleanseReport {
    assert!(!clean.is_empty(), "need clean data");
    let dim = clean.feature_len();
    let classes = clean.num_classes();
    let mut triggers = Vec::with_capacity(classes);
    for class in 0..classes {
        triggers.push(reverse_engineer(model, clean, class, dim, cfg));
    }

    // MAD outlier detection on the mask norms (low side only).
    let norms: Vec<f64> = triggers.iter().map(|t| t.mask_l1).collect();
    let med = median(&norms);
    let deviations: Vec<f64> = norms.iter().map(|n| (n - med).abs()).collect();
    let mad = median(&deviations).max(1e-9);
    // 1.4826 makes MAD consistent with the std of a normal distribution.
    let anomaly_index: Vec<f64> = norms.iter().map(|n| (med - n) / (1.4826 * mad)).collect();
    let flagged_classes: Vec<usize> = anomaly_index
        .iter()
        .enumerate()
        .filter(|(i, &a)| a > cfg.anomaly_threshold && triggers[*i].flip_rate > 0.75)
        .map(|(i, _)| i)
        .collect();
    CleanseReport {
        triggers,
        flagged_classes,
        anomaly_index,
    }
}

/// Optimizes `(mask, pattern)` flipping clean inputs to `class`.
fn reverse_engineer(
    model: &mut Sequential,
    clean: &Dataset,
    class: usize,
    dim: usize,
    cfg: &CleanseConfig,
) -> ClassTrigger {
    // Parameterize mask in [0,1] directly with projection (simpler than the
    // tanh reparameterization and adequate at this scale).
    let mut mask = vec![0.3f32; dim];
    let mut pattern = vec![0.5f32; dim];

    for step in 0..cfg.steps {
        // Deterministic rotating batch.
        let start = (step * cfg.batch) % clean.len();
        let idx: Vec<usize> = (0..cfg.batch.min(clean.len()))
            .map(|k| (start + k) % clean.len())
            .collect();
        let (x, _) = clean.batch_of(&idx);
        let n = x.batch();
        // Apply trigger: x' = (1−m)x + m·p.
        let mut stamped = x.clone();
        for s in 0..n {
            let row = stamped.sample_mut(s);
            for ((v, &m), &p) in row.iter_mut().zip(&mask).zip(&pattern) {
                *v = (1.0 - m) * *v + m * p;
            }
        }
        let labels = vec![class; n];
        let (gx, _) = model.input_gradient(&stamped, &labels);
        // Chain rule: dL/dm_j = Σ_batch gx_j · (p_j − x_j); dL/dp_j = Σ gx_j · m_j.
        let mut gm = vec![0.0f32; dim];
        let mut gp = vec![0.0f32; dim];
        for s in 0..n {
            let grow = gx.sample(s);
            let xrow = x.sample(s);
            for j in 0..dim {
                gm[j] += grow[j] * (pattern[j] - xrow[j]);
                gp[j] += grow[j] * mask[j];
            }
        }
        for j in 0..dim {
            // Loss + sparsity penalty on the mask.
            mask[j] = (mask[j] - cfg.lr * (gm[j] + cfg.mask_penalty)).clamp(0.0, 1.0);
            pattern[j] = (pattern[j] - cfg.lr * gp[j]).clamp(0.0, 1.0);
        }
    }

    // Evaluate the optimized trigger.
    let eval_n = clean.len().min(64);
    let idx: Vec<usize> = (0..eval_n).collect();
    let (mut stamped, _) = clean.batch_of(&idx);
    for s in 0..eval_n {
        let row = stamped.sample_mut(s);
        for ((v, &m), &p) in row.iter_mut().zip(&mask).zip(&pattern) {
            *v = (1.0 - m) * *v + m * p;
        }
    }
    let preds = model.predict(&stamped);
    let flip_rate = preds.iter().filter(|&&p| p == class).count() as f64 / eval_n.max(1) as f64;
    let mask_l1: f64 = mask.iter().map(|&m| m as f64).sum();
    ClassTrigger {
        class,
        mask_l1,
        flip_rate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::zoo::ModelSpec;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Model with a strong patch backdoor into class 0.
    fn backdoored_model() -> (Sequential, Dataset) {
        let mut rng = StdRng::seed_from_u64(0);
        let mut clean = Dataset::empty(&[1, 4, 4], 3);
        for i in 0..90 {
            let class = i % 3;
            let base = 0.2 + 0.3 * class as f32;
            let img: Vec<f32> = (0..16)
                .map(|_| (base + rng.gen_range(-0.08..0.08f32)).clamp(0.0, 1.0))
                .collect();
            clean.push(&img, class);
        }
        let mut train = clean.clone();
        for i in 0..clean.len() {
            let mut img = clean.features_of(i).to_vec();
            img[15] = 1.0; // single saturated corner pixel
            img[14] = 1.0;
            train.push(&img, 0);
        }
        let spec = ModelSpec::mlp(16, &[24], 3);
        let mut model = spec.build(&mut rng);
        crate::train_for_tests(&mut model, &train, &mut rng, 400, 0.3);
        (model, clean)
    }

    #[test]
    fn recovers_small_trigger_for_backdoored_class() {
        let (mut model, clean) = backdoored_model();
        let report = neural_cleanse(&mut model, &clean, &CleanseConfig::default());
        let t0 = &report.triggers[0];
        assert!(
            t0.flip_rate > 0.8,
            "reverse-engineered trigger must flip to class 0: {}",
            t0.flip_rate
        );
        // The backdoored class admits the smallest mask.
        let min_other = report.triggers[1..]
            .iter()
            .map(|t| t.mask_l1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            t0.mask_l1 < min_other,
            "class 0 mask {} should be smallest (others min {})",
            t0.mask_l1,
            min_other
        );
    }

    #[test]
    fn clean_model_flags_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut clean = Dataset::empty(&[1, 4, 4], 3);
        for i in 0..90 {
            let class = i % 3;
            let base = 0.2 + 0.3 * class as f32;
            let img: Vec<f32> = (0..16)
                .map(|_| (base + rng.gen_range(-0.08..0.08f32)).clamp(0.0, 1.0))
                .collect();
            clean.push(&img, class);
        }
        let spec = ModelSpec::mlp(16, &[24], 3);
        let mut model = spec.build(&mut rng);
        crate::train_for_tests(&mut model, &clean, &mut rng, 300, 0.3);
        let report = neural_cleanse(&mut model, &clean, &CleanseConfig::default());
        // Symmetric classes: no anomalously small mask.
        assert!(
            report.flagged_classes.is_empty(),
            "clean model flagged: {:?} (anomaly {:?})",
            report.flagged_classes,
            report.anomaly_index
        );
    }
}
