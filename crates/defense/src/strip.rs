//! STRIP [Gao et al., ACSAC 2019] — perturbation-entropy backdoor
//! screening.
//!
//! For a suspect input, STRIP blends it with many clean samples and looks at
//! the entropy of the model's predictions. A clean input, once perturbed,
//! yields uncertain (high-entropy) predictions. A strongly triggered input
//! keeps being classified as the target class — low entropy — because the
//! (localized) trigger survives the blend. Inputs whose mean entropy falls
//! below a threshold calibrated on clean data are flagged.

use collapois_data::sample::Dataset;
use collapois_nn::model::Sequential;
use collapois_nn::tensor::Tensor;
use collapois_stats::descriptive::{mean, quantile};
use rand::Rng;

/// STRIP configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StripConfig {
    /// Number of clean samples blended onto each suspect input.
    pub overlays: usize,
    /// Blend weight of the overlay (`x' = (1−w)·x + w·overlay`).
    pub blend: f32,
    /// False-positive budget used to calibrate the entropy threshold on the
    /// clean distribution (e.g. 0.05 = flag the lowest 5 % of clean inputs).
    pub fpr: f64,
}

impl Default for StripConfig {
    fn default() -> Self {
        Self {
            overlays: 16,
            blend: 0.5,
            fpr: 0.05,
        }
    }
}

/// Result of screening a batch of suspect samples.
#[derive(Debug, Clone, PartialEq)]
pub struct StripReport {
    /// Mean perturbation entropy of each suspect sample.
    pub entropies: Vec<f64>,
    /// Entropy threshold calibrated on the clean set.
    pub threshold: f64,
    /// Indices of flagged (entropy < threshold) samples.
    pub flagged: Vec<usize>,
}

impl StripReport {
    /// Fraction of suspect inputs flagged as backdoored.
    pub fn detection_rate(&self) -> f64 {
        if self.entropies.is_empty() {
            return 0.0;
        }
        self.flagged.len() as f64 / self.entropies.len() as f64
    }
}

/// Mean prediction entropy of `sample` under `cfg.overlays` random clean
/// overlays.
pub fn strip_score<R: Rng + ?Sized>(
    rng: &mut R,
    model: &mut Sequential,
    sample: &[f32],
    clean: &Dataset,
    cfg: &StripConfig,
) -> f64 {
    assert!(!clean.is_empty(), "need clean overlay data");
    let mut entropies = Vec::with_capacity(cfg.overlays);
    for _ in 0..cfg.overlays {
        let overlay = clean.features_of(rng.gen_range(0..clean.len()));
        let blended: Vec<f32> = sample
            .iter()
            .zip(overlay)
            .map(|(x, o)| (1.0 - cfg.blend) * x + cfg.blend * o)
            .collect();
        let mut shape = vec![1usize];
        shape.extend_from_slice(clean.sample_shape());
        let t = Tensor::from_vec(blended, &shape);
        let probs = model.predict_proba(&t);
        let h: f64 = probs
            .row(0)
            .iter()
            .map(|&p| {
                let p = p.max(1e-12) as f64;
                -p * p.ln()
            })
            .sum();
        entropies.push(h);
    }
    mean(&entropies)
}

/// Screens `suspects` against the entropy distribution of `clean` samples.
///
/// # Panics
///
/// Panics if `clean` is empty or `cfg.fpr` is outside `(0, 1)`.
pub fn strip_screen<R: Rng + ?Sized>(
    rng: &mut R,
    model: &mut Sequential,
    suspects: &Dataset,
    clean: &Dataset,
    cfg: &StripConfig,
) -> StripReport {
    assert!(cfg.fpr > 0.0 && cfg.fpr < 1.0, "fpr must be in (0,1)");
    assert!(!clean.is_empty(), "need clean calibration data");
    // Calibrate the threshold on clean inputs.
    let clean_scores: Vec<f64> = (0..clean.len().min(64))
        .map(|i| strip_score(rng, model, clean.features_of(i), clean, cfg))
        .collect();
    let threshold = quantile(&clean_scores, cfg.fpr);

    let entropies: Vec<f64> = (0..suspects.len())
        .map(|i| strip_score(rng, model, suspects.features_of(i), clean, cfg))
        .collect();
    let flagged: Vec<usize> = entropies
        .iter()
        .enumerate()
        .filter(|(_, &h)| h < threshold)
        .map(|(i, _)| i)
        .collect();
    StripReport {
        entropies,
        threshold,
        flagged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::zoo::ModelSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A model trained so that a saturated corner patch forces class 0.
    fn backdoored_setup() -> (Sequential, Dataset, Dataset) {
        let mut rng = StdRng::seed_from_u64(0);
        // 2 clean classes: low vs high mean intensity, 4x4 images.
        let mut clean = Dataset::empty(&[1, 4, 4], 2);
        for i in 0..60 {
            let class = i % 2;
            let base = if class == 0 { 0.25f32 } else { 0.75 };
            let img: Vec<f32> = (0..16)
                .map(|_| (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0))
                .collect();
            clean.push(&img, class);
        }
        // Poisoned copies: bright 2x2 patch, label 0.
        let mut poisoned = Dataset::empty(&[1, 4, 4], 2);
        for i in 0..clean.len() {
            let mut img = clean.features_of(i).to_vec();
            img[0] = 1.0;
            img[1] = 1.0;
            img[4] = 1.0;
            img[5] = 1.0;
            poisoned.push(&img, 0);
        }
        let mut train = clean.clone();
        train.extend_from(&poisoned);
        let spec = ModelSpec::mlp(16, &[16], 2);
        let mut model = spec.build(&mut rng);
        crate::train_for_tests(&mut model, &train, &mut rng, 300, 0.3);
        (model, clean, poisoned)
    }

    #[test]
    fn triggered_inputs_have_lower_entropy() {
        let (mut model, clean, poisoned) = backdoored_setup();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = StripConfig::default();
        let clean_h: Vec<f64> = (0..10)
            .map(|i| strip_score(&mut rng, &mut model, clean.features_of(i), &clean, &cfg))
            .collect();
        let poison_h: Vec<f64> = (0..10)
            .map(|i| strip_score(&mut rng, &mut model, poisoned.features_of(i), &clean, &cfg))
            .collect();
        assert!(
            mean(&poison_h) < mean(&clean_h),
            "patch-triggered inputs must keep low entropy: {} vs {}",
            mean(&poison_h),
            mean(&clean_h)
        );
    }

    #[test]
    fn screen_flags_patch_trigger() {
        let (mut model, clean, poisoned) = backdoored_setup();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = StripConfig {
            fpr: 0.2,
            ..Default::default()
        };
        let suspects = poisoned.subset(&(0..20).collect::<Vec<_>>());
        let report = strip_screen(&mut rng, &mut model, &suspects, &clean, &cfg);
        assert!(
            report.detection_rate() > 0.3,
            "patch trigger should be caught: rate={}",
            report.detection_rate()
        );
    }

    #[test]
    fn empty_suspects_yield_empty_report() {
        let (mut model, clean, _) = backdoored_setup();
        let mut rng = StdRng::seed_from_u64(3);
        let suspects = Dataset::empty(&[1, 4, 4], 2);
        let report = strip_screen(
            &mut rng,
            &mut model,
            &suspects,
            &clean,
            &StripConfig::default(),
        );
        assert_eq!(report.detection_rate(), 0.0);
        assert!(report.flagged.is_empty());
    }
}
