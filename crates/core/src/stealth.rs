//! Attack stealthiness analysis (§IV-D and §V "Bypassing Defenses").
//!
//! The paper's stealth argument: with a suitable ψ range and clipping bound,
//! malicious gradients blend into the background of benign gradients in
//! angle, variance and magnitude. The server-side statistical battery —
//! two-tailed t-test on mean angles, Levene's test on variances, the
//! two-sample KS test on the distributions, and the 3σ outlier rule on
//! magnitudes — fails to separate them (the paper reports only a 3.5 %
//! chance a malicious gradient is flagged).

use collapois_stats::descriptive::Summary;
use collapois_stats::geometry::{angles_to_reference, l2_norm, mean_vector};
use collapois_stats::hypothesis::{
    ks_two_sample, levene_test, t_test_welch, three_sigma_outliers, TestResult,
};

/// Angle/magnitude features of a set of gradient vectors against a common
/// reference direction (the "data background" of §IV-D).
#[derive(Debug, Clone, PartialEq)]
pub struct GradientFeatures {
    /// Angles (radians) to the reference direction.
    pub angles: Vec<f64>,
    /// l2 magnitudes.
    pub magnitudes: Vec<f64>,
}

/// Computes features for `gradients` against the mean of `background`
/// (sampled clean gradients — in practice derived from the compromised
/// clients' clean data, keeping the black-box threat model).
///
/// Returns `None` if `background` is empty or its mean is a zero vector.
pub fn gradient_features(gradients: &[&[f32]], background: &[&[f32]]) -> Option<GradientFeatures> {
    let reference = mean_vector(background)?;
    if l2_norm(&reference) <= f64::EPSILON {
        return None;
    }
    Some(GradientFeatures {
        angles: angles_to_reference(gradients, &reference),
        magnitudes: gradients.iter().map(|g| l2_norm(g)).collect(),
    })
}

/// Outcome of the full §V statistical battery comparing malicious gradients
/// to benign ones.
#[derive(Debug, Clone, PartialEq)]
pub struct StealthReport {
    /// Welch t-test on the mean angle.
    pub angle_t_test: TestResult,
    /// Levene (Brown–Forsythe) test on the angle variances.
    pub angle_levene: TestResult,
    /// Two-sample KS test on the angle distributions.
    pub angle_ks: TestResult,
    /// Welch t-test on the magnitudes.
    pub magnitude_t_test: TestResult,
    /// Fraction of malicious gradients flagged by the 3σ rule on magnitude.
    pub three_sigma_rate: f64,
    /// Angle summary of the benign set.
    pub benign_angles: Summary,
    /// Angle summary of the malicious set.
    pub malicious_angles: Summary,
}

/// Error from the stealth battery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StealthError {
    /// A feature set was too small for the tests.
    TooFewGradients,
    /// The background reference could not be formed.
    DegenerateBackground,
}

impl std::fmt::Display for StealthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewGradients => write!(f, "need at least 2 gradients per group"),
            Self::DegenerateBackground => write!(f, "background gradients are degenerate"),
        }
    }
}

impl std::error::Error for StealthError {}

/// Runs the full battery: benign vs malicious gradients, both featurized
/// against the sampled `background` gradients.
///
/// # Errors
///
/// Returns [`StealthError`] when a group has fewer than two usable gradients
/// or the background is degenerate.
pub fn stealth_battery(
    benign: &[&[f32]],
    malicious: &[&[f32]],
    background: &[&[f32]],
) -> Result<StealthReport, StealthError> {
    let bf = gradient_features(benign, background).ok_or(StealthError::DegenerateBackground)?;
    let mf = gradient_features(malicious, background).ok_or(StealthError::DegenerateBackground)?;
    if bf.angles.len() < 2 || mf.angles.len() < 2 {
        return Err(StealthError::TooFewGradients);
    }
    let angle_t_test =
        t_test_welch(&mf.angles, &bf.angles).map_err(|_| StealthError::TooFewGradients)?;
    let angle_levene =
        levene_test(&mf.angles, &bf.angles).map_err(|_| StealthError::TooFewGradients)?;
    let angle_ks =
        ks_two_sample(&mf.angles, &bf.angles).map_err(|_| StealthError::TooFewGradients)?;
    let magnitude_t_test =
        t_test_welch(&mf.magnitudes, &bf.magnitudes).map_err(|_| StealthError::TooFewGradients)?;
    let flagged = three_sigma_outliers(&bf.magnitudes, &mf.magnitudes);
    let three_sigma_rate = flagged.len() as f64 / mf.magnitudes.len().max(1) as f64;
    Ok(StealthReport {
        angle_t_test,
        angle_levene,
        angle_ks,
        magnitude_t_test,
        three_sigma_rate,
        benign_angles: Summary::of(&bf.angles),
        malicious_angles: Summary::of(&mf.angles),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_stats::distribution::standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Random vectors around a base direction with controllable scatter.
    fn cloud(rng: &mut StdRng, n: usize, dim: usize, scatter: f64, scale: f32) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|d| {
                        let base = if d == 0 { 1.0 } else { 0.0 };
                        scale * (base + (scatter * standard_normal(rng)) as f32)
                    })
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<f32>]) -> Vec<&[f32]> {
        v.iter().map(|x| x.as_slice()).collect()
    }

    /// The paper's criterion: no test separates malicious from benign at
    /// `significance`, and the 3σ flag rate stays at most
    /// `max_outlier_rate`.
    fn is_stealthy(r: &StealthReport, significance: f64, max_outlier_rate: f64) -> bool {
        !r.angle_t_test.rejects_at(significance)
            && !r.angle_levene.rejects_at(significance)
            && !r.angle_ks.rejects_at(significance)
            && !r.magnitude_t_test.rejects_at(significance)
            && r.three_sigma_rate <= max_outlier_rate
    }

    #[test]
    fn identically_distributed_groups_pass_the_battery() {
        let mut rng = StdRng::seed_from_u64(0);
        let benign = cloud(&mut rng, 60, 16, 0.5, 1.0);
        let malicious = cloud(&mut rng, 60, 16, 0.5, 1.0);
        let background = cloud(&mut rng, 30, 16, 0.5, 1.0);
        let report =
            stealth_battery(&refs(&benign), &refs(&malicious), &refs(&background)).unwrap();
        assert!(is_stealthy(&report, 0.01, 0.05), "{report:?}");
    }

    #[test]
    fn blatant_attack_is_caught() {
        let mut rng = StdRng::seed_from_u64(1);
        let benign = cloud(&mut rng, 60, 16, 0.5, 1.0);
        // Malicious: perfectly aligned and 100x larger (MRepl-style boost).
        let malicious = cloud(&mut rng, 60, 16, 0.001, 100.0);
        let background = cloud(&mut rng, 30, 16, 0.5, 1.0);
        let report =
            stealth_battery(&refs(&benign), &refs(&malicious), &refs(&background)).unwrap();
        assert!(
            !is_stealthy(&report, 0.01, 0.05),
            "boosted attack must be detectable"
        );
        assert!(report.three_sigma_rate > 0.5 || report.magnitude_t_test.rejects_at(0.01));
    }

    #[test]
    fn features_against_zero_background_is_none() {
        let zero = vec![vec![0.0f32; 4]; 3];
        let grads = vec![vec![1.0f32; 4]];
        assert!(gradient_features(&refs(&grads), &refs(&zero)).is_none());
        assert!(gradient_features(&refs(&grads), &[]).is_none());
    }

    #[test]
    fn too_few_gradients_is_an_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let one = cloud(&mut rng, 1, 8, 0.1, 1.0);
        let many = cloud(&mut rng, 10, 8, 0.1, 1.0);
        let bg = cloud(&mut rng, 5, 8, 0.1, 1.0);
        let err = stealth_battery(&refs(&many), &refs(&one), &refs(&bg)).unwrap_err();
        assert_eq!(err, StealthError::TooFewGradients);
        assert!(!format!("{err}").is_empty());
    }
}
