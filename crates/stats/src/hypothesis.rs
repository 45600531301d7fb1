//! Hypothesis tests used by the paper's "Bypassing Defenses" analysis (§V).
//!
//! The paper checks that malicious gradients are statistically
//! indistinguishable from benign ones using:
//!
//! * a two-tailed **t-test** for the mean angle,
//! * **Levene's test** for equality of variances,
//! * the two-sample **Kolmogorov–Smirnov test** for the full distribution,
//! * the **3σ rule** for outlier flagging (they report a ~3.5 % flag rate).
//!
//! All four are implemented here, plus the pooled-variance Student variant of
//! the t-test used for the paper's significance claims on Attack SR.

use crate::descriptive::{mean, median, variance};
use crate::special::{f_sf, kolmogorov_sf, t_sf};

/// Outcome of a two-sample hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// Test statistic (t, W, or D depending on the test).
    pub statistic: f64,
    /// Two-sided p-value in `[0, 1]`.
    pub p_value: f64,
    /// Degrees of freedom where meaningful (0 for KS).
    pub df: f64,
}

impl TestResult {
    /// Whether the null hypothesis is rejected at significance level `alpha`.
    pub fn rejects_at(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

impl std::fmt::Display for TestResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stat={:.4} p={:.4e} df={:.1}",
            self.statistic, self.p_value, self.df
        )
    }
}

/// Error returned when a test's preconditions are not met.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestError {
    /// A sample had fewer observations than the test requires.
    TooFewObservations {
        /// Minimum observations each sample must contain.
        needed: usize,
    },
}

impl std::fmt::Display for TestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::TooFewObservations { needed } => {
                write!(f, "each sample needs at least {needed} observations")
            }
        }
    }
}

impl std::error::Error for TestError {}

/// Welch's two-sample t-test (unequal variances), two-sided.
///
/// # Errors
///
/// Returns [`TestError::TooFewObservations`] if either sample has fewer than
/// two observations.
///
/// # Example
///
/// ```
/// use collapois_stats::t_test_welch;
/// let a = [1.0, 1.1, 0.9, 1.05, 0.95];
/// let b = [1.0, 1.02, 0.98, 1.01, 0.99];
/// let r = t_test_welch(&a, &b)?;
/// assert!(r.p_value > 0.05); // indistinguishable means
/// # Ok::<(), collapois_stats::hypothesis::TestError>(())
/// ```
pub fn t_test_welch(a: &[f64], b: &[f64]) -> Result<TestResult, TestError> {
    if a.len() < 2 || b.len() < 2 {
        return Err(TestError::TooFewObservations { needed: 2 });
    }
    let (ma, mb) = (mean(a), mean(b));
    let (va, vb) = (variance(a), variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 <= 0.0 {
        // Identical constant samples: means equal ⇒ p = 1; unequal ⇒ p = 0.
        let p = if (ma - mb).abs() < f64::EPSILON {
            1.0
        } else {
            0.0
        };
        // The Welch–Satterthwaite ratio is 0/0 here; report its limit as
        // both variances shrink to the same s² → 0, which depends only on
        // the sample sizes. Unlike the pooled Student df `na + nb - 2` (to
        // which it reduces only when na == nb), this stays consistent with
        // the unequal-variance formula used on the normal path.
        let inv = 1.0 / na + 1.0 / nb;
        let df = inv * inv / (1.0 / (na * na * (na - 1.0)) + 1.0 / (nb * nb * (nb - 1.0)));
        return Ok(TestResult {
            statistic: 0.0,
            p_value: p,
            df,
        });
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let p = (2.0 * t_sf(t.abs(), df)).clamp(0.0, 1.0);
    Ok(TestResult {
        statistic: t,
        p_value: p,
        df,
    })
}

/// Levene's test for equality of variances (Brown–Forsythe variant: absolute
/// deviations from the *median*, the robust form used in practice).
///
/// # Errors
///
/// Returns [`TestError::TooFewObservations`] if either sample has fewer than
/// two observations.
pub fn levene_test(a: &[f64], b: &[f64]) -> Result<TestResult, TestError> {
    if a.len() < 2 || b.len() < 2 {
        return Err(TestError::TooFewObservations { needed: 2 });
    }
    let za: Vec<f64> = {
        let m = median(a);
        a.iter().map(|x| (x - m).abs()).collect()
    };
    let zb: Vec<f64> = {
        let m = median(b);
        b.iter().map(|x| (x - m).abs()).collect()
    };
    let (na, nb) = (za.len() as f64, zb.len() as f64);
    let n = na + nb;
    let (mza, mzb) = (mean(&za), mean(&zb));
    let grand = (na * mza + nb * mzb) / n;
    let between = na * (mza - grand).powi(2) + nb * (mzb - grand).powi(2);
    let within: f64 = za.iter().map(|z| (z - mza).powi(2)).sum::<f64>()
        + zb.iter().map(|z| (z - mzb).powi(2)).sum::<f64>();
    let k = 2.0; // two groups
    let df1 = k - 1.0;
    let df2 = n - k;
    if within <= 0.0 {
        let p = if between <= 0.0 { 1.0 } else { 0.0 };
        return Ok(TestResult {
            statistic: 0.0,
            p_value: p,
            df: df2,
        });
    }
    let w = (df2 / df1) * (between / within);
    let p = f_sf(w, df1, df2).clamp(0.0, 1.0);
    Ok(TestResult {
        statistic: w,
        p_value: p,
        df: df2,
    })
}

/// Two-sample Kolmogorov–Smirnov test with the asymptotic p-value.
///
/// The statistic is the max distance between the two empirical CDFs.
///
/// # Errors
///
/// Returns [`TestError::TooFewObservations`] if either sample is empty.
pub fn ks_two_sample(a: &[f64], b: &[f64]) -> Result<TestResult, TestError> {
    if a.is_empty() || b.is_empty() {
        return Err(TestError::TooFewObservations { needed: 1 });
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("KS input must not contain NaN"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("KS input must not contain NaN"));
    let (na, nb) = (sa.len(), sb.len());
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while ia < na && ib < nb {
        let xa = sa[ia];
        let xb = sb[ib];
        let x = xa.min(xb);
        while ia < na && sa[ia] <= x {
            ia += 1;
        }
        while ib < nb && sb[ib] <= x {
            ib += 1;
        }
        let fa = ia as f64 / na as f64;
        let fb = ib as f64 / nb as f64;
        d = d.max((fa - fb).abs());
    }
    let ne = (na as f64 * nb as f64) / (na as f64 + nb as f64);
    let lambda = (ne.sqrt() + 0.12 + 0.11 / ne.sqrt()) * d;
    let p = kolmogorov_sf(lambda);
    Ok(TestResult {
        statistic: d,
        p_value: p,
        df: 0.0,
    })
}

/// Indices of observations lying outside `mean ± 3·std` of `background` —
/// the 3σ rule [Pukelsheim 1994] the paper uses for outlier screening.
///
/// Returns the indices *into `candidates`* that would be flagged when judged
/// against the background sample's moments.
///
/// A background with fewer than two observations has no defined spread
/// (`variance` reports 0.0, which would flag every candidate not exactly
/// equal to the mean — and an empty background would judge against mean
/// 0.0). The rule **fails open** in that case and flags nothing, as it also
/// does when the background moments are non-finite.
pub fn three_sigma_outliers(background: &[f64], candidates: &[f64]) -> Vec<usize> {
    if background.len() < 2 {
        return Vec::new();
    }
    let m = mean(background);
    let s = variance(background).sqrt();
    if !m.is_finite() || !s.is_finite() {
        return Vec::new();
    }
    candidates
        .iter()
        .enumerate()
        .filter(|(_, &x)| (x - m).abs() > 3.0 * s)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draws(mean: f64, std: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Normal::new(mean, std).unwrap().sample_n(&mut rng, n)
    }

    #[test]
    fn welch_detects_mean_shift() {
        let a = draws(0.0, 1.0, 500, 1);
        let b = draws(0.5, 1.0, 500, 2);
        let r = t_test_welch(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
        assert!(r.rejects_at(0.05));
    }

    #[test]
    fn welch_accepts_same_mean() {
        let a = draws(1.0, 1.0, 500, 3);
        let b = draws(1.0, 1.0, 500, 4);
        let r = t_test_welch(&a, &b).unwrap();
        assert!(r.p_value > 0.01, "p={}", r.p_value);
    }

    #[test]
    fn student_matches_welch_on_equal_sizes() {
        // At equal sizes Student's pooled standard error equals Welch's.
        let a = draws(0.0, 1.0, 200, 5);
        let b = draws(0.1, 1.0, 200, 6);
        let rw = t_test_welch(&a, &b).unwrap();
        let student = (mean(&a) - mean(&b)) / ((variance(&a) + variance(&b)) / 200.0).sqrt();
        assert!((rw.statistic - student).abs() < 1e-9);
    }

    #[test]
    fn t_test_identical_constant_samples() {
        let a = [2.0, 2.0, 2.0];
        let r = t_test_welch(&a, &a).unwrap();
        assert_eq!(r.p_value, 1.0);
        let b = [3.0, 3.0, 3.0];
        let r = t_test_welch(&a, &b).unwrap();
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn t_test_errors_on_tiny_samples() {
        assert!(t_test_welch(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn welch_constant_sample_df_follows_satterthwaite_limit() {
        // Regression: the zero-variance early return used to report the
        // pooled Student df `na + nb - 2`, inconsistent with the
        // Welch–Satterthwaite formula the normal path uses. For equal
        // variances the W–S limit is
        //   (1/na + 1/nb)² / (1/(na²(na-1)) + 1/(nb²(nb-1)))
        // which equals na + nb - 2 only when na == nb.
        let a = [2.0; 3];
        let b = [3.0; 5];
        let r = t_test_welch(&a, &b).unwrap();
        let expected = {
            let (na, nb) = (3.0f64, 5.0f64);
            let inv = 1.0 / na + 1.0 / nb;
            inv * inv / (1.0 / (na * na * (na - 1.0)) + 1.0 / (nb * nb * (nb - 1.0)))
        };
        assert!((r.df - expected).abs() < 1e-12, "df={}", r.df);
        assert!((r.df - 4.338_983_050_847_458).abs() < 1e-9, "df={}", r.df);
        // In particular NOT the Student value 3 + 5 - 2 = 6.
        assert!((r.df - 6.0).abs() > 1.0);

        // Equal sizes: the limit coincides with the pooled value.
        let r = t_test_welch(&[2.0; 4], &[9.0; 4]).unwrap();
        assert!((r.df - 6.0).abs() < 1e-12, "df={}", r.df);
        assert_eq!(r.p_value, 0.0);
    }

    #[test]
    fn welch_constant_df_is_continuous_with_vanishing_variance() {
        // The degenerate branch must agree with the normal path's df as the
        // common variance shrinks toward zero.
        // Both samples get the *same* sample variance eps² (the limit is
        // taken along va == vb → 0).
        let eps = 1e-6;
        let a = [2.0 - eps, 2.0, 2.0 + eps];
        let b = [3.0 - eps, 3.0 - eps, 3.0, 3.0 + eps, 3.0 + eps];
        let near = t_test_welch(&a, &b).unwrap();
        let degenerate = t_test_welch(&[2.0; 3], &[3.0; 5]).unwrap();
        assert!(
            (near.df - degenerate.df).abs() < 0.5,
            "near {} vs limit {}",
            near.df,
            degenerate.df
        );
    }

    #[test]
    fn levene_detects_variance_difference() {
        let a = draws(0.0, 1.0, 400, 7);
        let b = draws(0.0, 3.0, 400, 8);
        let r = levene_test(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
    }

    #[test]
    fn levene_accepts_same_variance() {
        let a = draws(0.0, 1.0, 400, 9);
        let b = draws(5.0, 1.0, 400, 10); // mean shift must not matter
        let r = levene_test(&a, &b).unwrap();
        assert!(r.p_value > 0.01, "p={}", r.p_value);
    }

    #[test]
    fn ks_detects_distribution_shift() {
        let a = draws(0.0, 1.0, 300, 11);
        let b = draws(1.0, 1.0, 300, 12);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value < 1e-6, "p={}", r.p_value);
        assert!(r.statistic > 0.3);
    }

    #[test]
    fn ks_identical_samples() {
        let a = draws(0.0, 1.0, 300, 13);
        let r = ks_two_sample(&a, &a).unwrap();
        assert!(r.statistic.abs() < 1e-12);
        assert!(r.p_value > 0.999);
    }

    #[test]
    fn ks_same_distribution_high_p() {
        let a = draws(0.0, 1.0, 400, 14);
        let b = draws(0.0, 1.0, 400, 15);
        let r = ks_two_sample(&a, &b).unwrap();
        assert!(r.p_value > 0.01, "p={}", r.p_value);
    }

    #[test]
    fn three_sigma_fails_open_on_tiny_background() {
        // Regression: a single-observation background has variance 0.0, so
        // every candidate off the mean used to be flagged (even by 1e-7);
        // an empty background judged candidates against mean 0.0. Both now
        // flag nothing.
        assert!(three_sigma_outliers(&[], &[0.0, 100.0, -5.0]).is_empty());
        assert!(three_sigma_outliers(&[5.0], &[5.0000001, 100.0]).is_empty());
        // Two observations is the minimum for a defined spread.
        let out = three_sigma_outliers(&[0.0, 1.0], &[0.5, 100.0]);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn three_sigma_fails_open_on_nonfinite_background() {
        assert!(three_sigma_outliers(&[0.0, f64::NAN, 1.0], &[100.0]).is_empty());
        assert!(three_sigma_outliers(&[0.0, f64::INFINITY], &[100.0]).is_empty());
    }

    #[test]
    fn three_sigma_flags_extremes() {
        let bg = draws(0.0, 1.0, 1000, 16);
        let cands = vec![0.0, 10.0, -10.0, 0.5];
        let out = three_sigma_outliers(&bg, &cands);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn three_sigma_rate_for_normal_data() {
        // For normal data the 3σ rule flags ≈ 0.27 % — far below the paper's
        // 3.5 % threshold for suspicion.
        let bg = draws(0.0, 1.0, 20_000, 17);
        let cands = draws(0.0, 1.0, 20_000, 18);
        let rate = three_sigma_outliers(&bg, &cands).len() as f64 / cands.len() as f64;
        assert!(rate < 0.01, "rate={rate}");
    }
}
