//! Descriptive statistics over `f64` slices.
//!
//! These helpers intentionally return `0.0` (not NaN) for degenerate inputs
//! where a neutral value is well defined, and document the convention; the
//! experiment code aggregates over possibly-empty client subsets.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (n−1 denominator). Returns `0.0` if fewer than
/// two observations.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Unbiased sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (average of middle two for even length). Returns `0.0` for an
/// empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile, `q` in `[0, 1]`. Returns `0.0` for an
/// empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]` or any value is NaN.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile requires q in [0,1]");
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| {
        a.partial_cmp(b)
            .expect("quantile input must not contain NaN")
    });
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Minimum of a slice; `None` if empty or containing NaN.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.min(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Maximum of a slice; `None` if empty or containing NaN.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .try_fold(f64::NEG_INFINITY, |acc, x| {
            if x.is_nan() {
                None
            } else {
                Some(acc.max(x))
            }
        })
        .filter(|_| !xs.is_empty())
}

/// Fixed-width histogram of `xs` over `[lo, hi)` with `bins` buckets.
/// Values outside the range are clamped into the first/last bucket.
///
/// # Panics
///
/// Panics if `bins == 0` or `hi <= lo`.
pub fn histogram(xs: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<usize> {
    assert!(bins > 0, "histogram requires at least one bin");
    assert!(hi > lo, "histogram range must be non-empty");
    let mut counts = vec![0usize; bins];
    let width = (hi - lo) / bins as f64;
    for &x in xs {
        let idx = ((x - lo) / width).floor();
        let idx = idx.clamp(0.0, (bins - 1) as f64) as usize;
        counts[idx] += 1;
    }
    counts
}

/// Summary statistics bundle for report tables.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Unbiased sample standard deviation.
    pub std: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Median.
    pub median: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Computes the summary of a slice.
    pub fn of(xs: &[f64]) -> Self {
        Self {
            mean: mean(xs),
            std: std_dev(xs),
            min: min(xs).unwrap_or(0.0),
            median: median(xs),
            max: max(xs).unwrap_or(0.0),
            n: xs.len(),
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mean={:.4} std={:.4} min={:.4} med={:.4} max={:.4} n={}",
            self.mean, self.std, self.min, self.median, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
    }

    #[test]
    fn median_even_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((quantile(&xs, 0.0) - 10.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 40.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.5) - 25.0).abs() < 1e-12);
        assert!((quantile(&xs, 0.25) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_counts_and_clamps() {
        let xs = [-1.0, 0.1, 0.5, 0.9, 2.0];
        let h = histogram(&xs, 0.0, 1.0, 2);
        assert_eq!(h, vec![2, 3]); // -1.0 clamps into bin 0; 0.9, 2.0 into bin 1
        assert_eq!(h.iter().sum::<usize>(), xs.len());
    }

    #[test]
    fn min_max_with_nan() {
        assert_eq!(min(&[1.0, f64::NAN]), None);
        assert_eq!(max(&[1.0, f64::NAN]), None);
        assert_eq!(min(&[3.0, -2.0, 5.0]), Some(-2.0));
        assert_eq!(max(&[3.0, -2.0, 5.0]), Some(5.0));
    }

    #[test]
    fn summary_display() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.median - 2.0).abs() < 1e-12);
        assert!(!format!("{s}").is_empty());
    }
}
