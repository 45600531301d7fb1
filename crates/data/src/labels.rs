//! Label-distribution utilities, including the paper's Eq. 9 client-risk
//! metric.
//!
//! Eq. 9 measures how close a benign client's data is to the attacker's
//! auxiliary data `D_a` via the cosine similarity of **cumulative** label
//! distributions `P_CL(D) = [N_1, N_1+N_2, ...]` — clients closer to `D_a`
//! turn out to be at higher backdoor risk (Fig. 12).

use crate::sample::Dataset;
use collapois_stats::geometry::cosine_similarity_f64;

/// Per-class sample counts of a dataset.
pub fn label_histogram(ds: &Dataset) -> Vec<usize> {
    let mut counts = vec![0usize; ds.num_classes()];
    for &y in ds.labels() {
        counts[y] += 1;
    }
    counts
}

/// Normalized label distribution (sums to 1; all zeros for an empty
/// dataset).
pub fn label_distribution(ds: &Dataset) -> Vec<f64> {
    let counts = label_histogram(ds);
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Cumulative label distribution `P_CL(D)` from the paper's Eq. 9:
/// `N_j = Σ_{q<=j} count_q` (raw counts, not normalized — the cosine is
/// scale-invariant).
pub fn cumulative_label_distribution(ds: &Dataset) -> Vec<f64> {
    cumulative_counts(&label_histogram(ds))
}

/// The running sum of per-class counts in class order, as `f64` — the
/// `P_CL` of Eq. 9 for a dataset whose [`label_histogram`] is `counts`.
pub fn cumulative_counts(counts: &[usize]) -> Vec<f64> {
    let mut acc = 0.0;
    counts
        .iter()
        .map(|&c| {
            acc += c as f64;
            acc
        })
        .collect()
}

/// Cosine similarity of the cumulative label distributions of two datasets
/// (the inner term of Eq. 9). Returns 0.0 when either dataset is empty.
pub fn cumulative_label_cosine(a: &Dataset, b: &Dataset) -> f64 {
    let pa = cumulative_label_distribution(a);
    let pb = cumulative_label_distribution(b);
    cosine_similarity_f64(&pa, &pb).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_labels(labels: &[usize], classes: usize) -> Dataset {
        let mut ds = Dataset::empty(&[1], classes);
        for &y in labels {
            ds.push(&[0.0], y);
        }
        ds
    }

    #[test]
    fn histogram_counts() {
        let ds = with_labels(&[0, 0, 1, 2, 2, 2], 3);
        assert_eq!(label_histogram(&ds), vec![2, 1, 3]);
    }

    #[test]
    fn distribution_normalizes() {
        let ds = with_labels(&[0, 1, 1, 1], 2);
        let d = label_distribution(&ds);
        assert!((d[0] - 0.25).abs() < 1e-12);
        assert!((d[1] - 0.75).abs() < 1e-12);
        let empty = Dataset::empty(&[1], 2);
        assert_eq!(label_distribution(&empty), vec![0.0, 0.0]);
    }

    #[test]
    fn cumulative_is_monotone() {
        let ds = with_labels(&[0, 1, 1, 2], 3);
        assert_eq!(cumulative_label_distribution(&ds), vec![1.0, 3.0, 4.0]);
        assert_eq!(cumulative_counts(&[1, 2, 1]), vec![1.0, 3.0, 4.0]);
        assert!(cumulative_counts(&[]).is_empty());
    }

    #[test]
    fn cosine_identical_distributions_is_one() {
        let a = with_labels(&[0, 1, 2], 3);
        let b = with_labels(&[0, 1, 2, 0, 1, 2], 3);
        assert!((cumulative_label_cosine(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_orders_by_similarity() {
        // Reference concentrated on class 0.
        let reference = with_labels(&[0, 0, 0, 0], 3);
        let close = with_labels(&[0, 0, 0, 1], 3);
        let far = with_labels(&[2, 2, 2, 2], 3);
        let cs_close = cumulative_label_cosine(&reference, &close);
        let cs_far = cumulative_label_cosine(&reference, &far);
        assert!(cs_close > cs_far, "close={cs_close} far={cs_far}");
    }
}
