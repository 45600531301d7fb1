//! Theorem 1: minimum number of compromised clients.
//!
//! With benign-gradient angles `β_i ~ N(μ_α, σ²)` against the aggregated
//! malicious direction and dynamic rates `ψ_c ~ U[a, b]`, poisoning succeeds
//! in a round (worst case) when
//!
//! `|C| ≥ (2 − σ² − μ_α²) / (a + b + 2 − σ² − μ_α²) · |N|`   (Eq. 5)
//!
//! Larger `μ_α`/`σ` (more diverse local data ⇒ more scattered benign
//! gradients) shrink the requirement — the paper's central connection
//! between non-IIDness, attack cost and stealth (Fig. 5).

use collapois_stats::descriptive::{mean, std_dev};

/// Estimated angle statistics `(μ_α, σ)` in radians.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AngleStats {
    /// Mean angle μ_α between benign gradients and the aggregated malicious
    /// direction.
    pub mu: f64,
    /// Standard deviation σ of those angles.
    pub sigma: f64,
    /// Number of angle samples used.
    pub n: usize,
}

/// Estimates `(μ_α, σ)` from angle samples (radians).
pub fn estimate_angle_stats(angles: &[f64]) -> AngleStats {
    AngleStats {
        mu: mean(angles),
        sigma: std_dev(angles),
        n: angles.len(),
    }
}

/// Eq. 5: the lower bound on `|C|` (as a real number of clients; callers
/// typically `ceil()` it). Returns 0 when `2 − σ² − μ² ≤ 0` — gradients so
/// scattered that any coordinated set succeeds in the worst-case model.
///
/// # Panics
///
/// Panics unless `0 < a < b ≤ 1` and `n > 0`.
pub fn theorem1_bound(mu: f64, sigma: f64, a: f64, b: f64, n: usize) -> f64 {
    assert!(
        0.0 < a && a < b && b <= 1.0,
        "psi range must satisfy 0 < a < b <= 1"
    );
    assert!(n > 0, "need at least one client");
    let num = 2.0 - sigma * sigma - mu * mu;
    if num <= 0.0 {
        return 0.0;
    }
    num / (a + b + num) * n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_decreases_with_scatter() {
        let n = 1000;
        let tight = theorem1_bound(0.1, 0.1, 0.9, 1.0, n);
        let loose = theorem1_bound(1.0, 0.5, 0.9, 1.0, n);
        assert!(
            loose < tight,
            "more scatter must need fewer clients: {loose} vs {tight}"
        );
    }

    #[test]
    fn bound_is_monotone_in_mu_and_sigma() {
        let n = 100;
        let mut prev = f64::INFINITY;
        for mu in [0.1, 0.4, 0.8, 1.2] {
            let b = theorem1_bound(mu, 0.2, 0.9, 1.0, n);
            assert!(b <= prev);
            prev = b;
        }
        let mut prev = f64::INFINITY;
        for sigma in [0.05, 0.2, 0.5, 1.0] {
            let b = theorem1_bound(0.5, sigma, 0.9, 1.0, n);
            assert!(b <= prev);
            prev = b;
        }
    }

    #[test]
    fn bound_within_zero_and_n() {
        for mu in [0.0, 0.5, 1.0, 1.5] {
            for sigma in [0.0, 0.3, 0.8] {
                let b = theorem1_bound(mu, sigma, 0.9, 1.0, 500);
                assert!((0.0..=500.0).contains(&b), "mu={mu} sigma={sigma}: {b}");
            }
        }
    }

    #[test]
    fn extreme_scatter_needs_no_clients() {
        // 2 − σ² − μ² ≤ 0.
        assert_eq!(theorem1_bound(1.5, 0.5, 0.9, 1.0, 100), 0.0);
    }

    #[test]
    fn iid_limit_approaches_half() {
        // μ = σ = 0 (perfectly aligned benign gradients): bound → 2/(a+b+2),
        // with a=b=1 that's 1/2 of N — a majority-style requirement.
        let b = theorem1_bound(0.0, 0.0, 0.999, 1.0, 1000);
        assert!((b - 2.0 / (0.999 + 1.0 + 2.0) * 1000.0).abs() < 1e-6);
    }

    #[test]
    fn angle_stats_basics() {
        let s = estimate_angle_stats(&[1.0, 1.0, 1.0]);
        assert_eq!(s.mu, 1.0);
        assert_eq!(s.sigma, 0.0);
        assert_eq!(s.n, 3);
    }

    #[test]
    #[should_panic(expected = "psi range")]
    fn rejects_bad_psi() {
        let _ = theorem1_bound(0.5, 0.1, 1.0, 0.9, 10);
    }
}
