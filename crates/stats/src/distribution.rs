//! Random-variate samplers built on top of [`rand`].
//!
//! The allowed dependency set does not include `rand_distr`, so the Normal,
//! Gamma and Dirichlet samplers used throughout the reproduction are
//! implemented here. The symmetric Dirichlet `Dir(α)` is the paper's model of
//! label-distribution skew (§II-A): smaller `α` ⇒ more diverse (non-IID)
//! client data.

use rand::Rng;

/// Normal distribution `N(mean, std²)` sampled via the Marsaglia polar method.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use collapois_stats::Normal;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let n = Normal::new(2.0, 0.5).unwrap();
/// let x = n.sample(&mut rng);
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std: f64,
}

impl Normal {
    /// Creates a normal distribution with the given mean and standard
    /// deviation.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] if `std` is negative
    /// or not finite.
    pub fn new(mean: f64, std: f64) -> Result<Self, DistributionError> {
        if std.is_nan() || std < 0.0 || !std.is_finite() || !mean.is_finite() {
            return Err(DistributionError::InvalidParameter {
                what: "normal std must be finite and >= 0",
            });
        }
        Ok(Self { mean, std })
    }

    /// The mean parameter.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The standard-deviation parameter.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.std * standard_normal(rng)
    }

    /// Draws `n` samples: the values of `n` successive [`Normal::sample`]
    /// calls.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        let mut xs = vec![0.0; n];
        fill_standard_normal(rng, &mut xs);
        for x in &mut xs {
            *x = self.mean + self.std * *x;
        }
        xs
    }
}

/// Outputs per block of the polar walk: [`fill_standard_normal`] and
/// [`for_each_standard_normal`] keep one block of candidates on the stack.
const POLAR_BLOCK: usize = 64;

/// One standard-normal variate (Marsaglia polar method): the one-element
/// case of [`fill_standard_normal`].
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut z = [0.0];
    polar_block(rng, &mut z, &mut [0.0]);
    z[0]
}

/// Fills `out` with standard-normal variates (Marsaglia polar method).
///
/// Consumes exactly the draws, and writes exactly the bits, of `out.len()`
/// successive [`standard_normal`] calls, and draws nothing beyond them, so
/// the generator is left where those calls would leave it. The work runs in
/// blocks of up to 64 outputs: the accept/reject walk first fills a block
/// with accepted candidates, then the block is transformed, so no
/// data-dependent branch sits between two logarithms.
pub fn fill_standard_normal<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64]) {
    let mut s = [0.0; POLAR_BLOCK];
    for block in out.chunks_mut(POLAR_BLOCK) {
        polar_block(rng, block, &mut s);
    }
}

/// Calls `f(item, z)` for every item of `out` in order, `z` being the value
/// [`fill_standard_normal`] would write in its place: the same draws and
/// bits, through one block on the stack, with no allocation.
pub fn for_each_standard_normal<R, T, F>(rng: &mut R, out: &mut [T], mut f: F)
where
    R: Rng + ?Sized,
    F: FnMut(&mut T, f64),
{
    let (mut z, mut s) = ([0.0; POLAR_BLOCK], [0.0; POLAR_BLOCK]);
    for chunk in out.chunks_mut(POLAR_BLOCK) {
        let z = &mut z[..chunk.len()];
        polar_block(rng, z, &mut s);
        for (item, &z) in chunk.iter_mut().zip(z.iter()) {
            f(item, z);
        }
    }
}

/// The polar method over one block of `out` (`s` holds at least
/// `out.len()` slots). The walk draws a candidate pair `(u, v)` into slot
/// `i` and advances `i` by its acceptance bit, so a rejected pair is
/// overwritten by the next; once every slot holds an accepted pair, each
/// becomes `u · √(−2 ln s / s)`.
fn polar_block<R: Rng + ?Sized>(rng: &mut R, out: &mut [f64], s: &mut [f64]) {
    let s = &mut s[..out.len()];
    let mut i = 0;
    while i < out.len() {
        let u: f64 = rng.gen_range(-1.0..1.0);
        let v: f64 = rng.gen_range(-1.0..1.0);
        let sq = u * u + v * v;
        out[i] = u;
        s[i] = sq;
        i += usize::from((sq > 0.0) & (sq < 1.0));
    }
    for (z, &s) in out.iter_mut().zip(s.iter()) {
        *z *= (-2.0 * s.ln() / s).sqrt();
    }
}

/// Gamma distribution with shape `k` and scale `θ` (mean `kθ`), sampled with
/// the Marsaglia–Tsang method (shape ≥ 1) plus the standard boost for
/// shape < 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with the given shape and scale.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] unless both parameters
    /// are finite and strictly positive.
    pub fn new(shape: f64, scale: f64) -> Result<Self, DistributionError> {
        if !(shape.is_finite() && scale.is_finite() && shape > 0.0 && scale > 0.0) {
            return Err(DistributionError::InvalidParameter {
                what: "gamma shape and scale must be finite and > 0",
            });
        }
        Ok(Self { shape, scale })
    }

    /// The shape parameter `k`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `θ`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: X ~ Gamma(k+1), U^(1/k) * X ~ Gamma(k).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let boosted = Gamma {
                shape: self.shape + 1.0,
                scale: self.scale,
            };
            return boosted.sample(rng) * u.powf(1.0 / self.shape);
        }
        let d = self.shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(0.0..1.0);
            if u < 1.0 - 0.0331 * x.powi(4) || u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return self.scale * d * v;
            }
        }
    }
}

/// Dirichlet distribution over the probability simplex, used to draw each
/// client's label mix (label-distribution skew, §II-A of the paper).
///
/// Sampled as normalized independent Gamma(αᵢ, 1) variates.
#[derive(Debug, Clone, PartialEq)]
pub struct Dirichlet {
    alpha: Vec<f64>,
}

impl Dirichlet {
    /// Creates a Dirichlet distribution from a full concentration vector.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] if fewer than two
    /// components are given or any component is not finite and positive.
    pub fn new(alpha: Vec<f64>) -> Result<Self, DistributionError> {
        if alpha.len() < 2 {
            return Err(DistributionError::InvalidParameter {
                what: "dirichlet needs at least 2 components",
            });
        }
        if alpha.iter().any(|&a| !(a.is_finite() && a > 0.0)) {
            return Err(DistributionError::InvalidParameter {
                what: "dirichlet concentrations must be finite and > 0",
            });
        }
        Ok(Self { alpha })
    }

    /// Symmetric Dirichlet `Dir(α)` over `k` components — the paper's non-IID
    /// knob: `α < 1` concentrates mass on few labels, `α > 1` spreads it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Dirichlet::new`].
    pub fn symmetric(alpha: f64, k: usize) -> Result<Self, DistributionError> {
        Self::new(vec![alpha; k])
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.alpha.len()
    }

    /// Whether the distribution has zero components (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.alpha.is_empty()
    }

    /// Draws one probability vector (sums to 1).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut draws: Vec<f64> = self
            .alpha
            .iter()
            .map(|&a| {
                Gamma::new(a, 1.0)
                    .expect("validated at construction")
                    .sample(rng)
                    .max(f64::MIN_POSITIVE)
            })
            .collect();
        let sum: f64 = draws.iter().sum();
        for d in &mut draws {
            *d /= sum;
        }
        draws
    }
}

/// Natural log of `n!`, exact summation for small `n` and a Stirling series
/// for the rest (relative error far below f64 epsilon at the switch point).
fn ln_factorial(n: u64) -> f64 {
    if n < 256 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        // ln Γ(x) for x = n + 1, Stirling with three correction terms.
        let x = n as f64 + 1.0;
        (x - 0.5) * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * x)
            - 1.0 / (360.0 * x.powi(3))
            + 1.0 / (1260.0 * x.powi(5))
    }
}

/// Binomial distribution `B(n, p)`: the number of successes in `n`
/// independent trials of probability `p`.
///
/// Sampled by inverse-CDF chop-down starting at the mode and walking
/// outward with the pmf recurrence — one uniform draw per sample and
/// `O(√(np(1−p)))` expected steps, so counting a paper-scale cohort's
/// sampled clients costs a single draw instead of one Bernoulli per client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Creates a binomial distribution over `n` trials of probability `p`.
    ///
    /// # Errors
    ///
    /// Returns [`DistributionError::InvalidParameter`] unless `p ∈ [0, 1]`.
    pub fn new(n: u64, p: f64) -> Result<Self, DistributionError> {
        if !(p.is_finite() && (0.0..=1.0).contains(&p)) {
            return Err(DistributionError::InvalidParameter {
                what: "binomial probability must lie in [0, 1]",
            });
        }
        Ok(Self { n, p })
    }

    /// The number of trials `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The success probability `p`.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let (n, p) = (self.n, self.p);
        if n == 0 || p <= 0.0 {
            return 0;
        }
        if p >= 1.0 {
            return n;
        }
        let nf = n as f64;
        let mode = (((nf + 1.0) * p) as u64).min(n);
        let pm = (ln_factorial(n) - ln_factorial(mode) - ln_factorial(n - mode)
            + mode as f64 * p.ln()
            + (nf - mode as f64) * (1.0 - p).ln())
        .exp();
        let odds = p / (1.0 - p);
        let mut u = rng.gen_range(0.0..1.0) - pm;
        if u < 0.0 {
            return mode;
        }
        // Alternate below/above the mode, consuming each pmf value once;
        // the visit order is immaterial to the sampled distribution.
        let (mut lo, mut hi) = (mode, mode);
        let (mut p_lo, mut p_hi) = (pm, pm);
        loop {
            let mut advanced = false;
            if lo > 0 {
                p_lo *= lo as f64 / ((nf - lo as f64 + 1.0) * odds);
                lo -= 1;
                u -= p_lo;
                if u < 0.0 {
                    return lo;
                }
                advanced = true;
            }
            if hi < n {
                p_hi *= (nf - hi as f64) / (hi as f64 + 1.0) * odds;
                hi += 1;
                u -= p_hi;
                if u < 0.0 {
                    return hi;
                }
                advanced = true;
            }
            if !advanced {
                // Residual rounding mass: the support is exhausted, so the
                // mode is as good a tiebreak as any.
                return mode;
            }
        }
    }
}

/// Error produced when constructing a distribution with invalid parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributionError {
    /// A parameter was outside the distribution's domain.
    InvalidParameter {
        /// Human-readable description of the violated constraint.
        what: &'static str,
    },
}

impl std::fmt::Display for DistributionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter { what } => write!(f, "invalid distribution parameter: {what}"),
        }
    }
}

impl std::error::Error for DistributionError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::{mean, variance};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = Normal::new(3.0, 2.0).unwrap();
        let xs = n.sample_n(&mut rng, 50_000);
        assert!((mean(&xs) - 3.0).abs() < 0.05);
        assert!((variance(&xs).sqrt() - 2.0).abs() < 0.05);
    }

    #[test]
    fn normal_rejects_negative_std() {
        assert!(Normal::new(0.0, -1.0).is_err());
        assert!(Normal::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = Gamma::new(4.0, 0.5).unwrap();
        let xs: Vec<f64> = (0..50_000).map(|_| g.sample(&mut rng)).collect();
        // mean = kθ = 2, var = kθ² = 1
        assert!((mean(&xs) - 2.0).abs() < 0.05, "mean {}", mean(&xs));
        assert!((variance(&xs) - 1.0).abs() < 0.1);
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = Gamma::new(0.3, 1.0).unwrap();
        let xs: Vec<f64> = (0..100_000).map(|_| g.sample(&mut rng)).collect();
        assert!((mean(&xs) - 0.3).abs() < 0.02, "mean {}", mean(&xs));
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn gamma_rejects_bad_params() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(3);
        for alpha in [0.01, 0.1, 1.0, 10.0, 100.0] {
            let d = Dirichlet::symmetric(alpha, 10).unwrap();
            for _ in 0..20 {
                let p = d.sample(&mut rng);
                assert_eq!(p.len(), 10);
                let s: f64 = p.iter().sum();
                assert!((s - 1.0).abs() < 1e-9, "alpha={alpha}: sum={s}");
                assert!(p.iter().all(|&x| x >= 0.0));
            }
        }
    }

    #[test]
    fn dirichlet_concentration_controls_skew() {
        // With small alpha the max component dominates; with large alpha the
        // vector is near-uniform. This is exactly the non-IID knob.
        let mut rng = StdRng::seed_from_u64(4);
        let sparse = Dirichlet::symmetric(0.05, 10).unwrap();
        let dense = Dirichlet::symmetric(100.0, 10).unwrap();
        let avg_max = |d: &Dirichlet, rng: &mut StdRng| {
            let mut acc = 0.0;
            for _ in 0..200 {
                let p = d.sample(rng);
                acc += p.iter().cloned().fold(0.0, f64::max);
            }
            acc / 200.0
        };
        let sparse_max = avg_max(&sparse, &mut rng);
        let dense_max = avg_max(&dense, &mut rng);
        assert!(
            sparse_max > 0.6 && dense_max < 0.2,
            "sparse_max={sparse_max}, dense_max={dense_max}"
        );
    }

    #[test]
    fn dirichlet_rejects_degenerate() {
        assert!(Dirichlet::symmetric(1.0, 1).is_err());
        assert!(Dirichlet::new(vec![1.0, -0.5]).is_err());
    }

    #[test]
    fn binomial_moments_at_cohort_scale() {
        let mut rng = StdRng::seed_from_u64(6);
        let b = Binomial::new(5000, 0.25).unwrap();
        let xs: Vec<f64> = (0..20_000).map(|_| b.sample(&mut rng) as f64).collect();
        // mean = np = 1250, var = np(1-p) = 937.5
        assert!((mean(&xs) - 1250.0).abs() < 1.0, "mean {}", mean(&xs));
        assert!(
            (variance(&xs) - 937.5).abs() < 30.0,
            "var {}",
            variance(&xs)
        );
        assert!(xs.iter().all(|&x| (0.0..=5000.0).contains(&x)));
    }

    #[test]
    fn binomial_small_n_matches_exact_pmf() {
        // n=4, p=0.5: P(k) = {1,4,6,4,1}/16. A chi-square-ish sanity bound.
        let mut rng = StdRng::seed_from_u64(7);
        let b = Binomial::new(4, 0.5).unwrap();
        let mut counts = [0u32; 5];
        for _ in 0..16_000 {
            counts[b.sample(&mut rng) as usize] += 1;
        }
        let expected = [1000.0, 4000.0, 6000.0, 4000.0, 1000.0];
        for (k, (&c, &e)) in counts.iter().zip(&expected).enumerate() {
            assert!(
                (c as f64 - e).abs() < 5.0 * e.sqrt(),
                "k={k}: got {c}, expected {e}"
            );
        }
    }

    #[test]
    fn binomial_edges_and_determinism() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(Binomial::new(100, 0.0).unwrap().sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 1.0).unwrap().sample(&mut rng), 100);
        assert_eq!(Binomial::new(0, 0.5).unwrap().sample(&mut rng), 0);
        let b = Binomial::new(3000, 0.1).unwrap();
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..32).map(|_| b.sample(&mut r)).collect()
        };
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(9);
            (0..32).map(|_| b.sample(&mut r)).collect()
        };
        assert_eq!(a, c);
    }

    #[test]
    fn binomial_rejects_bad_probability() {
        assert!(Binomial::new(10, -0.1).is_err());
        assert!(Binomial::new(10, 1.1).is_err());
        assert!(Binomial::new(10, f64::NAN).is_err());
    }

    #[test]
    fn ln_factorial_is_continuous_across_the_stirling_switch() {
        // ln(256!) = ln(255!) + ln 256 must hold across the branch change.
        let exact = ln_factorial(255) + 256f64.ln();
        assert!((ln_factorial(256) - exact).abs() < 1e-9);
    }

    #[test]
    fn error_display_nonempty() {
        let e = Normal::new(0.0, -1.0).unwrap_err();
        assert!(!format!("{e}").is_empty());
        assert!(!format!("{e:?}").is_empty());
    }
}

/// The block sampler against the one-variate-at-a-time polar loop it
/// replaced: the same bits, the same draws consumed, nothing read ahead.
#[cfg(test)]
mod block_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The polar loop as written before block sampling: one branch per
    /// candidate pair.
    fn polar_reference<R: Rng + ?Sized>(rng: &mut R) -> f64 {
        loop {
            let u: f64 = rng.gen_range(-1.0..1.0);
            let v: f64 = rng.gen_range(-1.0..1.0);
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// The three block entry points over `rng`, each from a fresh copy:
    /// `fill_standard_normal`, `for_each_standard_normal` and `n` calls of
    /// `standard_normal`, with the generator each leaves behind.
    fn block_paths<R: Rng + Clone>(rng: &R, n: usize) -> [(Vec<f64>, R); 3] {
        let mut fill = rng.clone();
        let mut zs = vec![0.0; n];
        fill_standard_normal(&mut fill, &mut zs);
        let mut each = rng.clone();
        let mut each_zs = vec![0.0; n];
        for_each_standard_normal(&mut each, &mut each_zs, |x, z| *x = z);
        let mut one = rng.clone();
        let one_zs = (0..n).map(|_| standard_normal(&mut one)).collect();
        [(zs, fill), (each_zs, each), (one_zs, one)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Lengths 0–200 cross the 64-output block edge up to three times.
        #[test]
        fn block_sampler_matches_the_polar_loop_bitwise(
            seed in 0u64..u64::MAX,
            n in 0usize..=200,
        ) {
            let start = StdRng::seed_from_u64(seed);
            let mut reference = start.clone();
            let want: Vec<f64> = (0..n).map(|_| polar_reference(&mut reference)).collect();
            for (path, (zs, rng)) in block_paths(&start, n).into_iter().enumerate() {
                prop_assert_eq!(bits(&zs), bits(&want), "path {}, n = {}", path, n);
                prop_assert_eq!(&rng, &reference, "path {}, n = {}", path, n);
            }
        }
    }

    /// Replays a fixed script of 64-bit draws and panics past its end, so
    /// a walk that reads ahead fails.
    #[derive(Clone)]
    struct Scripted {
        draws: Vec<u64>,
        next: usize,
    }

    impl RngCore for Scripted {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let draw = *self.draws.get(self.next).expect("read past the script");
            self.next += 1;
            draw
        }
    }

    /// `u = 0, v = 0`: `s == 0`, rejected.
    const ZERO_PAIR: [u64; 2] = [1 << 63, 1 << 63];
    /// `u = −1, v = 0`: `s == 1`, rejected.
    const UNIT_PAIR: [u64; 2] = [0, 1 << 63];
    /// `u = −1, v = −0.5`: `s > 1`, rejected.
    const OUTER_PAIR: [u64; 2] = [0, 1 << 62];

    #[test]
    fn forced_rejections_cost_draws_but_no_slot() {
        const N: usize = 130;
        // (slot, rejected pairs drawn before its accepted one): the first
        // slot, inside the first block, three in a row on the first
        // block's last slot, both edges of the second block, the last slot.
        let rejections = [(0, 1), (5, 2), (63, 3), (64, 1), (127, 1), (129, 1)];
        let kinds = [ZERO_PAIR, UNIT_PAIR, OUTER_PAIR];
        let mut draws = Vec::new();
        let mut rejected = 0;
        for k in 0..N {
            let count = rejections.iter().find(|r| r.0 == k).map_or(0, |r| r.1);
            for _ in 0..count {
                draws.extend(kinds[rejected % kinds.len()]);
                rejected += 1;
            }
            // Accepted: u ≈ −0.5, v ≈ 0.5, s ≈ 0.5.
            let k = k as u64;
            draws.extend([(1 << 62) + (k << 20), (3 << 62) - (k << 20)]);
        }
        let script = Scripted { draws, next: 0 };

        let mut reference = script.clone();
        let want: Vec<f64> = (0..N).map(|_| polar_reference(&mut reference)).collect();
        assert_eq!(reference.next, script.draws.len(), "script of N variates");
        for (path, (zs, rng)) in block_paths(&script, N).into_iter().enumerate() {
            assert_eq!(bits(&zs), bits(&want), "path {path}");
            assert_eq!(rng.next, script.draws.len(), "path {path}: draws consumed");
        }
    }
}
