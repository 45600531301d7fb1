//! Weight initialization schemes.

use collapois_stats::distribution::for_each_standard_normal;
use rand::Rng;

/// Initialization scheme for layer weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Init {
    /// Kaiming/He normal: `N(0, 2 / fan_in)` — suited to ReLU networks
    /// (the default).
    #[default]
    HeNormal,
    /// Xavier/Glorot uniform: `U[-√(6/(fan_in+fan_out)), +√(6/(fan_in+fan_out))]`.
    XavierUniform,
    /// All zeros (used for biases).
    Zeros,
}

impl Init {
    /// Fills `out` with `n = out.len()` initialized values.
    pub fn fill<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        out: &mut [f32],
        fan_in: usize,
        fan_out: usize,
    ) {
        match self {
            Init::HeNormal => {
                let std = (2.0 / fan_in.max(1) as f64).sqrt();
                for_each_standard_normal(rng, out, |w, z| *w = (z * std) as f32);
            }
            Init::XavierUniform => {
                let limit = (6.0 / (fan_in + fan_out).max(1) as f64).sqrt();
                for w in out {
                    *w = rng.gen_range(-limit..limit) as f32;
                }
            }
            Init::Zeros => out.fill(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn he_normal_std_scales_with_fan_in() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut buf = vec![0.0f32; 20_000];
        Init::HeNormal.fill(&mut rng, &mut buf, 100, 50);
        let var: f64 = buf.iter().map(|&w| (w as f64).powi(2)).sum::<f64>() / buf.len() as f64;
        assert!((var - 0.02).abs() < 0.002, "var={var}"); // 2/100
    }

    #[test]
    fn xavier_respects_limit() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = vec![0.0f32; 10_000];
        Init::XavierUniform.fill(&mut rng, &mut buf, 30, 30);
        let limit = (6.0f64 / 60.0).sqrt() as f32;
        assert!(buf.iter().all(|&w| w.abs() <= limit));
        assert!(buf.iter().any(|&w| w.abs() > 0.5 * limit));
    }

    #[test]
    fn zeros_is_zero() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = vec![1.0f32; 8];
        Init::Zeros.fill(&mut rng, &mut buf, 4, 4);
        assert!(buf.iter().all(|&w| w == 0.0));
    }
}
