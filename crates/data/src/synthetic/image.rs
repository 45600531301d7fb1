//! FEMNIST-sim: procedurally generated grayscale image classes.
//!
//! Each class gets a smooth random prototype (a low-resolution random grid
//! bilinearly upsampled to the full side length, mimicking the stroke-scale
//! structure of handwritten characters). A sample is its class prototype
//! after a small random translation plus pixel noise, clamped to `[0, 1]`.
//! The task is easily learnable yet non-trivial, and samples of the same
//! class are correlated — the property the paper's non-IID analysis needs.

use crate::sample::Dataset;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic image dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticImageConfig {
    /// Square image side length (pixels).
    pub side: usize,
    /// Number of classes.
    pub classes: usize,
    /// Total number of samples to generate.
    pub samples: usize,
    /// Std-dev of per-pixel Gaussian noise.
    pub noise: f64,
    /// Maximum |translation| in pixels applied per sample.
    pub max_shift: usize,
    /// RNG seed (prototypes and samples are fully determined by it).
    pub seed: u64,
}

impl Default for SyntheticImageConfig {
    fn default() -> Self {
        Self {
            side: 28,
            classes: 10,
            samples: 10_000,
            noise: 0.08,
            max_shift: 2,
            seed: 7,
        }
    }
}

/// Generator for the FEMNIST-sim dataset.
#[derive(Debug, Clone)]
pub struct SyntheticImage {
    config: SyntheticImageConfig,
    prototypes: Vec<Vec<f32>>, // one side*side image per class
}

impl SyntheticImage {
    /// Builds the generator (creates the per-class prototypes).
    ///
    /// # Panics
    ///
    /// Panics if `side < 4`, `classes == 0`, or `samples == 0`.
    pub fn new(config: SyntheticImageConfig) -> Self {
        assert!(config.side >= 4, "side must be at least 4");
        assert!(config.classes > 0, "classes must be positive");
        assert!(config.samples > 0, "samples must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let prototypes = (0..config.classes)
            .map(|_| smooth_field(&mut rng, config.side, 7))
            .collect();
        Self { config, prototypes }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &SyntheticImageConfig {
        &self.config
    }

    /// The prototype image of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn prototype(&self, class: usize) -> &[f32] {
        &self.prototypes[class]
    }

    /// Generates the full dataset (shape `[1, side, side]` per sample,
    /// class-balanced up to rounding).
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));
        let mut ds = Dataset::empty(&[1, cfg.side, cfg.side], cfg.classes);
        let mut buf = vec![0.0f32; cfg.side * cfg.side];
        for i in 0..cfg.samples {
            let class = i % cfg.classes;
            self.render_sample(&mut rng, class, &mut buf);
            ds.push(&buf, class);
        }
        ds
    }

    /// Renders one sample of `class` into `out` (length `side²`): the
    /// shifted prototype, then pixel noise drawn in blocks. Shared by
    /// [`SyntheticImage::generate`] and the per-client shard generator.
    pub(crate) fn render_sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: usize,
        out: &mut [f32],
    ) {
        let s = self.config.side as isize;
        let max = self.config.max_shift as isize;
        let dx = if max > 0 {
            rng.gen_range(-max..=max)
        } else {
            0
        };
        let dy = if max > 0 {
            rng.gen_range(-max..=max)
        } else {
            0
        };
        let proto = &self.prototypes[class];
        for y in 0..s {
            for x in 0..s {
                let sx = (x + dx).clamp(0, s - 1);
                let sy = (y + dy).clamp(0, s - 1);
                out[(y * s + x) as usize] = proto[(sy * s + sx) as usize];
            }
        }
        for_each_standard_normal(rng, out, |v, z| {
            *v = (*v + (self.config.noise * z) as f32).clamp(0.0, 1.0);
        });
    }
}

#[cfg(test)]
impl SyntheticImage {
    /// [`SyntheticImage::generate`] over [`Self::render_sample_reference`]:
    /// the reference the block-sampled renderer must reproduce bit for bit.
    pub(crate) fn generate_reference(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0x5EED));
        let mut ds = Dataset::empty(&[1, cfg.side, cfg.side], cfg.classes);
        let mut buf = vec![0.0f32; cfg.side * cfg.side];
        for i in 0..cfg.samples {
            let class = i % cfg.classes;
            self.render_sample_reference(&mut rng, class, &mut buf);
            ds.push(&buf, class);
        }
        ds
    }

    /// The per-pixel renderer: one polar draw inside each pixel's step.
    pub(crate) fn render_sample_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: usize,
        out: &mut [f32],
    ) {
        let s = self.config.side as isize;
        let max = self.config.max_shift as isize;
        let dx = if max > 0 {
            rng.gen_range(-max..=max)
        } else {
            0
        };
        let dy = if max > 0 {
            rng.gen_range(-max..=max)
        } else {
            0
        };
        let proto = &self.prototypes[class];
        for y in 0..s {
            for x in 0..s {
                let sx = (x + dx).clamp(0, s - 1);
                let sy = (y + dy).clamp(0, s - 1);
                let z = collapois_stats::distribution::standard_normal(rng);
                let v = proto[(sy * s + sx) as usize] + (self.config.noise * z) as f32;
                out[(y * s + x) as usize] = v.clamp(0.0, 1.0);
            }
        }
    }
}

/// A smooth random field in `[0, 1]`: random `grid×grid` control values
/// bilinearly upsampled to `side×side`.
fn smooth_field<R: Rng + ?Sized>(rng: &mut R, side: usize, grid: usize) -> Vec<f32> {
    let control: Vec<f32> = (0..grid * grid).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut out = vec![0.0f32; side * side];
    let scale = (grid - 1) as f32 / (side - 1) as f32;
    for y in 0..side {
        for x in 0..side {
            let gx = x as f32 * scale;
            let gy = y as f32 * scale;
            let x0 = gx.floor() as usize;
            let y0 = gy.floor() as usize;
            let x1 = (x0 + 1).min(grid - 1);
            let y1 = (y0 + 1).min(grid - 1);
            let fx = gx - x0 as f32;
            let fy = gy - y0 as f32;
            let v = control[y0 * grid + x0] * (1.0 - fx) * (1.0 - fy)
                + control[y0 * grid + x1] * fx * (1.0 - fy)
                + control[y1 * grid + x0] * (1.0 - fx) * fy
                + control[y1 * grid + x1] * fx * fy;
            out[y * side + x] = v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::loss::Loss;
    use collapois_nn::optim::Sgd;
    use collapois_nn::workspace::Workspace;
    use collapois_nn::zoo::ModelSpec;

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticImageConfig {
            samples: 50,
            ..Default::default()
        };
        let a = SyntheticImage::new(cfg).generate();
        let b = SyntheticImage::new(cfg).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn values_in_unit_interval() {
        let cfg = SyntheticImageConfig {
            samples: 100,
            side: 16,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        for i in 0..ds.len() {
            assert!(ds.features_of(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn classes_are_balanced() {
        let cfg = SyntheticImageConfig {
            samples: 100,
            classes: 10,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut counts = [0usize; 10];
        for &y in ds.labels() {
            counts[y] += 1;
        }
        assert!(counts.iter().all(|&c| c == 10));
    }

    #[test]
    fn task_is_learnable_by_mlp() {
        let cfg = SyntheticImageConfig {
            side: 12,
            classes: 4,
            samples: 200,
            noise: 0.05,
            max_shift: 1,
            seed: 3,
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = ModelSpec::mlp(12 * 12, &[32], 4).build(&mut rng);
        let mut opt = Sgd::new(0.3);
        let mut ws = Workspace::new();
        let (x, y) = ds.as_batch();
        let x = x.reshaped(&[200, 144]);
        for _ in 0..60 {
            model.train_batch_ws(&x, Loss::CrossEntropy(&y), &mut opt, &mut ws);
        }
        assert!(
            model.evaluate(&x, &y) > 0.9,
            "acc={}",
            model.evaluate(&x, &y)
        );
    }

    #[test]
    fn prototypes_differ_between_classes() {
        let gen = SyntheticImage::new(SyntheticImageConfig::default());
        let d: f32 = gen
            .prototype(0)
            .iter()
            .zip(gen.prototype(1))
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(d > 1.0, "prototypes nearly identical: {d}");
    }
}
