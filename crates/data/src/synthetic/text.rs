//! Sentiment-sim: class-conditioned Gaussian embedding vectors.
//!
//! The paper's Sentiment pipeline freezes a BERT tokenizer/encoder and trains
//! only a small fully connected head, so the effective learning problem is a
//! classifier over fixed sentence embeddings. This generator reproduces that
//! regime: each class has a mean embedding direction, and samples are that
//! mean plus isotropic Gaussian noise. Optional sub-topic structure (several
//! cluster centers per class) keeps the task from being linearly trivial.

use crate::sample::Dataset;
use collapois_stats::distribution::for_each_standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the synthetic text-embedding dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticTextConfig {
    /// Embedding dimension (stand-in for the BERT sentence embedding).
    pub dim: usize,
    /// Number of classes (2 for sentiment).
    pub classes: usize,
    /// Sub-topic clusters per class.
    pub clusters_per_class: usize,
    /// Total number of samples.
    pub samples: usize,
    /// Within-cluster noise std-dev.
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticTextConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            classes: 2,
            clusters_per_class: 3,
            samples: 20_000,
            noise: 0.6,
            seed: 11,
        }
    }
}

/// Generator for the Sentiment-sim dataset.
#[derive(Debug, Clone)]
pub struct SyntheticText {
    config: SyntheticTextConfig,
    centers: Vec<Vec<f32>>, // classes * clusters_per_class centers
}

impl SyntheticText {
    /// Builds the generator (draws the cluster centers).
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn new(config: SyntheticTextConfig) -> Self {
        assert!(config.dim > 0, "dim must be positive");
        assert!(config.classes > 0, "classes must be positive");
        assert!(
            config.clusters_per_class > 0,
            "clusters_per_class must be positive"
        );
        assert!(config.samples > 0, "samples must be positive");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let centers = (0..config.classes * config.clusters_per_class)
            .map(|_| {
                let mut center = vec![0.0f32; config.dim];
                for_each_standard_normal(&mut rng, &mut center, |c, z| *c = z as f32);
                center
            })
            .collect();
        Self { config, centers }
    }

    /// The configuration this generator was built with.
    pub fn config(&self) -> &SyntheticTextConfig {
        &self.config
    }

    /// Cluster center `cluster` of `class`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn center(&self, class: usize, cluster: usize) -> &[f32] {
        &self.centers[class * self.config.clusters_per_class + cluster]
    }

    /// Generates the full dataset (shape `[dim]` per sample, class-balanced
    /// up to rounding).
    pub fn generate(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBEEF));
        let mut ds = Dataset::empty(&[cfg.dim], cfg.classes);
        let mut buf = vec![0.0f32; cfg.dim];
        for i in 0..cfg.samples {
            let class = i % cfg.classes;
            self.render_sample(&mut rng, class, &mut buf);
            ds.push(&buf, class);
        }
        ds
    }

    /// Renders one sample of `class` into `out` (length `dim`): a random
    /// sub-topic center plus isotropic noise drawn in blocks. Shared by
    /// [`SyntheticText::generate`] and the per-client shard generator.
    pub(crate) fn render_sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: usize,
        out: &mut [f32],
    ) {
        let cfg = &self.config;
        let cluster = rng.gen_range(0..cfg.clusters_per_class);
        out.copy_from_slice(self.center(class, cluster));
        for_each_standard_normal(rng, out, |b, z| *b += (cfg.noise * z) as f32);
    }
}

#[cfg(test)]
impl SyntheticText {
    /// [`SyntheticText::generate`] over [`Self::render_sample_reference`]:
    /// the reference the block-sampled renderer must reproduce bit for bit.
    pub(crate) fn generate_reference(&self) -> Dataset {
        let cfg = &self.config;
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(0xBEEF));
        let mut ds = Dataset::empty(&[cfg.dim], cfg.classes);
        let mut buf = vec![0.0f32; cfg.dim];
        for i in 0..cfg.samples {
            let class = i % cfg.classes;
            self.render_sample_reference(&mut rng, class, &mut buf);
            ds.push(&buf, class);
        }
        ds
    }

    /// The per-dimension renderer: one polar draw inside each value's step.
    pub(crate) fn render_sample_reference<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        class: usize,
        out: &mut [f32],
    ) {
        let cfg = &self.config;
        let cluster = rng.gen_range(0..cfg.clusters_per_class);
        let center = self.center(class, cluster);
        for (b, &c) in out.iter_mut().zip(center) {
            *b = c + (cfg.noise * collapois_stats::distribution::standard_normal(rng)) as f32;
        }
    }
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
        let cfg = SyntheticTextConfig {
            samples: 64,
            ..Default::default()
        };
        assert_eq!(
            SyntheticText::new(cfg).generate(),
            SyntheticText::new(cfg).generate()
        );
    }

    #[test]
    fn shapes_and_balance() {
        let cfg = SyntheticTextConfig {
            samples: 100,
            ..Default::default()
        };
        let ds = SyntheticText::new(cfg).generate();
        assert_eq!(ds.len(), 100);
        assert_eq!(ds.sample_shape(), &[64]);
        let ones = ds.labels().iter().filter(|&&y| y == 1).count();
        assert_eq!(ones, 50);
    }

    #[test]
    fn task_is_learnable_by_head() {
        let cfg = SyntheticTextConfig {
            dim: 32,
            samples: 400,
            noise: 0.4,
            ..Default::default()
        };
        let ds = SyntheticText::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = ModelSpec::mlp(32, &[16], 2).build(&mut rng);
        let mut opt = Sgd::new(0.2);
        let mut ws = Workspace::new();
        let (x, y) = ds.as_batch();
        for _ in 0..80 {
            model.train_batch_ws(&x, Loss::CrossEntropy(&y), &mut opt, &mut ws);
        }
        assert!(
            model.evaluate(&x, &y) > 0.95,
            "acc={}",
            model.evaluate(&x, &y)
        );
    }
}
