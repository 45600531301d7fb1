//! Model architectures used by the paper's experiments.
//!
//! The paper adopts the configuration of Shamsian et al. \[4\]: a LeNet-based
//! network (two convolution + two fully connected layers) for image clients
//! and a small fully connected head over frozen BERT embeddings for the
//! Sentiment dataset. [`ModelSpec`] captures an architecture as data so that
//! hundreds of simulated clients can instantiate identical models cheaply
//! and deterministically.

use crate::layer::{Conv2d, Dense, Flatten, MaxPool2d, ReLU};
use crate::model::Sequential;
use rand::Rng;

/// A serializable description of a model architecture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelSpec {
    /// Multi-layer perceptron over flat feature vectors.
    Mlp {
        /// Input feature dimension.
        input: usize,
        /// Hidden layer widths (ReLU between all layers).
        hidden: Vec<usize>,
        /// Number of output classes.
        classes: usize,
    },
    /// LeNet-style CNN: conv(k) → ReLU → pool2 → conv(k) → ReLU → pool2 →
    /// flatten → dense → ReLU → dense.
    LeNet {
        /// Input channels (1 for grayscale).
        channels: usize,
        /// Square input side length (e.g. 28).
        side: usize,
        /// Channels of the first and second conv layers.
        conv_channels: (usize, usize),
        /// Square convolution kernel size (LeNet uses 5).
        kernel: usize,
        /// Width of the penultimate dense layer.
        hidden: usize,
        /// Number of output classes.
        classes: usize,
    },
}

impl ModelSpec {
    /// Convenience constructor for an MLP.
    pub fn mlp(input: usize, hidden: &[usize], classes: usize) -> Self {
        Self::Mlp {
            input,
            hidden: hidden.to_vec(),
            classes,
        }
    }

    /// The paper's LeNet configuration for `side`×`side` grayscale images.
    pub fn lenet(side: usize, classes: usize) -> Self {
        Self::LeNet {
            channels: 1,
            side,
            conv_channels: (6, 16),
            kernel: 5,
            hidden: 64,
            classes,
        }
    }

    /// A small CNN (k = 3) usable on sides as small as 10 — the conv-path
    /// variant of the scenario models.
    pub fn small_cnn(side: usize, classes: usize) -> Self {
        Self::LeNet {
            channels: 1,
            side,
            conv_channels: (4, 8),
            kernel: 3,
            hidden: 32,
            classes,
        }
    }

    /// Number of output classes.
    pub fn classes(&self) -> usize {
        match self {
            Self::Mlp { classes, .. } | Self::LeNet { classes, .. } => *classes,
        }
    }

    /// Instantiates the model with freshly initialized weights.
    ///
    /// # Panics
    ///
    /// Panics if the LeNet geometry does not survive two conv+pool stages
    /// (side too small).
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> Sequential {
        match self {
            Self::Mlp {
                input,
                hidden,
                classes,
            } => {
                let mut m = Sequential::new();
                let mut prev = *input;
                for &h in hidden {
                    m = m
                        .push(Box::new(Dense::new(rng, prev, h)))
                        .push(Box::new(ReLU::new()));
                    prev = h;
                }
                m.push(Box::new(Dense::new(rng, prev, *classes)))
            }
            Self::LeNet {
                channels,
                side,
                conv_channels,
                kernel,
                hidden,
                classes,
            } => {
                let (c1, c2) = *conv_channels;
                let k = *kernel;
                let after_conv1 = side.checked_sub(k - 1).expect("lenet: side too small");
                let after_pool1 = after_conv1 / 2;
                let after_conv2 = after_pool1
                    .checked_sub(k - 1)
                    .expect("lenet: side too small");
                let after_pool2 = after_conv2 / 2;
                assert!(
                    after_pool2 > 0,
                    "lenet: side {side} too small for two conv+pool stages"
                );
                let flat = c2 * after_pool2 * after_pool2;
                Sequential::new()
                    .push(Box::new(Conv2d::new(rng, *channels, c1, k)))
                    .push(Box::new(ReLU::new()))
                    .push(Box::new(MaxPool2d::new(2)))
                    .push(Box::new(Conv2d::new(rng, c1, c2, k)))
                    .push(Box::new(ReLU::new()))
                    .push(Box::new(MaxPool2d::new(2)))
                    .push(Box::new(Flatten::new()))
                    .push(Box::new(Dense::new(rng, flat, *hidden)))
                    .push(Box::new(ReLU::new()))
                    .push(Box::new(Dense::new(rng, *hidden, *classes)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let spec = ModelSpec::mlp(10, &[16, 8], 4);
        let m = spec.build(&mut rng);
        let out = m.forward(&Tensor::zeros(&[3, 10]));
        assert_eq!(out.shape(), &[3, 4]);
        assert_eq!(spec.classes(), 4);
    }

    #[test]
    fn lenet_shapes_28() {
        let mut rng = StdRng::seed_from_u64(1);
        let spec = ModelSpec::lenet(28, 10);
        let m = spec.build(&mut rng);
        let out = m.forward(&Tensor::zeros(&[2, 1, 28, 28]));
        assert_eq!(out.shape(), &[2, 10]);
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        let spec = ModelSpec::mlp(6, &[5], 3);
        let params = |seed| {
            spec.build(&mut StdRng::seed_from_u64(seed))
                .params()
                .to_vec()
        };
        let a = params(9);
        let b = params(9);
        assert_eq!(a, b);
        let c = params(10);
        assert_ne!(a, c);
    }

    #[test]
    fn lenet_trains_on_tiny_task() {
        // Two trivially separable image classes: bright vs dark.
        let mut rng = StdRng::seed_from_u64(2);
        let spec = ModelSpec::LeNet {
            channels: 1,
            side: 16,
            conv_channels: (4, 8),
            kernel: 5,
            hidden: 16,
            classes: 2,
        };
        let mut m = spec.build(&mut rng);
        let n = 16;
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let bright = i % 2 == 0;
            data.extend(std::iter::repeat_n(
                if bright { 0.9f32 } else { 0.1 },
                16 * 16,
            ));
            labels.push(if bright { 1usize } else { 0 });
        }
        let x = Tensor::from_vec(data, &[n, 1, 16, 16]);
        let mut opt = crate::optim::Sgd::new(0.05);
        let mut ws = crate::workspace::Workspace::new();
        for _ in 0..30 {
            m.train_batch_ws(
                &x,
                crate::loss::Loss::CrossEntropy(&labels),
                &mut opt,
                &mut ws,
            );
        }
        assert!(m.evaluate(&x, &labels) > 0.9);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn lenet_rejects_tiny_side() {
        let mut rng = StdRng::seed_from_u64(3);
        let _ = ModelSpec::lenet(8, 10).build(&mut rng);
    }
}
