//! Gradient-descent optimizers over flat parameter vectors.

use crate::kernels;

/// An optimizer that updates a flat parameter vector in place given a flat
/// gradient of the same length.
pub trait Optimizer: std::fmt::Debug + Send {
    /// Applies one update step. `params` and `grads` must have equal length.
    fn step(&mut self, params: &mut [f32], grads: &[f32]);

    /// Current base learning rate.
    fn learning_rate(&self) -> f64;

    /// Sets the base learning rate (e.g. for decay schedules).
    fn set_learning_rate(&mut self, lr: f64);
}

/// Stochastic gradient descent with optional momentum and weight decay.
///
/// # Example
///
/// ```
/// use collapois_nn::optim::{Optimizer, Sgd};
/// let mut opt = Sgd::new(0.5);
/// let mut params = vec![1.0f32];
/// opt.step(&mut params, &[2.0]);
/// assert!((params[0] - 0.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Sgd {
    lr: f64,
    momentum: f64,
    weight_decay: f64,
    velocity: Vec<f32>,
}

impl Sgd {
    /// Plain SGD with the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Self {
            lr,
            momentum: 0.0,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Adds classical momentum.
    ///
    /// # Panics
    ///
    /// Panics if `momentum` is outside `[0, 1)`.
    pub fn with_momentum(mut self, momentum: f64) -> Self {
        assert!((0.0..1.0).contains(&momentum), "momentum must be in [0,1)");
        self.momentum = momentum;
        self
    }

    /// Adds l2 weight decay.
    ///
    /// # Panics
    ///
    /// Panics if `weight_decay < 0`.
    pub fn with_weight_decay(mut self, weight_decay: f64) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        let lr = self.lr as f32;
        let wd = self.weight_decay as f32;
        if self.momentum > 0.0 {
            if self.velocity.len() != params.len() {
                self.velocity = vec![0.0; params.len()];
            }
            let mu = self.momentum as f32;
            for ((p, &g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
                let g = g + wd * *p;
                *v = mu * *v + g;
                *p -= lr * *v;
            }
        } else if wd == 0.0 {
            // Plain SGD is a pure axpy: p += (−lr)·g.
            kernels::axpy(params, -lr, grads);
        } else {
            for (p, &g) in params.iter_mut().zip(grads) {
                *p -= lr * (g + wd * *p);
            }
        }
    }

    fn learning_rate(&self) -> f64 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f64) {
        assert!(lr > 0.0, "learning rate must be positive");
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_basic_step() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![1.0f32, -1.0];
        opt.step(&mut p, &[1.0, -1.0]);
        assert!((p[0] - 0.9).abs() < 1e-6);
        assert!((p[1] + 0.9).abs() < 1e-6);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut opt = Sgd::new(0.1).with_momentum(0.9);
        let mut p = vec![0.0f32];
        opt.step(&mut p, &[1.0]);
        let first = p[0];
        opt.step(&mut p, &[1.0]);
        let second_delta = p[0] - first;
        // Second step is larger due to momentum.
        assert!(second_delta.abs() > first.abs());
    }

    #[test]
    fn sgd_weight_decay_shrinks_params() {
        let mut opt = Sgd::new(0.1).with_weight_decay(0.5);
        let mut p = vec![1.0f32];
        opt.step(&mut p, &[0.0]);
        assert!(p[0] < 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn sgd_rejects_length_mismatch() {
        let mut opt = Sgd::new(0.1);
        let mut p = vec![0.0f32; 2];
        opt.step(&mut p, &[1.0]);
    }

    #[test]
    fn learning_rate_accessors() {
        let mut opt = Sgd::new(0.1);
        assert!((opt.learning_rate() - 0.1).abs() < 1e-12);
        opt.set_learning_rate(0.01);
        assert!((opt.learning_rate() - 0.01).abs() < 1e-12);
    }
}
