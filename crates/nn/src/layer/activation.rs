//! Element-wise activation layers.

use super::Layer;
use crate::tensor::Tensor;

/// Rectified linear unit: `max(0, x)` element-wise.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReLU;

impl ReLU {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for ReLU {
    fn forward_into(&self, _params: &[f32], input: &Tensor, out: &mut Tensor) {
        out.copy_from(input);
        for v in out.data_mut() {
            let active = *v > 0.0;
            if !active {
                *v = 0.0;
            }
        }
    }

    fn backward_into(
        &self,
        _params: &[f32],
        _grads: &mut [f32],
        input: &Tensor,
        _output: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    ) {
        assert_eq!(grad_out.len(), input.len(), "relu grad shape mismatch");
        grad_in.resize_to(input.shape());
        grad_in.data_mut().copy_from_slice(grad_out.data());
        for (v, &x) in grad_in.data_mut().iter_mut().zip(input.data()) {
            let active = x > 0.0;
            if !active {
                *v = 0.0;
            }
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(*self)
    }
}

/// Hyperbolic tangent activation.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tanh;

impl Tanh {
    /// Creates a Tanh layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Tanh {
    fn forward_into(&self, _params: &[f32], input: &Tensor, out: &mut Tensor) {
        out.copy_from(input);
        for v in out.data_mut() {
            *v = v.tanh();
        }
    }

    fn backward_into(
        &self,
        _params: &[f32],
        _grads: &mut [f32],
        _input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    ) {
        assert_eq!(grad_out.len(), output.len(), "tanh grad shape mismatch");
        grad_in.resize_to(output.shape());
        grad_in.data_mut().copy_from_slice(grad_out.data());
        for (gv, &yv) in grad_in.data_mut().iter_mut().zip(output.data()) {
            *gv *= 1.0 - yv * yv;
        }
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testing::{backward, forward};

    #[test]
    fn relu_forward_and_backward() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], &[1, 4]);
        let out = forward(&ReLU, &[], &x);
        assert_eq!(out.data(), &[0.0, 0.0, 2.0, 0.0]);
        let g = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[1, 4]);
        let gx = backward(&ReLU, &[], &mut [], &x, &g);
        assert_eq!(gx.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn tanh_gradient_matches_derivative() {
        let x = Tensor::from_vec(vec![0.5, -0.3], &[1, 2]);
        let out = forward(&Tanh, &[], &x);
        assert!((out.data()[0] - 0.5f32.tanh()).abs() < 1e-6);
        let g = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let gx = backward(&Tanh, &[], &mut [], &x, &g);
        let expect = 1.0 - 0.5f32.tanh().powi(2);
        assert!((gx.data()[0] - expect).abs() < 1e-6);
    }

    #[test]
    fn relu_has_no_params() {
        assert_eq!(ReLU.param_count(), 0);
        assert!(ReLU.take_init_params().is_empty());
    }

    #[test]
    fn relu_reuses_buffers_and_matches_fresh_ones() {
        let mut out = Tensor::default();
        let mut gin = Tensor::default();
        for scale in [1.0f32, -2.0, 0.5] {
            let x = Tensor::from_vec(vec![-scale, 0.0, 2.0 * scale], &[1, 3]);
            ReLU.forward_into(&[], &x, &mut out);
            assert_eq!(out, forward(&ReLU, &[], &x));
            let g = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]);
            ReLU.backward_into(&[], &mut [], &x, &out, &g, &mut gin);
            assert_eq!(gin, backward(&ReLU, &[], &mut [], &x, &g));
        }
    }
}
