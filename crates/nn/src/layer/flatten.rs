//! Flattening layer: `[N, ...]` → `[N, prod(...)]`.

use super::Layer;
use crate::tensor::Tensor;

/// Flattens all non-batch dimensions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self
    }
}

impl Layer for Flatten {
    fn forward_into(&self, _params: &[f32], input: &Tensor, out: &mut Tensor) {
        let n = input.batch();
        let rest: usize = input.shape()[1..].iter().product();
        out.resize_to(&[n, rest]);
        out.data_mut().copy_from_slice(input.data());
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
        grad_in.resize_to(input.shape());
        grad_in.data_mut().copy_from_slice(grad_out.data());
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
    fn roundtrip() {
        let x = Tensor::zeros(&[2, 3, 4, 4]);
        let out = forward(&Flatten, &[], &x);
        assert_eq!(out.shape(), &[2, 48]);
        let back = backward(&Flatten, &[], &mut [], &x, &out);
        assert_eq!(back.shape(), &[2, 3, 4, 4]);
    }
}
