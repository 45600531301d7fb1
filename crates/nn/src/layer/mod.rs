//! Neural-network layers with explicit forward/backward passes.
//!
//! Layers read their parameters from, and accumulate their gradients into,
//! ranges of the flat arenas [`crate::model::Sequential`] owns — the
//! representation all federated-learning aggregation in this workspace
//! operates on.

mod activation;
mod conv;
mod dense;
mod flatten;
mod pool;

pub use activation::{ReLU, Tanh};
pub use conv::Conv2d;
pub use dense::Dense;
pub use flatten::Flatten;
pub use pool::MaxPool2d;

use crate::tensor::Tensor;

/// A differentiable layer.
///
/// A layer owns no parameters and no forward state: [`crate::model::Sequential`]
/// keeps every layer's parameters in one flat arena and its gradients in a
/// second one, and hands each layer its own range of both (weights
/// row-major, then bias). The backward pass receives the tensors the
/// forward pass read and wrote, which the model's workspace still holds,
/// so nothing is cached or copied between the two. Every pass writes into
/// caller-owned buffers, resized as needed so their heap allocations are
/// reused across minibatches.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Forward pass: writes the layer output for `input` into `out`.
    /// `params` is this layer's parameter range.
    fn forward_into(&self, params: &[f32], input: &Tensor, out: &mut Tensor);

    /// Backward pass of the forward pass that read `input` and wrote
    /// `output`: **accumulates** parameter gradients into `grads` and writes
    /// the gradient w.r.t. `input` into `grad_in`.
    fn backward_into(
        &self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        grad_in: &mut Tensor,
    );

    /// Backward pass for the bottom-most layer of a network: accumulates
    /// this layer's parameter gradients exactly like
    /// [`Layer::backward_into`] but is allowed to skip the input-gradient
    /// computation, since no layer below exists to consume it. `scratch` is
    /// working space; its contents after the call are unspecified.
    ///
    /// The default computes the input gradient anyway (into `scratch`);
    /// layers whose input gradient is a significant cost (Dense) override
    /// it. Parameter gradients are identical either way, so skipping is
    /// invisible to training results.
    fn backward_head_into(
        &self,
        params: &[f32],
        grads: &mut [f32],
        input: &Tensor,
        output: &Tensor,
        grad_out: &Tensor,
        scratch: &mut Tensor,
    ) {
        self.backward_into(params, grads, input, output, grad_out, scratch);
    }

    /// Number of trainable parameters.
    fn param_count(&self) -> usize {
        0
    }

    /// Hands over the parameters drawn at construction, in arena order;
    /// [`crate::model::Sequential::push`] moves them into the model's
    /// arena. Empty for parameter-free layers and on every later call.
    fn take_init_params(&mut self) -> Vec<f32> {
        Vec::new()
    }

    /// Clones the layer.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Allocating single-layer passes for the layer unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::Layer;
    use crate::tensor::Tensor;

    pub fn forward(layer: &dyn Layer, params: &[f32], x: &Tensor) -> Tensor {
        let mut out = Tensor::default();
        layer.forward_into(params, x, &mut out);
        out
    }

    /// Runs the forward pass on `x`, then the backward pass of `grad_out`;
    /// returns the input gradient. Parameter gradients accumulate into
    /// `grads`.
    pub fn backward(
        layer: &dyn Layer,
        params: &[f32],
        grads: &mut [f32],
        x: &Tensor,
        grad_out: &Tensor,
    ) -> Tensor {
        let out = forward(layer, params, x);
        let mut grad_in = Tensor::default();
        layer.backward_into(params, grads, x, &out, grad_out, &mut grad_in);
        grad_in
    }
}
