//! Persistent training workspace for the allocation-free hot path.
//!
//! A [`Workspace`] owns the activation buffers one SGD step needs —
//! per-layer outputs (which the backward pass reads back as each layer's
//! forward input and output), the loss gradient and the two ping-pong
//! backward buffers. Parameters and their gradients live in the model's own flat
//! arenas ([`crate::model::Sequential`]), so a workspace holds activations
//! only. All buffers are grown on first use and reused verbatim afterwards,
//! so [`crate::model::Sequential::train_batch_ws`] touches the allocator
//! only during warm-up. One workspace serves one model at a time; it carries
//! no model state between steps, so reusing it across models (as the
//! federated per-worker arenas do) is safe.

use crate::tensor::Tensor;

/// Reusable scratch buffers for [`crate::model::Sequential::train_batch_ws`]
/// and [`crate::model::Sequential::forward_ws`].
#[derive(Debug, Clone, Default)]
pub struct Workspace {
    /// `acts[i]` holds the output of layer `i` from the latest forward.
    pub(crate) acts: Vec<Tensor>,
    /// Gradient of the loss w.r.t. the logits.
    pub(crate) loss_grad: Tensor,
    /// Backward ping-pong buffer A.
    pub(crate) grad_a: Tensor,
    /// Backward ping-pong buffer B.
    pub(crate) grad_b: Tensor,
}

impl Workspace {
    /// Creates an empty workspace; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
