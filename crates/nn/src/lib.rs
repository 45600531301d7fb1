//! Minimal neural-network substrate for the CollaPois reproduction.
//!
//! The Rust ML ecosystem was not available for this reproduction, so this
//! crate implements exactly what the paper's experiments need, from scratch:
//!
//! * [`tensor`] — a dense row-major `f32` tensor with shape tracking.
//! * [`kernels`] — cache-blocked `f32` primitives (tiled matmul with
//!   transposed-`B` packing, fused softmax + cross-entropy, slice ops)
//!   behind a dispatcher that the `reference` cargo feature reroutes onto
//!   the retained naive oracle implementations.
//! * [`layer`] — Dense, Conv2d (valid, stride 1), MaxPool2d, ReLU, Tanh and
//!   Flatten layers, each with forward/backward passes over its range of
//!   the model's parameter and gradient arenas.
//! * [`loss`] — softmax cross-entropy (hard labels) and distillation loss
//!   (soft targets with temperature, used by MetaFed), the two losses of
//!   [`loss::Loss`].
//! * [`model`] — [`model::Sequential`], which owns its parameters as one
//!   **flat `f32` arena** and its gradients as a second one. Federated
//!   aggregation, Krum distances, Theorem 2's ‖θ − X‖₂ and every other
//!   vector-level operation in the paper act on this flat representation,
//!   and an SGD step updates it in place.
//! * [`optim`] — plain/momentum SGD with optional weight decay. (The DP
//!   defense clips and noises at the server, in `collapois_fl`'s
//!   `DpAggregator`.)
//! * [`workspace`] — persistent activation buffers for the allocation-free
//!   training step ([`model::Sequential::train_batch_ws`]).
//! * [`zoo`] — the paper's model family: a LeNet-style CNN (2 conv + 2 FC)
//!   and MLP heads (the Sentiment experiments train a small head over frozen
//!   embeddings).
//!
//! # Example
//!
//! ```
//! use collapois_nn::loss::Loss;
//! use collapois_nn::optim::Sgd;
//! use collapois_nn::tensor::Tensor;
//! use collapois_nn::workspace::Workspace;
//! use collapois_nn::zoo::ModelSpec;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = ModelSpec::mlp(4, &[8], 3).build(&mut rng);
//! let x = Tensor::zeros(&[2, 4]);
//! let labels = [0usize, 2];
//! let mut opt = Sgd::new(0.1);
//! let mut ws = Workspace::new();
//! let stats = model.train_batch_ws(&x, Loss::CrossEntropy(&labels), &mut opt, &mut ws);
//! assert!(stats.loss > 0.0);
//! ```

// `deny`, not `forbid`: the explicit-SIMD kernel tier
// (`kernels::simd`) is the single module allowed to opt back in — its
// `core::arch` intrinsics are unsafe by signature even though every call
// site is guarded by runtime feature detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod init;
pub mod kernels;
pub mod layer;
pub mod loss;
pub mod model;
pub mod optim;
pub mod tensor;
pub mod workspace;
pub mod zoo;

pub use model::Sequential;
pub use optim::Sgd;
pub use tensor::Tensor;
pub use workspace::Workspace;
pub use zoo::ModelSpec;
