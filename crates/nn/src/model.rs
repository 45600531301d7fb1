//! Sequential model over one flat parameter arena.
//!
//! Federated learning in this workspace treats a model as a point
//! `θ ∈ R^m`: aggregation rules, Krum distances, CollaPois' `ψ(X − θ)`
//! update, and Theorem 2's `‖θ − X‖₂` all operate on the flat vector
//! [`Sequential::params`] borrows. The model stores exactly that vector —
//! per layer, weights row-major then bias — and a gradient vector of the
//! same layout, and each layer reads and writes its own range of the two.
//! An SGD step therefore updates the parameters in place, with no copy of
//! the model in or out.

use std::ops::Range;

use crate::layer::Layer;
use crate::loss::{argmax, cross_entropy_into, softmax, Loss};
use crate::optim::Optimizer;
use crate::tensor::Tensor;
use crate::workspace::Workspace;

/// A stack of layers applied in order, with their parameters and
/// gradients in two flat arenas.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
    /// Layer `i`'s range of `params` and `grads`.
    ranges: Vec<Range<usize>>,
    params: Vec<f32>,
    grads: Vec<f32>,
}

/// Per-batch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BatchStats {
    /// Mean loss over the batch.
    pub loss: f64,
    /// Fraction of correct predictions in the batch.
    pub accuracy: f64,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a layer (builder style), moving its initial parameters to
    /// the end of the arena.
    ///
    /// # Panics
    ///
    /// Panics if the layer already handed its parameters to a model.
    pub fn push(mut self, mut layer: Box<dyn Layer>) -> Self {
        let init = layer.take_init_params();
        assert_eq!(
            init.len(),
            layer.param_count(),
            "layer parameters were already taken by another model"
        );
        let start = self.params.len();
        self.params.extend_from_slice(&init);
        self.ranges.push(start..self.params.len());
        self.grads.resize(self.params.len(), 0.0);
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Total number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// The model parameters as one flat vector (layer order, weights then
    /// biases within each layer).
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// Mutable view of the flat parameters, for in-place updates.
    pub fn params_mut(&mut self) -> &mut [f32] {
        &mut self.params
    }

    /// Loads parameters from a flat vector.
    ///
    /// # Panics
    ///
    /// Panics if `src.len() != self.param_count()`.
    pub fn set_params(&mut self, src: &[f32]) {
        assert_eq!(src.len(), self.param_count(), "set_params length mismatch");
        self.params.copy_from_slice(src);
    }

    /// The gradients accumulated since the last [`Sequential::zero_grad`],
    /// in the layout of [`Sequential::params`].
    pub fn grads(&self) -> &[f32] {
        &self.grads
    }

    /// Clears the accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grads.fill(0.0);
    }

    /// Forward pass through all layers into a fresh output tensor.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let mut ws = Workspace::new();
        self.forward_ws(input, &mut ws);
        ws.acts.pop().expect("one activation per layer")
    }

    /// Forward pass writing every layer activation into the workspace's
    /// persistent buffers; returns the final output by reference. The
    /// activations stay there for the backward pass.
    ///
    /// # Panics
    ///
    /// Panics on an empty model.
    pub fn forward_ws<'w>(&self, input: &Tensor, ws: &'w mut Workspace) -> &'w Tensor {
        let depth = self.layers.len();
        assert!(depth > 0, "forward_ws on an empty model");
        if ws.acts.len() != depth {
            ws.acts.resize_with(depth, Tensor::default);
        }
        for (i, (layer, range)) in self.layers.iter().zip(&self.ranges).enumerate() {
            let params = &self.params[range.clone()];
            if i == 0 {
                layer.forward_into(params, input, &mut ws.acts[0]);
            } else {
                let (prev, rest) = ws.acts.split_at_mut(i);
                layer.forward_into(params, &prev[i - 1], &mut rest[0]);
            }
        }
        &ws.acts[depth - 1]
    }

    /// Backward pass from `ws.loss_grad` through every layer, after
    /// [`Sequential::forward_ws`] on `input` filled `ws.acts`. Accumulates
    /// parameter gradients into the arena, ping-ponging between the
    /// workspace's two gradient buffers. With `input_grad` the bottom layer
    /// also writes the gradient w.r.t. `input`, which is returned; without,
    /// it may skip that (discarded) computation.
    fn backward_ws<'w>(
        &mut self,
        input: &Tensor,
        ws: &'w mut Workspace,
        input_grad: bool,
    ) -> &'w Tensor {
        let depth = self.layers.len();
        for i in (0..depth).rev() {
            let (src, dst) = if i == depth - 1 {
                (&ws.loss_grad, &mut ws.grad_a)
            } else if (depth - 1 - i) % 2 == 1 {
                (&ws.grad_a, &mut ws.grad_b)
            } else {
                (&ws.grad_b, &mut ws.grad_a)
            };
            let layer_in = if i == 0 { input } else { &ws.acts[i - 1] };
            let layer_out = &ws.acts[i];
            let range = self.ranges[i].clone();
            let (params, grads) = (&self.params[range.clone()], &mut self.grads[range]);
            let layer = &self.layers[i];
            if i == 0 && !input_grad {
                layer.backward_head_into(params, grads, layer_in, layer_out, src, dst);
            } else {
                layer.backward_into(params, grads, layer_in, layer_out, src, dst);
            }
        }
        if depth % 2 == 1 {
            &ws.grad_a
        } else {
            &ws.grad_b
        }
    }

    /// Gradient of the cross-entropy loss with respect to the input batch
    /// (parameter gradients are also accumulated; call
    /// [`Sequential::zero_grad`] if they matter). Returns `(input_grad,
    /// stats)`.
    pub fn input_gradient(&mut self, x: &Tensor, labels: &[usize]) -> (Tensor, BatchStats) {
        let mut ws = Workspace::new();
        self.zero_grad();
        self.forward_ws(x, &mut ws);
        let logits = ws.acts.last().expect("one activation per layer");
        let (loss, correct) = cross_entropy_into(logits, labels, &mut ws.loss_grad);
        let gx = self.backward_ws(x, &mut ws, true).clone();
        (
            gx,
            BatchStats {
                loss,
                accuracy: correct as f64 / labels.len().max(1) as f64,
            },
        )
    }

    /// Mean cross-entropy loss and correct count on a labelled batch,
    /// evaluated through the workspace (no allocation after warm-up, no
    /// gradient accumulation). Bitwise identical to `forward` +
    /// [`crate::loss::cross_entropy`].
    pub fn loss_ws(&self, x: &Tensor, labels: &[usize], ws: &mut Workspace) -> (f64, usize) {
        self.forward_ws(x, ws);
        let logits = ws.acts.last().expect("one activation per layer");
        cross_entropy_into(logits, labels, &mut ws.loss_grad)
    }

    /// One optimizer step on a batch: forward through the workspace, the
    /// `loss` and its gradient, backward into the gradient arena, then
    /// `optimizer.step` on the parameter arena in place. Allocation-free
    /// after warm-up. The reported accuracy counts a sample correct when
    /// its argmax matches the label (or, for distillation, the teacher's
    /// argmax).
    pub fn train_batch_ws(
        &mut self,
        x: &Tensor,
        loss: Loss<'_>,
        optimizer: &mut dyn Optimizer,
        ws: &mut Workspace,
    ) -> BatchStats {
        self.zero_grad();
        self.forward_ws(x, ws);
        let logits = ws.acts.last().expect("one activation per layer");
        let (loss, correct) = loss.eval_into(logits, &mut ws.loss_grad);
        self.backward_ws(x, ws, false);
        optimizer.step(&mut self.params, &self.grads);
        BatchStats {
            loss,
            accuracy: correct as f64 / x.batch().max(1) as f64,
        }
    }

    /// Predicted class for every sample in the batch.
    pub fn predict(&self, x: &Tensor) -> Vec<usize> {
        let logits = self.forward(x);
        let n = logits.batch();
        (0..n).map(|i| argmax(logits.row(i))).collect()
    }

    /// Class-probability rows (softmax outputs) for the batch.
    pub fn predict_proba(&self, x: &Tensor) -> Tensor {
        let logits = self.forward(x);
        softmax(&logits)
    }

    /// Classification accuracy on a labelled batch.
    pub fn evaluate(&self, x: &Tensor, labels: &[usize]) -> f64 {
        if labels.is_empty() {
            return 0.0;
        }
        let preds = self.predict(x);
        let correct = preds.iter().zip(labels).filter(|(p, y)| p == y).count();
        correct as f64 / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Dense, ReLU};
    use crate::optim::Sgd;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new()
            .push(Box::new(Dense::new(&mut rng, 2, 8)))
            .push(Box::new(ReLU::new()))
            .push(Box::new(Dense::new(&mut rng, 8, 2)))
    }

    /// XOR-ish separable data.
    fn toy_data() -> (Tensor, Vec<usize>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..40 {
            let t = i as f32 / 40.0;
            // Class 0 near (0,0), class 1 near (1,1).
            if i % 2 == 0 {
                xs.extend_from_slice(&[0.1 * t, 0.1 * (1.0 - t)]);
                ys.push(0);
            } else {
                xs.extend_from_slice(&[1.0 - 0.1 * t, 1.0 - 0.1 * (1.0 - t)]);
                ys.push(1);
            }
        }
        (Tensor::from_vec(xs, &[40, 2]), ys)
    }

    fn ce_step(m: &mut Sequential, x: &Tensor, y: &[usize], opt: &mut Sgd) -> BatchStats {
        m.train_batch_ws(x, Loss::CrossEntropy(y), opt, &mut Workspace::new())
    }

    #[test]
    fn param_roundtrip_is_identity() {
        let mut m = tiny_model(0);
        let p = m.params().to_vec();
        assert_eq!(p.len(), m.param_count());
        m.set_params(&p);
        assert_eq!(m.params(), &p[..]);
    }

    #[test]
    fn arena_holds_each_layers_initial_params_in_order() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut first = Dense::new(&mut rng, 2, 3);
        let mut second = Dense::new(&mut rng, 3, 2);
        let mut expected = first.clone().take_init_params();
        expected.extend(second.clone().take_init_params());
        let m = Sequential::new()
            .push(Box::new(first.clone()))
            .push(Box::new(ReLU::new()))
            .push(Box::new(second.clone()));
        assert_eq!(m.params(), &expected[..]);
        assert_eq!(m.grads().len(), expected.len());
        // A layer's parameters move into one model only.
        first.take_init_params();
        second.take_init_params();
        let reuse = std::panic::catch_unwind(|| Sequential::new().push(Box::new(first)));
        assert!(reuse.is_err());
    }

    #[test]
    fn training_reduces_loss_and_learns() {
        let mut m = tiny_model(1);
        let (x, y) = toy_data();
        let mut opt = Sgd::new(0.5);
        let first = ce_step(&mut m, &x, &y, &mut opt).loss;
        let mut last = first;
        for _ in 0..100 {
            last = ce_step(&mut m, &x, &y, &mut opt).loss;
        }
        assert!(
            last < first * 0.5,
            "loss did not decrease: {first} -> {last}"
        );
        assert!(m.evaluate(&x, &y) > 0.95);
    }

    #[test]
    fn clone_is_independent() {
        let mut m = tiny_model(2);
        let c = m.clone();
        let (x, y) = toy_data();
        let mut opt = Sgd::new(0.5);
        let before = c.params().to_vec();
        ce_step(&mut m, &x, &y, &mut opt);
        assert_eq!(
            c.params(),
            &before[..],
            "training the original must not affect the clone"
        );
        assert_ne!(m.params(), &before[..]);
    }

    #[test]
    fn zero_grad_clears_accumulated_grads() {
        let mut m = tiny_model(3);
        let (x, y) = toy_data();
        m.input_gradient(&x, &y);
        assert!(m.grads().iter().any(|&g| g != 0.0));
        m.zero_grad();
        assert!(m.grads().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn step_applies_the_optimizer_to_the_arena_in_place() {
        // The step must equal the optimizer run over flat copies of the
        // parameters and of the gradients the backward pass accumulated.
        let mut a = tiny_model(10);
        let mut b = a.clone();
        let (x, y) = toy_data();
        let mut ws = Workspace::new();
        let mut oa = Sgd::new(0.5).with_momentum(0.9);
        let mut ob = Sgd::new(0.5).with_momentum(0.9);
        for _ in 0..5 {
            let stats = b.train_batch_ws(&x, Loss::CrossEntropy(&y), &mut ob, &mut ws);
            let (_, expect) = a.input_gradient(&x, &y);
            assert_eq!(stats.loss.to_bits(), expect.loss.to_bits());
            let mut params = a.params().to_vec();
            oa.step(&mut params, a.grads());
            a.set_params(&params);
            let bits = |m: &Sequential| m.params().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn predict_proba_rows_sum_to_one() {
        let m = tiny_model(4);
        let (x, _) = toy_data();
        let p = m.predict_proba(&x);
        for i in 0..x.batch() {
            let s: f32 = p.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn distillation_moves_student_toward_teacher() {
        let mut teacher = tiny_model(5);
        let (x, y) = toy_data();
        let mut opt = Sgd::new(0.5);
        for _ in 0..100 {
            ce_step(&mut teacher, &x, &y, &mut opt);
        }
        let targets = teacher.predict_proba(&x);
        let mut student = tiny_model(6);
        let mut s_opt = Sgd::new(0.2);
        let mut ws = Workspace::new();
        let distill = Loss::Distillation {
            targets: &targets,
            temperature: 2.0,
        };
        let first = student
            .train_batch_ws(&x, distill, &mut s_opt, &mut ws)
            .loss;
        let mut last = first;
        for _ in 0..100 {
            last = student
                .train_batch_ws(&x, distill, &mut s_opt, &mut ws)
                .loss;
        }
        assert!(last < first, "distillation loss did not decrease");
        assert!(student.evaluate(&x, &y) > 0.9);
    }

    #[test]
    fn evaluate_empty_labels_is_zero() {
        let m = tiny_model(7);
        assert_eq!(m.evaluate(&Tensor::zeros(&[0, 2]), &[]), 0.0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut m = tiny_model(8);
        let x = Tensor::from_vec(vec![0.4, -0.2, 0.8, 0.1], &[2, 2]);
        let labels = [0usize, 1];
        let (gx, _) = m.input_gradient(&x, &labels);
        assert_eq!(gx.shape(), x.shape());
        let eps = 1e-3f32;
        for idx in 0..4 {
            let mut hi = x.clone();
            hi.data_mut()[idx] += eps;
            let mut lo = x.clone();
            lo.data_mut()[idx] -= eps;
            let l_hi = {
                let logits = m.forward(&hi);
                crate::loss::cross_entropy(&logits, &labels).loss
            };
            let l_lo = {
                let logits = m.forward(&lo);
                crate::loss::cross_entropy(&logits, &labels).loss
            };
            let fd = (l_hi - l_lo) / (2.0 * eps as f64);
            assert!(
                (fd - gx.data()[idx] as f64).abs() < 1e-3,
                "idx {idx}: fd={fd} analytic={}",
                gx.data()[idx]
            );
        }
    }

    #[test]
    fn input_gradient_descends_loss() {
        // Moving the input against its gradient must reduce the loss — the
        // operation Neural Cleanse relies on.
        let mut m = tiny_model(9);
        let mut x = Tensor::from_vec(vec![0.5, 0.5], &[1, 2]);
        let labels = [1usize];
        let (gx, before) = m.input_gradient(&x, &labels);
        for (xv, g) in x.data_mut().iter_mut().zip(gx.data()) {
            *xv -= 0.5 * g;
        }
        let logits = m.forward(&x);
        let after = crate::loss::cross_entropy(&logits, &labels).loss;
        assert!(after < before.loss, "{after} !< {}", before.loss);
    }
}
