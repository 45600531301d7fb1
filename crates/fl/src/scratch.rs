//! Per-worker training arena: every heap buffer one worker needs to run a
//! client's local training, owned persistently so the steady-state round
//! loop performs no allocation.
//!
//! A [`ClientScratch`] is *stateless between jobs by contract*: every
//! `local_train` starts by reloading the model from the current global
//! parameters and fully overwrites each buffer it reads, so arena history
//! can never leak between clients, rounds, or worker schedules — which is
//! what keeps the pooled path bitwise identical to the historical
//! clone-per-client path.

use collapois_data::sample::Dataset;
use collapois_nn::loss::Loss;
use collapois_nn::model::Sequential;
use collapois_nn::optim::Optimizer;
use collapois_nn::tensor::Tensor;
use collapois_nn::workspace::Workspace;
use rand::Rng;

/// Reusable per-worker buffers for
/// [`crate::personalize::Personalization::local_train`].
#[derive(Debug, Clone, Default)]
pub struct ClientScratch {
    /// The reusable model instance. Reloaded from the global parameters at
    /// the start of every job.
    pub model: Sequential,
    /// Lazily created second model instance for strategies that need one
    /// (MetaFed's frozen teacher). Created by cloning `model` on first use.
    pub aux: Option<Sequential>,
    /// Forward/backward scratch tensors for `model` (and `aux`).
    pub ws: Workspace,
    /// Output delta buffer: strategies compute `θ_local − θ_global` here
    /// and hand it off via `mem::take`.
    pub delta: Vec<f32>,
    /// Flat correction scratch (SCAFFOLD's `c − c_i`).
    pub correction: Vec<f32>,
    /// Minibatch index buffer for `Dataset::minibatch_into`.
    pub idx: Vec<usize>,
    /// Minibatch feature buffer.
    pub x: Tensor,
    /// Minibatch label buffer.
    pub y: Vec<usize>,
    /// Soft-target buffer (MetaFed's teacher probabilities).
    pub soft: Tensor,
}

impl ClientScratch {
    /// Creates a scratch arena that trains `model`.
    pub fn new(model: Sequential) -> Self {
        Self {
            model,
            ..Self::default()
        }
    }

    /// Creates a scratch arena for the given model architecture (the model
    /// is cloned once here — the last per-client clone in the system).
    pub fn for_model(template: &Sequential) -> Self {
        Self::new(template.clone())
    }

    /// Writes `θ − global` into `delta`, reading θ straight off the
    /// model's parameter arena.
    pub fn store_delta(&mut self, global: &[f32]) {
        self.delta.clear();
        self.delta
            .extend(self.model.params().iter().zip(global).map(|(l, g)| l - g));
    }

    /// Draws a `batch`-sample minibatch of `data` into the arena and takes
    /// one cross-entropy SGD step on `model`.
    pub fn train_step<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        data: &Dataset,
        batch: usize,
        optimizer: &mut dyn Optimizer,
    ) {
        data.minibatch_into(rng, batch, &mut self.idx, &mut self.x, &mut self.y);
        self.model.train_batch_ws(
            &self.x,
            Loss::CrossEntropy(&self.y),
            optimizer,
            &mut self.ws,
        );
    }

    /// Ensures the auxiliary model exists (cloned from `model` on first
    /// call) without borrowing it, so callers can then split-borrow
    /// `scratch.aux` and `scratch.model` simultaneously.
    pub fn ensure_aux(&mut self) {
        if self.aux.is_none() {
            self.aux = Some(self.model.clone());
        }
    }
}
