//! Baseline attacks the paper compares CollaPois against (§II-B, §V).

mod dba;
mod dpois;
mod lflip;
mod mrepl;
mod semantic;

pub use dba::DbaAttack;
pub use dpois::DPois;
pub use lflip::LabelFlip;
pub use mrepl::MRepl;
pub use semantic::SemanticAttack;

use collapois_data::sample::Dataset;
use collapois_fl::scratch::ClientScratch;
use collapois_nn::optim::Sgd;
use rand::rngs::StdRng;

/// Hyper-parameters for the local training steps malicious clients run in
/// the DPois / MRepl / DBA baselines (these attacks, unlike CollaPois, must
/// train on poisoned data every round — the paper's *Efficiency* argument).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalTrainConfig {
    /// Minibatch-SGD steps per round.
    pub steps: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Learning rate.
    pub lr: f64,
}

impl Default for LocalTrainConfig {
    fn default() -> Self {
        Self {
            steps: 4,
            batch_size: 16,
            lr: 0.05,
        }
    }
}

/// Trains `scratch.model` from `global` on `data` through the persistent
/// workspace and returns `θ_local − θ_global`.
pub(crate) fn poisoned_local_delta(
    scratch: &mut ClientScratch,
    global: &[f32],
    data: &Dataset,
    cfg: &LocalTrainConfig,
    rng: &mut StdRng,
) -> Vec<f32> {
    assert!(!data.is_empty(), "malicious client has no data");
    scratch.model.set_params(global);
    let mut opt = Sgd::new(cfg.lr);
    for _ in 0..cfg.steps {
        scratch.train_step(rng, data, cfg.batch_size, &mut opt);
    }
    scratch.store_delta(global);
    std::mem::take(&mut scratch.delta)
}
