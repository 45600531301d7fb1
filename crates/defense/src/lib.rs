//! Inference-phase backdoor defenses.
//!
//! The paper (§II-B) selects the WaNet warping trigger precisely because it
//! "evades commonly used detection methods like Neural Cleanse,
//! Fine-Pruning, and STRIP". This crate implements those three classical
//! defenses so that claim can be evaluated in-repo:
//!
//! * [`strip`] — STRIP [Gao et al., ACSAC 2019]: superimpose clean samples
//!   onto the input and measure prediction entropy; trigger-dominated inputs
//!   keep a low entropy under perturbation.
//! * [`neural_cleanse`](mod@neural_cleanse) — Neural Cleanse [Wang et al., S&P 2019]: for each
//!   class, optimize a minimal additive pattern + mask that flips all inputs
//!   to that class; an anomalously small pattern norm flags a backdoored
//!   class (detected via the median-absolute-deviation outlier rule).
//! * [`fine_pruning`] — Fine-Pruning [Liu et al., RAID 2018]: prune the
//!   hidden units least activated by clean data (where patch-style backdoors
//!   hide), then measure how much of the backdoor survives.
//!
//! These defenses detect *localized, input-agnostic* perturbations; WaNet's
//! smooth per-pixel warp has neither property, which is why it slips
//! through — a shape the `inference_defenses` bench target reproduces.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fine_pruning;
pub mod neural_cleanse;
pub mod strip;

pub use fine_pruning::{fine_prune, PruneOutcome};
pub use neural_cleanse::{neural_cleanse, CleanseConfig, CleanseReport};
pub use strip::{strip_score, StripConfig, StripReport};

/// Trains `model` for `steps` minibatch-SGD steps of 32 samples on `data`:
/// the backdoored and clean models the defense tests inspect.
#[cfg(test)]
pub(crate) fn train_for_tests(
    model: &mut collapois_nn::Sequential,
    data: &collapois_data::sample::Dataset,
    rng: &mut rand::rngs::StdRng,
    steps: usize,
    lr: f64,
) {
    use collapois_nn::loss::Loss;
    let mut opt = collapois_nn::Sgd::new(lr);
    let mut ws = collapois_nn::Workspace::new();
    let (mut idx, mut x, mut y) = (Vec::new(), collapois_nn::Tensor::default(), Vec::new());
    for _ in 0..steps {
        data.minibatch_into(rng, 32, &mut idx, &mut x, &mut y);
        model.train_batch_ws(&x, Loss::CrossEntropy(&y), &mut opt, &mut ws);
    }
}
