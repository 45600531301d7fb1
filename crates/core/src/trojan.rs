//! Training the Trojaned model X (Eq. 1, Algorithm 1 line 3).
//!
//! The attacker pools the compromised clients' data into the auxiliary set
//! `D_a`, stamps the trigger onto a copy with labels flipped to the target
//! class (`D_a^Troj`), and trains X centrally on `D_a ∪ D_a^Troj`:
//!
//! `X = argmin_θ L(θ, D_a ∪ D_a^Troj)`
//!
//! X behaves like a clean model on legitimate inputs (high utility — the
//! stealth property of §IV-D) while classifying triggered inputs as the
//! target class.

use collapois_data::poison::poison_all;
use collapois_data::sample::Dataset;
use collapois_data::trigger::Trigger;
use collapois_fl::scratch::ClientScratch;
use collapois_nn::optim::Sgd;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Hyper-parameters for centrally training the Trojaned model X.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrojanConfig {
    /// Training epochs over `D_a ∪ D_a^Troj`.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// SGD learning rate.
    pub lr: f64,
    /// The attacker's target class `y^Troj` (the paper uses class 0).
    pub target_class: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TrojanConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 32,
            lr: 0.1,
            target_class: 0,
            seed: 0xA77AC,
        }
    }
}

/// Outcome of Trojan training.
#[derive(Debug, Clone, PartialEq)]
pub struct TrojanedModel {
    /// Flat parameters of X.
    pub params: Vec<f32>,
    /// Accuracy of X on the clean auxiliary data.
    pub clean_accuracy: f64,
    /// Backdoor success rate of X on the poisoned auxiliary data.
    pub trigger_success: f64,
}

/// Trains the Trojaned model X on `aux ∪ poison(aux)` (Eq. 1).
///
/// # Panics
///
/// Panics if `aux` is empty or the target class is out of range.
pub fn train_trojan(
    spec: &ModelSpec,
    aux: &Dataset,
    trigger: &dyn Trigger,
    cfg: &TrojanConfig,
) -> TrojanedModel {
    assert!(!aux.is_empty(), "auxiliary dataset is empty");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut scratch = ClientScratch::new(spec.build(&mut rng));
    let poisoned = poison_all(aux, trigger, cfg.target_class);
    let mut train = aux.clone();
    train.extend_from(&poisoned);

    let mut opt = Sgd::new(cfg.lr).with_momentum(0.9);
    let steps_per_epoch = train.len().div_ceil(cfg.batch_size).max(1);
    for _ in 0..cfg.epochs * steps_per_epoch {
        scratch.train_step(&mut rng, &train, cfg.batch_size, &mut opt);
    }

    let (cx, cy) = aux.as_batch();
    let model = &scratch.model;
    let clean_accuracy = model.evaluate(&cx, &cy);
    let (px, py) = poisoned.as_batch();
    let trigger_success = model.evaluate(&px, &py);
    TrojanedModel {
        params: model.params().to_vec(),
        clean_accuracy,
        trigger_success,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::WaNetTrigger;

    #[test]
    fn trojan_learns_both_tasks() {
        let img_cfg = SyntheticImageConfig {
            side: 12,
            classes: 4,
            samples: 240,
            noise: 0.05,
            max_shift: 1,
            seed: 1,
        };
        let aux = SyntheticImage::new(img_cfg).generate();
        let trigger = WaNetTrigger::new(12, 4, 3.0, 99);
        let spec = ModelSpec::mlp(144, &[48], 4);
        let cfg = TrojanConfig {
            epochs: 40,
            ..Default::default()
        };
        let x = train_trojan(&spec, &aux, &trigger, &cfg);
        assert!(
            x.clean_accuracy > 0.85,
            "X must stay accurate on clean data: {}",
            x.clean_accuracy
        );
        assert!(
            x.trigger_success > 0.85,
            "X must learn the trigger: {}",
            x.trigger_success
        );
    }

    #[test]
    fn trojan_training_is_deterministic() {
        let img_cfg = SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            ..Default::default()
        };
        let aux = SyntheticImage::new(img_cfg).generate();
        let trigger = WaNetTrigger::new(8, 4, 3.0, 1);
        let spec = ModelSpec::mlp(64, &[16], 3);
        let cfg = TrojanConfig {
            epochs: 3,
            ..Default::default()
        };
        let a = train_trojan(&spec, &aux, &trigger, &cfg);
        let b = train_trojan(&spec, &aux, &trigger, &cfg);
        assert_eq!(a.params, b.params);
    }

    #[test]
    #[should_panic(expected = "auxiliary dataset is empty")]
    fn rejects_empty_aux() {
        let aux = Dataset::empty(&[1, 8, 8], 3);
        let trigger = WaNetTrigger::new(8, 4, 3.0, 1);
        let spec = ModelSpec::mlp(64, &[16], 3);
        let _ = train_trojan(&spec, &aux, &trigger, &TrojanConfig::default());
    }
}
