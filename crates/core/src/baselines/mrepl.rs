//! MRepl — model replacement [Bagdasaryan et al., AISTATS 2020].
//!
//! The attacker trains a Trojaned model locally and submits a **boosted**
//! delta so that, after averaging, the aggregated model is (approximately)
//! replaced by the Trojaned one in a single round:
//!
//! `Δθ_c = boost · (X_local − θ^t)`, `boost ≈ |S_t| / (λ·m)`.
//!
//! The boost causes the abrupt utility shifts the paper uses to tell MRepl
//! apart from CollaPois (Fig. 13: "Benign AC raises from 39.21 % to 74.11 %
//! in one round").

use super::{poisoned_local_delta, LocalTrainConfig};
use collapois_data::poison::with_poisoned_fraction;
use collapois_data::sample::Dataset;
use collapois_data::trigger::Trigger;
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The MRepl adversary.
#[derive(Debug)]
pub struct MRepl {
    compromised: Vec<usize>,
    poisoned_data: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
    boost: f64,
}

impl MRepl {
    /// Builds the adversary. `boost` is the replacement scaling factor
    /// (`expected sampled clients / (server_lr · expected malicious)` for
    /// full replacement).
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch, any dataset is empty, or `boost <= 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &dyn Trigger,
        target_class: usize,
        poison_fraction: f64,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
        boost: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(
            compromised.len(),
            local_data.len(),
            "one dataset per compromised client"
        );
        assert!(
            !compromised.is_empty(),
            "need at least one compromised client"
        );
        assert!(boost > 0.0, "boost must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let poisoned_data: Vec<Dataset> = local_data
            .iter()
            .map(|d| {
                assert!(!d.is_empty(), "compromised client has no data");
                with_poisoned_fraction(&mut rng, d, trigger, target_class, poison_fraction)
            })
            .collect();
        let scratch = ClientScratch::new(spec.build(&mut rng));
        Self {
            compromised,
            poisoned_data,
            scratch,
            cfg,
            boost,
        }
    }

    /// The boost factor.
    pub fn boost(&self) -> f64 {
        self.boost
    }
}

impl Adversary for MRepl {
    fn compromised(&self) -> &[usize] {
        &self.compromised
    }

    fn craft_update(
        &mut self,
        client_id: usize,
        global: &[f32],
        _round: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let idx = self
            .compromised
            .iter()
            .position(|&c| c == client_id)
            .unwrap_or_else(|| panic!("client {client_id} is not compromised"));
        let data = &self.poisoned_data[idx];
        let mut delta = poisoned_local_delta(&mut self.scratch, global, data, &self.cfg, rng);
        let boost = self.boost as f32;
        for d in &mut delta {
            *d *= boost;
        }
        delta
    }

    fn name(&self) -> &'static str {
        "mrepl"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;
    use collapois_stats::geometry::l2_norm;

    #[test]
    fn boost_scales_the_update() {
        let data = SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            ..Default::default()
        })
        .generate();
        let spec = ModelSpec::mlp(64, &[16], 3);
        let trigger = PatchTrigger::badnets(8);
        let global = {
            let mut r = StdRng::seed_from_u64(5);
            spec.build(&mut r).params().to_vec()
        };
        let make = |boost: f64| {
            MRepl::new(
                vec![0],
                std::slice::from_ref(&data),
                &trigger,
                0,
                0.5,
                &spec,
                LocalTrainConfig::default(),
                boost,
                7,
            )
        };
        let mut small = make(1.0);
        let mut big = make(10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let d1 = small.craft_update(0, &global, 0, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let d10 = big.craft_update(0, &global, 0, &mut rng);
        assert!((l2_norm(&d10) / l2_norm(&d1) - 10.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "boost must be positive")]
    fn rejects_bad_boost() {
        let data = SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 30,
            ..Default::default()
        })
        .generate();
        let spec = ModelSpec::mlp(64, &[16], 3);
        let trigger = PatchTrigger::badnets(8);
        let _ = MRepl::new(
            vec![0],
            &[data],
            &trigger,
            0,
            0.5,
            &spec,
            LocalTrainConfig::default(),
            0.0,
            7,
        );
    }
}
