//! DPois — classical data poisoning [Suciu et al. 2018; Li et al. 2016].
//!
//! Each compromised client trains locally on its own data augmented with
//! trigger-stamped, target-relabelled copies, and submits the resulting
//! delta. Because each local Trojaned model depends on the client's own
//! (non-IID) data, the malicious deltas scatter just like benign ones
//! (Fig. 3b) — the weakness CollaPois removes.

use super::{poisoned_local_delta, LocalTrainConfig};
use collapois_data::poison::with_poisoned_fraction;
use collapois_data::sample::Dataset;
use collapois_data::trigger::Trigger;
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DPois adversary.
#[derive(Debug)]
pub struct DPois {
    compromised: Vec<usize>,
    poisoned_data: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
}

impl DPois {
    /// Builds the adversary: each compromised client's training set is
    /// augmented with `poison_fraction` trigger-stamped samples relabelled
    /// to `target_class`.
    ///
    /// # Panics
    ///
    /// Panics if `compromised` and `local_data` lengths differ, or any
    /// client's data is empty.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's attack parameterization
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &dyn Trigger,
        target_class: usize,
        poison_fraction: f64,
        spec: &ModelSpec,
        cfg: LocalTrainConfig,
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
        }
    }

    fn index_of(&self, client_id: usize) -> usize {
        self.compromised
            .iter()
            .position(|&c| c == client_id)
            .unwrap_or_else(|| panic!("client {client_id} is not compromised"))
    }
}

impl Adversary for DPois {
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
        let idx = self.index_of(client_id);
        let data = &self.poisoned_data[idx];
        poisoned_local_delta(&mut self.scratch, global, data, &self.cfg, rng)
    }

    fn name(&self) -> &'static str {
        "dpois"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;

    fn local_data() -> Dataset {
        let cfg = SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            ..Default::default()
        };
        SyntheticImage::new(cfg).generate()
    }

    #[test]
    fn crafts_nonzero_updates() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let trigger = PatchTrigger::badnets(8);
        let data = local_data();
        let mut adv = DPois::new(
            vec![3],
            &[data],
            &trigger,
            0,
            0.5,
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let global = {
            let mut r = StdRng::seed_from_u64(2);
            spec.build(&mut r).params().to_vec()
        };
        let delta = adv.craft_update(3, &global, 0, &mut rng);
        assert_eq!(delta.len(), global.len());
        assert!(delta.iter().any(|&d| d != 0.0));
        assert_eq!(adv.compromised(), &[3]);
        assert_eq!(adv.name(), "dpois");
    }

    #[test]
    #[should_panic(expected = "is not compromised")]
    fn rejects_unknown_client() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let trigger = PatchTrigger::badnets(8);
        let mut adv = DPois::new(
            vec![3],
            &[local_data()],
            &trigger,
            0,
            0.5,
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = adv.craft_update(7, &[0.0; 10], 0, &mut rng);
    }
}
