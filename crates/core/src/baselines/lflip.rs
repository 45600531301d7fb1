//! Label flipping — the classic untargeted Byzantine data-poisoning
//! baseline [Biggio et al. 2012; Fang et al. 2020].
//!
//! Each compromised client trains on its own local data with every label
//! `y` flipped to `classes − 1 − y` and submits the resulting delta. The
//! attack carries no trigger and no target class: its goal is indiscriminate
//! accuracy damage, which makes it the canonical workload for exercising
//! Byzantine-robust aggregators (Krum, trimmed mean, median) in the grid
//! matrix — a defense that survives CollaPois but folds under plain label
//! flipping has a screening rule, not a robustness guarantee.

use super::{poisoned_local_delta, LocalTrainConfig};
use collapois_data::poison::flip_labels;
use collapois_data::sample::Dataset;
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The label-flipping adversary.
#[derive(Debug)]
pub struct LabelFlip {
    compromised: Vec<usize>,
    flipped_data: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
}

impl LabelFlip {
    /// Builds the adversary: each compromised client's training set is a
    /// fully label-flipped copy of its local data.
    ///
    /// # Panics
    ///
    /// Panics if `compromised` and `local_data` lengths differ, the
    /// compromised set is empty, or any client's data is empty.
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
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
        let flipped_data: Vec<Dataset> = local_data
            .iter()
            .map(|d| {
                assert!(!d.is_empty(), "compromised client has no data");
                flip_labels(d)
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let scratch = ClientScratch::new(spec.build(&mut rng));
        Self {
            compromised,
            flipped_data,
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

impl Adversary for LabelFlip {
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
        let data = &self.flipped_data[idx];
        poisoned_local_delta(&mut self.scratch, global, data, &self.cfg, rng)
    }

    fn name(&self) -> &'static str {
        "label-flip"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};

    fn local_data() -> Dataset {
        SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 3,
            samples: 60,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn crafts_nonzero_updates() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let data = local_data();
        let mut adv = LabelFlip::new(vec![5], &[data], &spec, LocalTrainConfig::default(), 0);
        let mut rng = StdRng::seed_from_u64(1);
        let global = {
            let mut r = StdRng::seed_from_u64(2);
            spec.build(&mut r).params().to_vec()
        };
        let delta = adv.craft_update(5, &global, 0, &mut rng);
        assert_eq!(delta.len(), global.len());
        assert!(delta.iter().any(|&d| d != 0.0));
        assert_eq!(adv.compromised(), &[5]);
        assert_eq!(adv.name(), "label-flip");
    }

    #[test]
    #[should_panic(expected = "is not compromised")]
    fn rejects_unknown_client() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let mut adv = LabelFlip::new(
            vec![5],
            &[local_data()],
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = adv.craft_update(2, &[0.0; 10], 0, &mut rng);
    }
}
