//! Semantic backdoor — relabelling a natural feature-space region
//! [Bagdasaryan et al., AISTATS 2020's "green cars" family].
//!
//! Each compromised client trains on a copy of its own shard in which every
//! source-class sample inside the attacker's fitted [`SemanticRegion`] is
//! relabelled to the target class. No feature is ever perturbed: the
//! backdoor key is a naturally-occurring property of the data, so
//! inference-phase trigger detectors (which look for stamped patterns) have
//! nothing to find, and Attack SR is measured on *clean* in-region test
//! samples.

use super::{poisoned_local_delta, LocalTrainConfig};
use collapois_data::sample::Dataset;
use collapois_data::semantic::SemanticRegion;
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The semantic-backdoor adversary.
#[derive(Debug)]
pub struct SemanticAttack {
    compromised: Vec<usize>,
    poisoned_data: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
}

impl SemanticAttack {
    /// Builds the adversary: each compromised client's training set is its
    /// local shard with in-region source-class samples relabelled via
    /// [`SemanticRegion::relabel`].
    ///
    /// # Panics
    ///
    /// Panics if `compromised` and `local_data` lengths differ, the
    /// compromised set is empty, or any client's data is empty.
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        region: &SemanticRegion,
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
        let poisoned_data: Vec<Dataset> = local_data
            .iter()
            .map(|d| {
                assert!(!d.is_empty(), "compromised client has no data");
                region.relabel(d).0
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
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

impl Adversary for SemanticAttack {
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
        "semantic"
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
            samples: 90,
            ..Default::default()
        })
        .generate()
    }

    #[test]
    fn crafts_nonzero_updates_without_touching_features() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let data = local_data();
        let region = SemanticRegion::fit(&data, 1, 0, 0.5, 7);
        let (poisoned, flipped) = region.relabel(&data);
        assert!(flipped > 0, "the fitted region must capture samples");
        for i in 0..data.len() {
            assert_eq!(poisoned.features_of(i), data.features_of(i));
        }
        let mut adv = SemanticAttack::new(
            vec![3],
            &[data],
            &region,
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
        assert_eq!(adv.name(), "semantic");
    }

    #[test]
    #[should_panic(expected = "is not compromised")]
    fn rejects_unknown_client() {
        let spec = ModelSpec::mlp(64, &[16], 3);
        let data = local_data();
        let region = SemanticRegion::fit(&data, 1, 0, 0.5, 7);
        let mut adv = SemanticAttack::new(
            vec![3],
            &[data],
            &region,
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        let mut rng = StdRng::seed_from_u64(1);
        let _ = adv.craft_update(9, &[0.0; 10], 0, &mut rng);
    }
}
