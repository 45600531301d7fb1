//! DBA — distributed backdoor attack [Xie et al., ICLR 2020].
//!
//! The global trigger is decomposed into four sub-patterns; compromised
//! client `i` poisons its local data with sub-pattern `i mod 4` only. At
//! inference time the attacker stamps the *composed* pattern. Like DPois,
//! each client still trains on its own non-IID data, so malicious deltas
//! scatter.

use super::{poisoned_local_delta, LocalTrainConfig};
use collapois_data::poison::with_poisoned_fraction;
use collapois_data::sample::Dataset;
use collapois_data::trigger::DbaTrigger;
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The DBA adversary.
#[derive(Debug)]
pub struct DbaAttack {
    compromised: Vec<usize>,
    poisoned_data: Vec<Dataset>,
    scratch: ClientScratch,
    cfg: LocalTrainConfig,
}

impl DbaAttack {
    /// Builds the adversary: compromised client `k` (by position) poisons
    /// with sub-pattern `k mod 4` of `trigger`.
    ///
    /// # Panics
    ///
    /// Panics if lengths mismatch or any dataset is empty.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's attack parameterization
    pub fn new(
        compromised: Vec<usize>,
        local_data: &[Dataset],
        trigger: &DbaTrigger,
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
            .enumerate()
            .map(|(k, d)| {
                assert!(!d.is_empty(), "compromised client has no data");
                let sub = trigger.part(k);
                with_poisoned_fraction(&mut rng, d, sub, target_class, poison_fraction)
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
}

impl Adversary for DbaAttack {
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
        poisoned_local_delta(&mut self.scratch, global, data, &self.cfg, rng)
    }

    fn name(&self) -> &'static str {
        "dba"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};

    #[test]
    fn clients_poison_with_distinct_subpatterns() {
        let data = SyntheticImage::new(SyntheticImageConfig {
            side: 12,
            classes: 3,
            samples: 30,
            noise: 0.0,
            max_shift: 0,
            ..Default::default()
        })
        .generate();
        let trigger = DbaTrigger::new(12, 2, 1.0);
        let spec = ModelSpec::mlp(144, &[8], 3);
        let adv = DbaAttack::new(
            vec![0, 1],
            &[data.clone(), data],
            &trigger,
            0,
            1.0,
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        // The two clients' poisoned sets must contain different patterns:
        // compare the poisoned halves (appended after the 30 clean samples).
        let p0 = adv.poisoned_data[0].features_of(30);
        let p1 = adv.poisoned_data[1].features_of(30);
        assert_ne!(p0, p1, "sub-patterns must differ between clients");
        // Poisoned labels are the target class.
        assert_eq!(adv.poisoned_data[0].label_of(30), 0);
    }

    #[test]
    fn crafts_updates() {
        let data = SyntheticImage::new(SyntheticImageConfig {
            side: 12,
            classes: 3,
            samples: 30,
            ..Default::default()
        })
        .generate();
        let trigger = DbaTrigger::new(12, 2, 1.0);
        let spec = ModelSpec::mlp(144, &[8], 3);
        let mut adv = DbaAttack::new(
            vec![5],
            &[data],
            &trigger,
            0,
            0.5,
            &spec,
            LocalTrainConfig::default(),
            0,
        );
        let global = {
            let mut r = StdRng::seed_from_u64(3);
            spec.build(&mut r).params().to_vec()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let delta = adv.craft_update(5, &global, 0, &mut rng);
        assert_eq!(delta.len(), global.len());
        assert!(delta.iter().any(|&d| d != 0.0));
        assert_eq!(adv.name(), "dba");
    }
}
