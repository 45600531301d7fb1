//! Ditto [Li et al., ICML 2021] — fair and robust FL through
//! personalization.
//!
//! Ditto sends the standard global-model update to the server but keeps a
//! personal model trained with a proximal pull toward the (potentially
//! corrupt) global model; robustness comes from evaluating clients on the
//! personal models. Listed as a "robust aggregation" row of the paper's
//! Table I.

use super::{LocalOutcome, PersonalStore, Personalization, StateCommit};
use crate::client::{local_sgd, local_sgd_delta_into, Correction};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use rand::rngs::StdRng;

/// Ditto personalization strategy.
#[derive(Debug, Clone)]
pub struct Ditto {
    lambda: f64,
    personal: PersonalStore,
}

impl Ditto {
    /// Creates Ditto with the proximal regularization weight λ (small λ =
    /// more personalization, large λ = personal model glued to the global).
    ///
    /// # Panics
    ///
    /// Panics if `lambda < 0`.
    pub fn new(lambda: f64) -> Self {
        assert!(lambda >= 0.0, "lambda must be non-negative");
        Self {
            lambda,
            personal: PersonalStore::default(),
        }
    }
}

impl Personalization for Ditto {
    fn name(&self) -> &'static str {
        "ditto"
    }

    fn init(&mut self, num_clients: usize, _dim: usize) {
        self.personal.init(num_clients);
    }

    fn local_train(
        &self,
        client_id: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        // The update sent to the server: plain local SGD from the global.
        local_sgd_delta_into(rng, scratch, global, data, cfg, Correction::None);
        let delta = std::mem::take(&mut scratch.delta);
        // The personal model: starts from the previous personal model (or
        // the global on first participation) and is pulled toward the
        // *server* model by the λ-proximal step.
        let personal = self.personal.get(client_id).map_or(global, Vec::as_slice);
        let prox = Correction::Prox {
            mu: self.lambda,
            anchor: global,
        };
        local_sgd(rng, scratch, personal, data, cfg, prox);
        LocalOutcome {
            delta,
            commit: StateCommit {
                // Owned vector required: this outlives the arena in the
                // personal store.
                personal: Some(scratch.model.params().to_vec()),
                ..StateCommit::none()
            },
        }
    }

    fn commit(&mut self, client_id: usize, commit: StateCommit) {
        if let Some(personal) = commit.personal {
            self.personal.set(client_id, personal);
        }
    }

    fn eval_params(&self, client_id: usize, global: &[f32]) -> Vec<f32> {
        match self.personal.get(client_id) {
            Some(p) => p.clone(),
            None => global.to_vec(),
        }
    }

    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        self.personal.export()
    }

    fn import_state(&mut self, state: Vec<Option<Vec<f32>>>) {
        self.personal.import(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::zoo::ModelSpec;
    use collapois_stats::geometry::l2_distance;
    use rand::SeedableRng;

    fn toy_data() -> Dataset {
        let mut ds = Dataset::empty(&[2], 2);
        for i in 0..32 {
            let c = i % 2;
            let v = if c == 0 { 0.0 } else { 1.0 };
            ds.push(&[v, 1.0 - v], c);
        }
        ds
    }

    /// Runs compute + commit the way the round engine does.
    fn train_and_commit(
        d: &mut Ditto,
        cid: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let out = d.local_train(cid, global, data, cfg, scratch, rng);
        d.commit(cid, out.commit);
        out.delta
    }

    #[test]
    fn keeps_separate_personal_model() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut d = Ditto::new(0.1);
        d.init(1, global.len());
        let delta = train_and_commit(
            &mut d,
            0,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        assert!(delta.iter().any(|&v| v != 0.0));
        assert_ne!(d.eval_params(0, &global), global);
    }

    #[test]
    fn large_lambda_glues_personal_to_global() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let data = toy_data();
        let run = |lambda: f64| {
            let mut rng = StdRng::seed_from_u64(1);
            let model = spec.build(&mut rng);
            let global = model.params().to_vec();
            let mut scratch = ClientScratch::for_model(&model);
            let mut d = Ditto::new(lambda);
            d.init(1, global.len());
            let mut rng2 = StdRng::seed_from_u64(2);
            let _ = train_and_commit(&mut d, 0, &global, &data, &cfg, &mut scratch, &mut rng2);
            l2_distance(&d.eval_params(0, &global), &global)
        };
        assert!(
            run(100.0) < run(0.0),
            "large lambda must stay closer to global"
        );
    }

    #[test]
    fn state_survives_export_import() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(3);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut d = Ditto::new(0.1);
        d.init(2, global.len());
        let _ = train_and_commit(
            &mut d,
            1,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        let state = d.export_state();
        let mut restored = Ditto::new(0.1);
        restored.init(2, global.len());
        restored.import_state(state);
        assert_eq!(restored.eval_params(1, &global), d.eval_params(1, &global));
    }

    #[test]
    fn uncommitted_training_leaves_state_untouched() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(4);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut d = Ditto::new(0.1);
        d.init(1, global.len());
        let _ = d.local_train(0, &global, &toy_data(), &cfg, &mut scratch, &mut rng);
        // No commit: the strategy must still evaluate on the global model.
        assert_eq!(d.eval_params(0, &global), global);
    }
}
