//! MetaFed [Chen et al., TNNLS 2023] — personalization via cyclic knowledge
//! distillation.
//!
//! Each client keeps a persistent personal model. When sampled, the client
//! (1) distills the circulating common knowledge (the global model's soft
//! predictions on local data) into its personal model, then (2) trains the
//! personal model on its local data, and reports the resulting delta as its
//! contribution to the common model. This is the single-federation ring
//! simplification documented in DESIGN.md §1; the paper's observation — in
//! highly non-IID settings sparse "neighbours" limit knowledge transfer and
//! restrain backdoor spread — emerges from the distillation bottleneck.

use super::{LocalOutcome, PersonalStore, Personalization, StateCommit};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use collapois_nn::loss::{softmax_into, Loss};
use collapois_nn::optim::Sgd;
use rand::rngs::StdRng;

/// MetaFed personalization strategy.
#[derive(Debug, Clone)]
pub struct MetaFed {
    temperature: f64,
    distill_steps: usize,
    personal: PersonalStore,
}

impl MetaFed {
    /// Creates MetaFed with the given distillation temperature and number of
    /// distillation steps per round.
    ///
    /// # Panics
    ///
    /// Panics if `temperature <= 0`.
    pub fn new(temperature: f64, distill_steps: usize) -> Self {
        assert!(temperature > 0.0, "temperature must be positive");
        Self {
            temperature,
            distill_steps,
            personal: PersonalStore::default(),
        }
    }
}

impl Personalization for MetaFed {
    fn name(&self) -> &'static str {
        "metafed"
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
        assert!(!data.is_empty(), "client has no training data");
        // Teacher: the circulating common model, hosted on the arena's
        // lazily created auxiliary instance.
        scratch.ensure_aux();
        let teacher = scratch.aux.as_mut().expect("aux just ensured");
        teacher.set_params(global);

        // Student: the client's persistent personal model (starts from the
        // common model on first participation).
        scratch
            .model
            .set_params(self.personal.get(client_id).map_or(global, Vec::as_slice));
        let mut opt = Sgd::new(cfg.client_lr);

        // Stage 1 — common-knowledge distillation toward the teacher's soft
        // predictions on the same minibatch.
        for _ in 0..self.distill_steps {
            data.minibatch_into(
                rng,
                cfg.batch_size,
                &mut scratch.idx,
                &mut scratch.x,
                &mut scratch.y,
            );
            let logits = teacher.forward_ws(&scratch.x, &mut scratch.ws);
            softmax_into(logits, &mut scratch.soft);
            let distill = Loss::Distillation {
                targets: &scratch.soft,
                temperature: self.temperature,
            };
            scratch
                .model
                .train_batch_ws(&scratch.x, distill, &mut opt, &mut scratch.ws);
        }
        // Stage 2 — personalization on local data.
        for _ in 0..cfg.local_steps {
            scratch.train_step(rng, data, cfg.batch_size, &mut opt);
        }
        scratch.store_delta(global);
        LocalOutcome {
            delta: std::mem::take(&mut scratch.delta),
            commit: StateCommit {
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

    #[test]
    fn personal_model_persists_across_rounds() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut mf = MetaFed::new(2.0, 2);
        mf.init(2, global.len());
        let out = mf.local_train(0, &global, &toy_data(), &cfg, &mut scratch, &mut rng);
        mf.commit(0, out.commit);
        let p1 = mf.eval_params(0, &global);
        assert_ne!(p1, global);
        // A second round starts from the stored personal model, not global.
        let out = mf.local_train(0, &global, &toy_data(), &cfg, &mut scratch, &mut rng);
        mf.commit(0, out.commit);
        let p2 = mf.eval_params(0, &global);
        assert_ne!(p2, p1);
        // Never-sampled client falls back to global.
        assert_eq!(mf.eval_params(1, &global), global);
    }

    #[test]
    fn personal_model_learns_local_task() {
        let spec = ModelSpec::mlp(2, &[8], 2);
        let mut cfg = FlConfig::quick(spec.clone());
        cfg.local_steps = 30;
        cfg.client_lr = 0.3;
        let mut rng = StdRng::seed_from_u64(1);
        let mut model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut mf = MetaFed::new(2.0, 2);
        mf.init(1, global.len());
        let data = toy_data();
        let out = mf.local_train(0, &global, &data, &cfg, &mut scratch, &mut rng);
        mf.commit(0, out.commit);
        model.set_params(&mf.eval_params(0, &global));
        let (x, y) = data.as_batch();
        assert!(model.evaluate(&x, &y) > 0.9);
    }
}
