//! FedDC [Gao et al., CVPR 2022] — local drift decoupling and correction.
//!
//! Each client maintains a drift variable `h_i` capturing the gap between
//! its personalized optimum and the global model. Local training starts
//! from the global model, runs proximal SGD, then updates the drift
//! `h_i ← h_i + (θ_i − θ)` and reports the drift-corrected delta. Clients
//! are evaluated on their personalized model `θ_i` — the property that lets
//! FedDC shrug off poorly-integrated backdoors (DPois) but not CollaPois,
//! whose Trojan region attracts both global and personalized models.
//!
//! This is the simplified drift-decoupled variant documented in DESIGN.md §1
//! (no per-minibatch drift schedule).

use super::{LocalOutcome, PersonalStore, Personalization, StateCommit};
use crate::client::{local_sgd_delta_into, Correction};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use rand::rngs::StdRng;

/// FedDC personalization strategy.
#[derive(Debug, Clone, Default)]
pub struct FedDc {
    prox_mu: f64,
    drift_decay: f64,
    drift: Vec<Option<Vec<f32>>>,
    personal: PersonalStore,
}

impl FedDc {
    /// Creates FedDC with the given proximal weight (drift-control strength).
    ///
    /// # Panics
    ///
    /// Panics if `prox_mu < 0`.
    pub fn new(prox_mu: f64) -> Self {
        assert!(prox_mu >= 0.0, "prox_mu must be non-negative");
        Self {
            prox_mu,
            drift_decay: 0.5,
            drift: Vec::new(),
            personal: PersonalStore::default(),
        }
    }
}

impl Personalization for FedDc {
    fn name(&self) -> &'static str {
        "feddc"
    }

    fn init(&mut self, num_clients: usize, _dim: usize) {
        self.drift = vec![None; num_clients];
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
        let prox = Correction::Prox {
            mu: self.prox_mu,
            anchor: global,
        };
        local_sgd_delta_into(rng, scratch, global, data, cfg, prox);
        let delta = std::mem::take(&mut scratch.delta);
        // Drift correction: h_i ← decay·h_i + (θ_i − θ).
        let decay = self.drift_decay as f32;
        let new_drift: Vec<f32> = match self.drift.get(client_id).and_then(Option::as_ref) {
            Some(h) => h
                .iter()
                .zip(&delta)
                .map(|(hv, dv)| decay * hv + dv)
                .collect(),
            None => delta.clone(),
        };
        // Personalized model: global + local delta + accumulated drift.
        let personal: Vec<f32> = global
            .iter()
            .zip(&delta)
            .zip(&new_drift)
            .map(|((g, d), h)| g + d + decay * h)
            .collect();
        LocalOutcome {
            delta,
            commit: StateCommit {
                personal: Some(personal),
                drift: Some(new_drift),
                ..StateCommit::none()
            },
        }
    }

    fn commit(&mut self, client_id: usize, commit: StateCommit) {
        if let Some(drift) = commit.drift {
            if client_id < self.drift.len() {
                self.drift[client_id] = Some(drift);
            }
        }
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

    /// Layout: `n` drift entries followed by `n` personal-model entries.
    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        let mut state = self.drift.clone();
        state.extend(self.personal.export());
        state
    }

    fn import_state(&mut self, state: Vec<Option<Vec<f32>>>) {
        let n = self.drift.len();
        debug_assert_eq!(state.len(), 2 * n, "FedDc state layout mismatch");
        let mut it = state.into_iter();
        self.drift = it.by_ref().take(n).collect();
        self.personal.import(it.collect());
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

    fn train_and_commit(
        fd: &mut FedDc,
        cid: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let out = fd.local_train(cid, global, data, cfg, scratch, rng);
        fd.commit(cid, out.commit);
        out.delta
    }

    #[test]
    fn accumulates_drift_and_personal_model() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut fd = FedDc::new(1.0);
        fd.init(2, global.len());
        assert!(fd.drift[0].as_ref().is_none());
        let _ = train_and_commit(
            &mut fd,
            0,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        assert!(fd.drift[0].as_ref().is_some());
        // Personalized model differs from the global.
        assert_ne!(fd.eval_params(0, &global), global);
        // Untrained client evaluates on the global model.
        assert_eq!(fd.eval_params(1, &global), global);
    }

    #[test]
    fn drift_evolves_across_rounds() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(1);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut fd = FedDc::new(1.0);
        fd.init(1, global.len());
        let _ = train_and_commit(
            &mut fd,
            0,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        let d1 = fd.drift[0].as_ref().unwrap().clone();
        let _ = train_and_commit(
            &mut fd,
            0,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        let d2 = fd.drift[0].as_ref().unwrap().clone();
        assert_ne!(d1, d2);
    }

    #[test]
    fn state_survives_export_import() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(2);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut fd = FedDc::new(1.0);
        fd.init(3, global.len());
        let _ = train_and_commit(
            &mut fd,
            2,
            &global,
            &toy_data(),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        let state = fd.export_state();
        assert_eq!(state.len(), 6); // 3 drift + 3 personal slots
        let mut restored = FedDc::new(1.0);
        restored.init(3, global.len());
        restored.import_state(state);
        assert_eq!(restored.drift[2], fd.drift[2]);
        assert_eq!(restored.eval_params(2, &global), fd.eval_params(2, &global));
    }
}
