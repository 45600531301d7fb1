//! SCAFFOLD [Karimireddy et al., ICML 2020] — stochastic controlled
//! averaging for federated learning.
//!
//! Non-IID shards make each client's local gradient drift toward its own
//! distribution ("client drift"); SCAFFOLD cancels the drift with control
//! variates: a server variate `c` (estimate of the global gradient) and a
//! per-client variate `c_i` (estimate of client `i`'s gradient). Each local
//! step is corrected by `−η(c − c_i)`, and after `K` steps the client
//! refreshes its variate via option II of the paper:
//!
//! ```text
//! c_i⁺ = c_i − c + (x − y_i)/(K·η) = c_i − c − Δ_i/(K·η)
//! c    ← c + (1/N)·Σ_{i∈S} (c_i⁺ − c_i)
//! ```
//!
//! which maintains `c = (1/N)·Σ_i c_i` inductively from the all-zero start.
//!
//! The strategy fits the compute/commit split: `local_train` reads the
//! `(c, c_i)` snapshot taken at `begin_round` and returns `c_i⁺` in the
//! [`StateCommit::ctrl`] slot; `commit` applies the variate swap and folds
//! the server increment in sampled-client order, so any worker count
//! produces bitwise-identical state. Evaluation uses the global model —
//! SCAFFOLD trains one shared model, not per-client ones.

use super::{LocalOutcome, Personalization, StateCommit};
use crate::client::{local_sgd_delta_into, Correction};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use rand::rngs::StdRng;

/// SCAFFOLD variance-reduced aggregation strategy.
#[derive(Debug, Clone, Default)]
pub struct Scaffold {
    /// Server control variate `c` (zeros until the first commit lands).
    server: Vec<f32>,
    /// Per-client control variates; `None` reads as zeros (the client has
    /// never participated).
    clients: Vec<Option<Vec<f32>>>,
    num_clients: usize,
}

impl Scaffold {
    /// Creates the strategy (state is allocated in `init`).
    pub fn new() -> Self {
        Self::default()
    }

    /// The server control variate `c`.
    pub fn server_control(&self) -> &[f32] {
        &self.server
    }

    /// Client `id`'s control variate `c_i`, if it ever participated.
    pub fn client_control(&self, id: usize) -> Option<&[f32]> {
        self.clients.get(id).and_then(Option::as_deref)
    }
}

impl Personalization for Scaffold {
    fn name(&self) -> &'static str {
        "scaffold"
    }

    fn init(&mut self, num_clients: usize, dim: usize) {
        self.server = vec![0.0; dim];
        self.clients = vec![None; num_clients];
        self.num_clients = num_clients;
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
        let ci = self.clients.get(client_id).and_then(Option::as_deref);
        // Correction c − c_i into the spare flat buffer (taken out of the
        // arena so the trainer can borrow the rest of it mutably).
        let mut corr = std::mem::take(&mut scratch.correction);
        corr.clear();
        match ci {
            Some(ci) => corr.extend(self.server.iter().zip(ci).map(|(c, i)| c - i)),
            None => corr.extend_from_slice(&self.server),
        }
        let control = Correction::Control(&corr);
        local_sgd_delta_into(rng, scratch, global, data, cfg, control);
        scratch.correction = corr;
        // Option II variate refresh: c_i⁺ = c_i − c − Δ/(K·η).
        let scale = 1.0 / (cfg.local_steps.max(1) as f32 * cfg.client_lr as f32);
        let ctrl: Vec<f32> = (0..global.len())
            .map(|k| {
                let ci_k = ci.map_or(0.0, |v| v[k]);
                ci_k - self.server[k] - scratch.delta[k] * scale
            })
            .collect();
        LocalOutcome {
            delta: std::mem::take(&mut scratch.delta),
            commit: StateCommit {
                ctrl: Some(ctrl),
                ..StateCommit::none()
            },
        }
    }

    fn commit(&mut self, client_id: usize, commit: StateCommit) {
        let Some(ctrl) = commit.ctrl else { return };
        if client_id >= self.clients.len() {
            return;
        }
        // Fold (c_i⁺ − c_i)/N into the server variate, then swap c_i.
        // Commits run sequentially in sampled order, so the accumulation
        // order — and therefore the f32 result — is schedule-independent.
        let inv_n = 1.0 / self.num_clients.max(1) as f32;
        match self.clients[client_id].as_deref() {
            Some(old) => {
                for ((c, new), old) in self.server.iter_mut().zip(&ctrl).zip(old) {
                    *c += (new - old) * inv_n;
                }
            }
            None => {
                for (c, new) in self.server.iter_mut().zip(&ctrl) {
                    *c += new * inv_n;
                }
            }
        }
        self.clients[client_id] = Some(ctrl);
    }

    fn eval_params(&self, _client_id: usize, global: &[f32]) -> Vec<f32> {
        global.to_vec()
    }

    /// Layout: slot 0 holds the server variate `c`, slots `1..=N` the
    /// per-client variates.
    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        let mut out = Vec::with_capacity(self.clients.len() + 1);
        out.push(Some(self.server.clone()));
        out.extend(self.clients.iter().cloned());
        out
    }

    fn import_state(&mut self, mut state: Vec<Option<Vec<f32>>>) {
        if state.is_empty() {
            return;
        }
        let rest = state.split_off(1);
        if let Some(Some(server)) = state.into_iter().next() {
            self.server = server;
        }
        self.clients = rest;
        self.num_clients = self.clients.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::personalize::NoPersonalization;
    use collapois_nn::zoo::ModelSpec;
    use rand::SeedableRng;

    fn toy_data(shift: f32) -> Dataset {
        let mut ds = Dataset::empty(&[2], 2);
        for i in 0..32 {
            let c = i % 2;
            let v = if c == 0 { 0.0 } else { 1.0 };
            ds.push(&[v + shift, 1.0 - v - shift], c);
        }
        ds
    }

    fn setup() -> (FlConfig, Vec<f32>, ClientScratch) {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let scratch = ClientScratch::for_model(&model);
        (cfg, global, scratch)
    }

    #[test]
    fn first_round_matches_fedavg_bitwise() {
        let (cfg, global, mut scratch) = setup();
        let data = toy_data(0.0);
        let mut s = Scaffold::new();
        s.init(2, global.len());
        let mut rng = StdRng::seed_from_u64(1);
        let out = s.local_train(0, &global, &data, &cfg, &mut scratch, &mut rng);
        let mut rng = StdRng::seed_from_u64(1);
        let plain =
            NoPersonalization::new().local_train(0, &global, &data, &cfg, &mut scratch, &mut rng);
        assert_eq!(out.delta, plain.delta, "zero variates = plain local SGD");
        assert!(out.commit.ctrl.is_some());
    }

    #[test]
    fn variates_mean_tracks_server_control() {
        let (cfg, global, mut scratch) = setup();
        let mut s = Scaffold::new();
        s.init(2, global.len());
        let mut rng = StdRng::seed_from_u64(2);
        for round in 0..4 {
            for cid in 0..2 {
                let data = toy_data(cid as f32 * 0.3);
                let out = s.local_train(cid, &global, &data, &cfg, &mut scratch, &mut rng);
                s.commit(cid, out.commit);
                let _ = round;
            }
        }
        // Invariant c = (1/N)·Σ c_i, up to f32 accumulation noise.
        for k in 0..global.len() {
            let mean = (0..2)
                .map(|cid| s.client_control(cid).map_or(0.0, |v| v[k]))
                .sum::<f32>()
                / 2.0;
            assert!(
                (mean - s.server_control()[k]).abs() < 1e-4,
                "k={k}: mean {mean} vs c {}",
                s.server_control()[k]
            );
        }
    }

    #[test]
    fn second_round_correction_changes_the_delta() {
        let (cfg, global, mut scratch) = setup();
        let data = toy_data(0.25);
        let mut s = Scaffold::new();
        s.init(2, global.len());
        let mut rng = StdRng::seed_from_u64(3);
        let out = s.local_train(0, &global, &data, &cfg, &mut scratch, &mut rng);
        s.commit(0, out.commit);
        // Client 1 now trains against a non-zero c (client 0's variate).
        let mut rng = StdRng::seed_from_u64(4);
        let corrected = s.local_train(1, &global, &data, &cfg, &mut scratch, &mut rng);
        let mut rng = StdRng::seed_from_u64(4);
        let plain =
            NoPersonalization::new().local_train(1, &global, &data, &cfg, &mut scratch, &mut rng);
        assert_ne!(corrected.delta, plain.delta, "correction must act");
    }

    #[test]
    fn state_survives_export_import() {
        let (cfg, global, mut scratch) = setup();
        let mut s = Scaffold::new();
        s.init(3, global.len());
        let mut rng = StdRng::seed_from_u64(5);
        let out = s.local_train(1, &global, &toy_data(0.1), &cfg, &mut scratch, &mut rng);
        s.commit(1, out.commit);
        let state = s.export_state();
        assert_eq!(state.len(), 4, "server slot + 3 client slots");
        let mut restored = Scaffold::new();
        restored.init(3, global.len());
        restored.import_state(state);
        assert_eq!(restored.server_control(), s.server_control());
        assert_eq!(restored.client_control(1), s.client_control(1));
        assert!(restored.client_control(0).is_none());
    }

    #[test]
    fn uncommitted_training_leaves_state_untouched() {
        let (cfg, global, mut scratch) = setup();
        let mut s = Scaffold::new();
        s.init(1, global.len());
        let mut rng = StdRng::seed_from_u64(6);
        let _ = s.local_train(0, &global, &toy_data(0.0), &cfg, &mut scratch, &mut rng);
        assert!(s.server_control().iter().all(|&v| v == 0.0));
        assert!(s.client_control(0).is_none());
    }
}
