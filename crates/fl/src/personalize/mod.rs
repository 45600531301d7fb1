//! Personalized federated-learning strategies.
//!
//! The paper evaluates CollaPois against plain FedAvg and two personalized
//! algorithms — FedDC [Gao et al., CVPR 2022] and MetaFed [Chen et al.,
//! TNNLS 2023] — plus the personalization-based Ditto defense [Li et al.,
//! ICML 2021]. A [`Personalization`] strategy controls (a) how a sampled
//! client trains locally and what update it sends, and (b) which parameters
//! a client's metrics are evaluated on (`θ_i`, the personalized model).
//!
//! ## Compute/commit split
//!
//! Local training is split into a **pure compute** phase and an **ordered
//! commit** phase so the round engine can fan clients over worker threads
//! without losing determinism:
//!
//! 1. [`Personalization::begin_round`] runs once, sequentially, before any
//!    client trains (shared-state setup such as cluster anchoring).
//! 2. [`Personalization::local_train`] takes `&self`: it reads a snapshot
//!    of strategy state and returns the update **plus** a [`StateCommit`]
//!    describing every mutation it wants.
//! 3. [`Personalization::commit`] applies the commits sequentially in
//!    sampled-client order, regardless of which worker finished first.
//!
//! Under this contract `workers = N` is bit-identical to `workers = 1` by
//! construction: no client can observe another client's same-round writes,
//! and writes land in a schedule-independent order.

mod clustered;
mod ditto;
mod feddc;
mod metafed;
mod scaffold;

pub use clustered::Clustered;
pub use ditto::Ditto;
pub use feddc::FedDc;
pub use metafed::MetaFed;
pub use scaffold::Scaffold;

use crate::client::{local_sgd_delta_into, Correction};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use rand::rngs::StdRng;

/// State mutations requested by one client's local training, applied by
/// [`Personalization::commit`] in sampled order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateCommit {
    /// New personal model for the client.
    pub personal: Option<Vec<f32>>,
    /// New drift variable for the client (FedDC).
    pub drift: Option<Vec<f32>>,
    /// Cluster selection + trained cluster parameters (clustered FL).
    pub cluster: Option<(usize, Vec<f32>)>,
    /// New client control variate `c_i⁺` (SCAFFOLD).
    pub ctrl: Option<Vec<f32>>,
}

impl StateCommit {
    /// A commit that changes nothing.
    pub fn none() -> Self {
        Self::default()
    }
}

/// What one client's local training produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalOutcome {
    /// Flat delta `θ_local − θ_global` sent to the server.
    pub delta: Vec<f32>,
    /// State mutations to apply at commit time.
    pub commit: StateCommit,
}

impl LocalOutcome {
    /// An outcome carrying only a delta (stateless strategies).
    pub fn stateless(delta: Vec<f32>) -> Self {
        Self {
            delta,
            commit: StateCommit::none(),
        }
    }
}

/// A client-side training/evaluation strategy.
pub trait Personalization: std::fmt::Debug + Send + Sync {
    /// Short name for report tables.
    fn name(&self) -> &'static str;

    /// Called once before training with the client count and parameter
    /// dimension (for per-client state allocation).
    fn init(&mut self, num_clients: usize, dim: usize);

    /// Round hook: runs once, sequentially, before any client of the round
    /// trains. Shared-state maintenance (e.g. cluster initialization and
    /// anchoring) belongs here, not in [`Personalization::local_train`].
    fn begin_round(&mut self, _global: &[f32], _rng: &mut StdRng) {}

    /// Local training for a sampled benign client.
    ///
    /// Must not mutate strategy state (`&self`): it reads the state
    /// snapshot as of [`Personalization::begin_round`] and reports every
    /// intended mutation through the returned [`StateCommit`].
    ///
    /// `scratch` is a persistent per-worker arena
    /// ([`crate::scratch::ClientScratch`]); implementations train on
    /// `scratch.model` (reloading it from `global` or their personal state —
    /// never relying on its previous contents) and conventionally build the
    /// outgoing delta in `scratch.delta`, handing it off via `mem::take` so
    /// the buffer is reclaimed by the round engine.
    fn local_train(
        &self,
        client_id: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> LocalOutcome;

    /// Applies a client's state mutations. Called by the round engine in
    /// sampled-client order after all of the round's training finished.
    fn commit(&mut self, _client_id: usize, _commit: StateCommit) {}

    /// Parameters of the model used to evaluate client `client_id`'s
    /// metrics (the personalized model `θ_i`; the global model when the
    /// strategy keeps no per-client state or the client never participated).
    fn eval_params(&self, client_id: usize, global: &[f32]) -> Vec<f32>;

    /// Serializes the strategy's mutable state for checkpointing. The
    /// layout is strategy-internal; the only contract is that
    /// [`Personalization::import_state`] on an identically-configured
    /// strategy restores it exactly.
    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        Vec::new()
    }

    /// Restores state captured by [`Personalization::export_state`].
    fn import_state(&mut self, _state: Vec<Option<Vec<f32>>>) {}
}

/// Plain FedAvg: no personalization — clients train from the global model
/// and are evaluated on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPersonalization;

impl NoPersonalization {
    /// Creates the strategy.
    pub fn new() -> Self {
        Self
    }
}

impl Personalization for NoPersonalization {
    fn name(&self) -> &'static str {
        "fedavg"
    }

    fn init(&mut self, _num_clients: usize, _dim: usize) {}

    fn local_train(
        &self,
        _client_id: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        local_sgd_delta_into(rng, scratch, global, data, cfg, Correction::None);
        LocalOutcome::stateless(std::mem::take(&mut scratch.delta))
    }

    fn eval_params(&self, _client_id: usize, global: &[f32]) -> Vec<f32> {
        global.to_vec()
    }
}

/// Per-client personal-model store shared by the personalized strategies.
#[derive(Debug, Clone, Default)]
pub(crate) struct PersonalStore {
    models: Vec<Option<Vec<f32>>>,
}

impl PersonalStore {
    pub(crate) fn init(&mut self, num_clients: usize) {
        self.models = vec![None; num_clients];
    }

    pub(crate) fn get(&self, id: usize) -> Option<&Vec<f32>> {
        self.models.get(id).and_then(Option::as_ref)
    }

    pub(crate) fn set(&mut self, id: usize, params: Vec<f32>) {
        if id < self.models.len() {
            self.models[id] = Some(params);
        }
    }

    /// Snapshot of every slot (for checkpoint export).
    pub(crate) fn export(&self) -> Vec<Option<Vec<f32>>> {
        self.models.clone()
    }

    /// Restores a snapshot taken by [`PersonalStore::export`].
    pub(crate) fn import(&mut self, models: Vec<Option<Vec<f32>>>) {
        self.models = models;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::zoo::ModelSpec;
    use rand::SeedableRng;

    pub(crate) fn toy_data() -> Dataset {
        let mut ds = Dataset::empty(&[2], 2);
        for i in 0..32 {
            let c = i % 2;
            let v = if c == 0 { 0.0 } else { 1.0 };
            ds.push(&[v, 1.0 - v], c);
        }
        ds
    }

    #[test]
    fn no_personalization_evaluates_global() {
        let p = NoPersonalization::new();
        let global = vec![1.0f32, 2.0];
        assert_eq!(p.eval_params(0, &global), global);
    }

    #[test]
    fn no_personalization_trains_from_global() {
        let spec = ModelSpec::mlp(2, &[4], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        let mut scratch = ClientScratch::for_model(&model);
        let mut p = NoPersonalization::new();
        p.init(1, global.len());
        let out = p.local_train(0, &global, &toy_data(), &cfg, &mut scratch, &mut rng);
        assert_eq!(out.delta.len(), global.len());
        assert!(out.delta.iter().any(|&d| d != 0.0));
        assert_eq!(out.commit, StateCommit::none());
        assert!(p.export_state().is_empty());
    }

    #[test]
    fn personal_store_roundtrip() {
        let mut s = PersonalStore::default();
        s.init(3);
        assert!(s.get(1).is_none());
        s.set(1, vec![1.0]);
        assert_eq!(s.get(1), Some(&vec![1.0]));
        s.set(99, vec![2.0]); // out of range: ignored
        assert!(s.get(99).is_none());
        let snapshot = s.export();
        let mut t = PersonalStore::default();
        t.import(snapshot);
        assert_eq!(t.get(1), Some(&vec![1.0]));
    }
}
