//! Clustered federated learning [Ghosh et al., NeurIPS 2020] — the paper's
//! third personalization category (§II-A): assign each client to one of `k`
//! cluster models and aggregate locally-trained updates within clusters.
//!
//! IFCA-style realization on top of the single-global-model protocol: the
//! strategy keeps `k` cluster models initialized as perturbations of the
//! global model. A sampled client picks the cluster whose model fits its
//! local data best (lowest loss), trains that cluster model locally, and
//! reports the delta **relative to the global model** (so server-side
//! aggregation and attacks operate unchanged); the trained parameters are
//! stored back into the cluster. Evaluation uses the client's last-selected
//! cluster model.
//!
//! Under the compute/commit contract, cluster initialization and anchoring
//! happen once per round in [`Personalization::begin_round`]; every client
//! of the round selects against that same cluster snapshot, and trained
//! cluster parameters land at commit time in sampled order (last writer per
//! cluster wins). This is what makes the strategy schedule-independent.

use super::{LocalOutcome, Personalization, StateCommit};
use crate::client::{local_sgd, Correction};
use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use rand::rngs::StdRng;
use rand::Rng;

/// IFCA-style clustered personalization.
#[derive(Debug, Clone)]
pub struct Clustered {
    k: usize,
    /// Cluster models (lazily initialized from the first-seen global).
    clusters: Vec<Vec<f32>>,
    /// Each client's last cluster assignment.
    assignment: Vec<Option<usize>>,
    /// Blend weight pulling cluster models toward the fresh global each
    /// round (keeps clusters anchored to the federation).
    anchor: f32,
}

impl Clustered {
    /// Creates a clustered strategy with `k` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one cluster");
        Self {
            k,
            clusters: Vec::new(),
            assignment: Vec::new(),
            anchor: 0.1,
        }
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.k
    }

    fn ensure_clusters<R: Rng + ?Sized>(&mut self, global: &[f32], rng: &mut R) {
        if !self.clusters.is_empty() {
            return;
        }
        self.clusters = (0..self.k)
            .map(|_| {
                global
                    .iter()
                    .map(|&g| g + rng.gen_range(-0.01f32..0.01))
                    .collect()
            })
            .collect();
    }

    /// Picks the cluster with the lowest loss on a sample of `data`.
    fn select_cluster(
        &self,
        scratch: &mut ClientScratch,
        data: &Dataset,
        cfg: &FlConfig,
        rng: &mut StdRng,
    ) -> usize {
        data.minibatch_into(
            rng,
            cfg.batch_size.max(16),
            &mut scratch.idx,
            &mut scratch.x,
            &mut scratch.y,
        );
        let mut best = 0usize;
        let mut best_loss = f64::INFINITY;
        for (c, params) in self.clusters.iter().enumerate() {
            scratch.model.set_params(params);
            let (loss, _) = scratch
                .model
                .loss_ws(&scratch.x, &scratch.y, &mut scratch.ws);
            if loss < best_loss {
                best_loss = loss;
                best = c;
            }
        }
        best
    }
}

impl Personalization for Clustered {
    fn name(&self) -> &'static str {
        "clustered"
    }

    fn init(&mut self, num_clients: usize, _dim: usize) {
        self.assignment = vec![None; num_clients];
        self.clusters.clear();
    }

    fn begin_round(&mut self, global: &[f32], rng: &mut StdRng) {
        self.ensure_clusters(global, rng);
        // Anchor clusters toward the current federation model.
        for cluster in &mut self.clusters {
            for (c, &g) in cluster.iter_mut().zip(global) {
                *c += self.anchor * (g - *c);
            }
        }
    }

    fn local_train(
        &self,
        _client_id: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        assert!(!data.is_empty(), "client has no training data");
        assert!(
            !self.clusters.is_empty(),
            "begin_round must run before local_train"
        );
        let cluster = self.select_cluster(scratch, data, cfg, rng);
        local_sgd(
            rng,
            scratch,
            &self.clusters[cluster],
            data,
            cfg,
            Correction::None,
        );
        scratch.store_delta(global);
        LocalOutcome {
            delta: std::mem::take(&mut scratch.delta),
            commit: StateCommit {
                cluster: Some((cluster, scratch.model.params().to_vec())),
                ..StateCommit::none()
            },
        }
    }

    fn commit(&mut self, client_id: usize, commit: StateCommit) {
        if let Some((cluster, trained)) = commit.cluster {
            if client_id < self.assignment.len() {
                self.assignment[client_id] = Some(cluster);
            }
            if cluster < self.clusters.len() {
                self.clusters[cluster] = trained;
            }
        }
    }

    fn eval_params(&self, client_id: usize, global: &[f32]) -> Vec<f32> {
        match self.assignment.get(client_id).copied().flatten() {
            Some(c) if c < self.clusters.len() => self.clusters[c].clone(),
            _ => global.to_vec(),
        }
    }

    /// Layout: `n` assignment entries (single-element vectors holding the
    /// cluster index) followed by the cluster models (absent before the
    /// first round initializes them).
    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        let mut state: Vec<Option<Vec<f32>>> = self
            .assignment
            .iter()
            .map(|a| a.map(|c| vec![c as f32]))
            .collect();
        state.extend(self.clusters.iter().cloned().map(Some));
        state
    }

    fn import_state(&mut self, state: Vec<Option<Vec<f32>>>) {
        let n = self.assignment.len();
        debug_assert!(
            state.len() == n || state.len() == n + self.k,
            "Clustered state layout mismatch"
        );
        let mut it = state.into_iter();
        self.assignment = it
            .by_ref()
            .take(n)
            .map(|entry| entry.and_then(|v| v.first().map(|&c| c as usize)))
            .collect();
        self.clusters = it.flatten().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::model::Sequential;
    use collapois_nn::zoo::ModelSpec;
    use rand::SeedableRng;

    /// Two clearly distinct client populations.
    fn population_data(flip: bool) -> Dataset {
        let mut ds = Dataset::empty(&[2], 2);
        for i in 0..32 {
            let c = i % 2;
            let v = if (c == 0) ^ flip { 0.0 } else { 1.0 };
            ds.push(&[v, 1.0 - v], c);
        }
        ds
    }

    fn setup() -> (FlConfig, Sequential, Vec<f32>) {
        let spec = ModelSpec::mlp(2, &[8], 2);
        let mut cfg = FlConfig::quick(spec.clone());
        cfg.local_steps = 20;
        cfg.client_lr = 0.3;
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        (cfg, model, global)
    }

    fn train_and_commit(
        cl: &mut Clustered,
        cid: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) {
        let out = cl.local_train(cid, global, data, cfg, scratch, rng);
        cl.commit(cid, out.commit);
    }

    #[test]
    fn clients_with_conflicting_data_land_in_different_clusters() {
        let (cfg, mut model, global) = setup();
        let mut scratch = ClientScratch::for_model(&model);
        let mut cl = Clustered::new(2);
        cl.init(2, global.len());
        let mut rng = StdRng::seed_from_u64(1);
        let a = population_data(false);
        let b = population_data(true);
        // Several alternating rounds so each specializes a cluster.
        for _ in 0..6 {
            cl.begin_round(&global, &mut rng);
            train_and_commit(&mut cl, 0, &global, &a, &cfg, &mut scratch, &mut rng);
            train_and_commit(&mut cl, 1, &global, &b, &cfg, &mut scratch, &mut rng);
        }
        let c0 = cl.assignment[0].unwrap();
        let c1 = cl.assignment[1].unwrap();
        assert_ne!(c0, c1, "conflicting populations should separate");
        // Each client's cluster model fits its own data.
        model.set_params(&cl.eval_params(0, &global));
        let (xa, ya) = a.as_batch();
        assert!(model.evaluate(&xa, &ya) > 0.9);
        model.set_params(&cl.eval_params(1, &global));
        let (xb, yb) = b.as_batch();
        assert!(model.evaluate(&xb, &yb) > 0.9);
    }

    #[test]
    fn unseen_client_evaluates_on_global() {
        let (_, _, global) = setup();
        let mut cl = Clustered::new(3);
        cl.init(4, global.len());
        assert_eq!(cl.eval_params(2, &global), global);
        assert_eq!(cl.assignment[2], None);
        assert_eq!(cl.k(), 3);
    }

    #[test]
    fn state_survives_export_import() {
        let (cfg, model, global) = setup();
        let mut scratch = ClientScratch::for_model(&model);
        let mut cl = Clustered::new(2);
        cl.init(2, global.len());
        let mut rng = StdRng::seed_from_u64(2);
        cl.begin_round(&global, &mut rng);
        train_and_commit(
            &mut cl,
            1,
            &global,
            &population_data(false),
            &cfg,
            &mut scratch,
            &mut rng,
        );
        let state = cl.export_state();
        assert_eq!(state.len(), 2 + 2); // 2 assignments + 2 clusters
        let mut restored = Clustered::new(2);
        restored.init(2, global.len());
        restored.import_state(state);
        assert_eq!(restored.assignment[1], cl.assignment[1]);
        assert_eq!(restored.eval_params(1, &global), cl.eval_params(1, &global));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn rejects_zero_clusters() {
        let _ = Clustered::new(0);
    }
}
