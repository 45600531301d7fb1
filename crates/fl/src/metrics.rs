//! Client-level and population-level metrics (§V of the paper).
//!
//! * **Benign AC** — accuracy of client `i`'s personalized model on its
//!   clean test split.
//! * **Attack SR** — fraction of client `i`'s trigger-stamped test samples
//!   predicted as the target class `y^Troj`.
//! * **Eq. 8 score** — `Benign AC + Attack SR`, used to rank the top-k%
//!   most-affected clients.
//! * **Clusters** — the paper's 1 %-, 25 %-, 50 %- and bottom-50 %-clusters
//!   (each excluding the preceding ones) with their Eq. 9 cumulative-label
//!   cosine to the attacker's auxiliary data.

use collapois_data::federated::FederatedDataset;
use collapois_data::labels::{cumulative_counts, cumulative_label_distribution};
use collapois_data::poison::BackdoorEval;
use collapois_data::sample::Dataset;
use collapois_nn::model::Sequential;
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use collapois_stats::geometry::cosine_similarity_f64;

/// Per-client evaluation outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClientMetrics {
    /// Client id.
    pub client_id: usize,
    /// Accuracy on the clean test split.
    pub benign_ac: f64,
    /// Backdoor success rate on the trigger-stamped test split.
    pub attack_sr: f64,
}

impl ClientMetrics {
    /// The paper's Eq. 8 infection score.
    pub fn score(&self) -> f64 {
        self.benign_ac + self.attack_sr
    }
}

/// Population-level averages over a set of clients.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PopulationMetrics {
    /// Mean Benign AC.
    pub benign_ac: f64,
    /// Mean Attack SR.
    pub attack_sr: f64,
    /// Number of clients averaged.
    pub clients: usize,
}

/// Averages a set of client metrics.
pub fn population(metrics: &[ClientMetrics]) -> PopulationMetrics {
    if metrics.is_empty() {
        return PopulationMetrics::default();
    }
    let n = metrics.len() as f64;
    PopulationMetrics {
        benign_ac: metrics.iter().map(|m| m.benign_ac).sum::<f64>() / n,
        attack_sr: metrics.iter().map(|m| m.attack_sr).sum::<f64>() / n,
        clients: metrics.len(),
    }
}

/// Evaluates every benign client: Benign AC on its clean test split and
/// Attack SR on the backdoored eval set the [`BackdoorEval`] derives from it
/// (trigger-stamped copy for trigger attacks, the clean in-region samples
/// for semantic attacks), using the parameters produced by
/// `eval_params(client_id)` (the personalized model). Clients in
/// `excluded` (the compromised set) are skipped.
///
/// Convenience wrapper around [`evaluate_clients_pooled`] that builds a
/// machine-sized pool and throwaway scratch models per call; round loops
/// should use the pooled entry point with persistent arenas instead.
pub fn evaluate_clients<F>(
    fed: &FederatedDataset,
    model_spec: &ModelSpec,
    eval_params: F,
    backdoor: &dyn BackdoorEval,
    target_class: usize,
    excluded: &[usize],
) -> Vec<ClientMetrics>
where
    F: Fn(usize) -> Vec<f32> + Sync,
{
    let pool = WorkerPool::auto();
    let mut arenas = WorkerArenas::new();
    evaluate_clients_pooled(
        fed,
        model_spec,
        eval_params,
        backdoor,
        target_class,
        excluded,
        &pool,
        &mut arenas,
    )
}

/// [`evaluate_clients`] over a caller-owned [`WorkerPool`] with lane-pinned
/// scratch models that persist across calls (so a round loop's periodic
/// evaluation reuses the same buffers every pass instead of respawning
/// threads and rebuilding models). Results are in ascending client order at
/// any worker count — each client's metrics are a pure function of its id.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_clients_pooled<F>(
    fed: &FederatedDataset,
    model_spec: &ModelSpec,
    eval_params: F,
    backdoor: &dyn BackdoorEval,
    target_class: usize,
    excluded: &[usize],
    pool: &WorkerPool,
    arenas: &mut WorkerArenas<Sequential>,
) -> Vec<ClientMetrics>
where
    F: Fn(usize) -> Vec<f32> + Sync,
{
    let ids: Vec<usize> = (0..fed.num_clients())
        .filter(|id| !excluded.contains(id))
        .collect();
    pool.map_with_arena(
        arenas,
        ids,
        || {
            // Lane scratch model (seed irrelevant: params are always
            // overwritten before use).
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            model_spec.build(&mut rng)
        },
        |_, id, model| {
            let params = eval_params(id);
            model.set_params(&params);
            let test = &fed.client(id).test;
            let benign_ac = if test.is_empty() {
                0.0
            } else {
                let (x, y) = test.as_batch();
                model.evaluate(&x, &y)
            };
            // An empty eval set (no test data, or no test sample inside a
            // semantic region) reads as SR 0: nothing to attack.
            let backdoored = backdoor.eval_set(test);
            let attack_sr = if backdoored.is_empty() {
                0.0
            } else {
                let (x, _) = backdoored.as_batch();
                let preds = model.predict(&x);
                preds.iter().filter(|&&p| p == target_class).count() as f64 / preds.len() as f64
            };
            ClientMetrics {
                client_id: id,
                benign_ac,
                attack_sr,
            }
        },
    )
}

/// The top `k` percent of clients by Eq. 8 score, descending.
/// `k` in `(0, 100]`; at least one client is returned.
///
/// # Panics
///
/// Panics if `k` is outside `(0, 100]`.
pub fn top_k_percent(metrics: &[ClientMetrics], k: f64) -> Vec<ClientMetrics> {
    assert!(k > 0.0 && k <= 100.0, "k must be in (0, 100]");
    let mut sorted = metrics.to_vec();
    sorted.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
    let n = ((metrics.len() as f64) * k / 100.0).round().max(1.0) as usize;
    sorted.truncate(n.min(sorted.len()));
    sorted
}

/// One row of the paper's Fig. 12 cluster analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Cluster label ("1%", "25%", "50%", "bottom-50%").
    pub label: String,
    /// Clients in the cluster.
    pub clients: Vec<usize>,
    /// Mean Eq. 9 cumulative-label cosine to the auxiliary data.
    pub label_cosine: f64,
    /// Mean Attack SR of the cluster.
    pub attack_sr: f64,
    /// Mean Benign AC of the cluster.
    pub benign_ac: f64,
}

/// Splits clients into the paper's exclusive risk clusters (1 %, 25 %, 50 %,
/// bottom-50 % — each excludes all preceding clusters) and computes each
/// cluster's `CS_k` against the auxiliary dataset `aux` (Eq. 9). Clusters
/// with no members are omitted.
///
/// Each member's cumulative label distribution comes from
/// [`FederatedDataset::label_counts`], so a lazy cohort whose clients were
/// all evaluated renders no shard here.
pub fn cluster_analysis(
    fed: &FederatedDataset,
    metrics: &[ClientMetrics],
    aux: &Dataset,
) -> Vec<ClusterReport> {
    let mut sorted = metrics.to_vec();
    sorted.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
    let n = sorted.len();
    let cut = |p: f64| -> usize { (((n as f64) * p / 100.0).round().max(1.0) as usize).min(n) };
    let aux_cl = cumulative_label_distribution(aux);
    let bounds = [
        ("1%", 0, cut(1.0)),
        ("25%", cut(1.0), cut(25.0)),
        ("50%", cut(25.0), cut(50.0)),
        ("bottom-50%", cut(50.0), n),
    ];
    bounds
        .iter()
        .filter(|(_, lo, hi)| hi > lo)
        .map(|&(label, lo, hi)| {
            let members = &sorted[lo..hi];
            let clients: Vec<usize> = members.iter().map(|m| m.client_id).collect();
            let mut cos_sum = 0.0;
            for m in members {
                let local = cumulative_counts(&fed.label_counts(m.client_id));
                cos_sum += cosine_similarity_f64(&local, &aux_cl).unwrap_or(0.0);
            }
            let len = members.len() as f64;
            ClusterReport {
                label: label.to_string(),
                label_cosine: cos_sum / len,
                attack_sr: members.iter().map(|m| m.attack_sr).sum::<f64>() / len,
                benign_ac: members.iter().map(|m| m.benign_ac).sum::<f64>() / len,
                clients,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_data::labels::cumulative_label_cosine;
    use collapois_data::shard::{ShardSource, ShardSpec};
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fed() -> FederatedDataset {
        let cfg = SyntheticImageConfig {
            samples: 400,
            side: 8,
            classes: 4,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg).generate();
        let mut rng = StdRng::seed_from_u64(0);
        FederatedDataset::build(&mut rng, &ds, 8, 1.0)
    }

    fn fake_metrics() -> Vec<ClientMetrics> {
        (0..8)
            .map(|i| ClientMetrics {
                client_id: i,
                benign_ac: 0.5,
                attack_sr: i as f64 / 10.0,
            })
            .collect()
    }

    #[test]
    fn population_averages() {
        let p = population(&fake_metrics());
        assert_eq!(p.clients, 8);
        assert!((p.benign_ac - 0.5).abs() < 1e-12);
        assert!((p.attack_sr - 0.35).abs() < 1e-12);
        assert_eq!(population(&[]).clients, 0);
    }

    #[test]
    fn top_k_selects_highest_scores() {
        let top = top_k_percent(&fake_metrics(), 25.0);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].client_id, 7);
        assert_eq!(top[1].client_id, 6);
        // Always at least one client.
        let one = top_k_percent(&fake_metrics(), 1.0);
        assert_eq!(one.len(), 1);
    }

    #[test]
    fn clusters_are_exclusive_and_cover() {
        let f = fed();
        let aux = f.client(0).val.clone();
        // Every population size up to all 8 clients, including none (a run
        // whose clients are all compromised).
        for rows in 0..=8 {
            let reports = cluster_analysis(&f, &fake_metrics()[..rows], &aux);
            let mut covered: Vec<usize> = reports.iter().flat_map(|r| r.clients.clone()).collect();
            covered.sort_unstable();
            let expected: Vec<usize> = (0..rows).collect();
            assert_eq!(
                covered, expected,
                "{rows} rows: disjoint clusters covering all"
            );
            for r in &reports {
                assert!(!r.clients.is_empty(), "{rows} rows: empty {}", r.label);
                assert!(
                    (0.0..=1.0).contains(&r.label_cosine),
                    "{rows} rows, {}: {}",
                    r.label,
                    r.label_cosine
                );
                assert!(r.attack_sr.is_finite() && r.benign_ac.is_finite());
            }
        }
    }

    /// The per-member Eq. 9 cosine from the pooled splits of client `id`.
    fn pooled_cosine(fed: &FederatedDataset, id: usize, aux: &Dataset) -> f64 {
        let c = fed.client(id);
        let mut local = c.train.clone();
        local.extend_from(&c.test);
        local.extend_from(&c.val);
        cumulative_label_cosine(&local, aux)
    }

    #[test]
    fn eq9_from_label_counts_is_bit_identical_and_renders_nothing() {
        const N: usize = 40;
        for alpha in [0.1, 1.0] {
            let spec = ShardSpec::new(
                ShardSource::Image(SyntheticImage::new(SyntheticImageConfig {
                    samples: 1,
                    side: 8,
                    classes: 4,
                    ..Default::default()
                })),
                30,
                alpha,
                17,
            );
            let eager = FederatedDataset::eager_from_shards(&spec, N);
            let one_shard = eager.client(0).heap_bytes();
            let lazy = FederatedDataset::lazy(spec, N, 4 * one_shard);
            // Clients 0 and 1 play the compromised pair pooling D_a; every
            // other client is benign and gets a distinct score.
            let mut aux = Dataset::empty(eager.sample_shape(), eager.num_classes());
            for id in [0, 1] {
                let c = eager.client(id);
                for split in [&c.train, &c.test, &c.val] {
                    aux.extend_from(split);
                }
            }
            let metrics: Vec<ClientMetrics> = (2..N)
                .map(|id| ClientMetrics {
                    client_id: id,
                    benign_ac: 0.5,
                    attack_sr: ((id * 7) % 11) as f64 / 10.0,
                })
                .collect();
            // Touch every client, as the evaluation pass before Eq. 9 does.
            for id in 0..N {
                let _ = lazy.client(id);
            }
            let touched = lazy.shard_stats().expect("lazy");
            assert!(
                touched.evictions > 0,
                "alpha {alpha}: the budget must evict"
            );
            for id in 0..N {
                assert_eq!(lazy.label_counts(id), eager.label_counts(id), "client {id}");
            }
            for fed in [&eager, &lazy] {
                let reports = cluster_analysis(fed, &metrics, &aux);
                assert_eq!(reports.len(), 4);
                for r in &reports {
                    let reference = r
                        .clients
                        .iter()
                        .map(|&id| pooled_cosine(&eager, id, &aux))
                        .sum::<f64>()
                        / r.clients.len() as f64;
                    assert_eq!(
                        r.label_cosine.to_bits(),
                        reference.to_bits(),
                        "alpha {alpha}, cluster {}",
                        r.label
                    );
                }
            }
            assert_eq!(
                lazy.shard_stats().expect("lazy").misses,
                touched.misses,
                "alpha {alpha}: Eq. 9 rendered a shard"
            );
        }
    }

    #[test]
    fn pooled_evaluation_is_worker_count_invariant() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params().to_vec();
        let trigger = PatchTrigger::badnets(8);
        let serial = {
            let pool = WorkerPool::new(1);
            let mut arenas = WorkerArenas::new();
            evaluate_clients_pooled(
                &f,
                &spec,
                |_| params.clone(),
                &trigger,
                0,
                &[],
                &pool,
                &mut arenas,
            )
        };
        for workers in [2, 4, 8] {
            let pool = WorkerPool::new(workers);
            let mut arenas = WorkerArenas::new();
            // Two passes through the same arenas: results must not depend
            // on reuse.
            for pass in 0..2 {
                let pooled = evaluate_clients_pooled(
                    &f,
                    &spec,
                    |_| params.clone(),
                    &trigger,
                    0,
                    &[],
                    &pool,
                    &mut arenas,
                );
                assert_eq!(pooled, serial, "workers={workers} pass={pass}");
            }
        }
    }

    #[test]
    fn evaluate_clients_produces_sane_ranges() {
        let f = fed();
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut rng = StdRng::seed_from_u64(1);
        let params = spec.build(&mut rng).params().to_vec();
        let trigger = PatchTrigger::badnets(8);
        let ms = evaluate_clients(&f, &spec, |_| params.clone(), &trigger, 0, &[0]);
        assert_eq!(ms.len(), 7); // client 0 excluded
        assert!(ms.iter().all(|m| m.client_id != 0));
        for m in &ms {
            assert!((0.0..=1.0).contains(&m.benign_ac));
            assert!((0.0..=1.0).contains(&m.attack_sr));
        }
    }
}
