//! Final-parameter fixtures for the arms the other golden hashes do not
//! reach: the CNN model, the text dataset, and the FedDC, Ditto, MetaFed
//! and clustered algorithms.
//!
//! The model and dataset arms run the small CollaPois scenario of
//! `tests/golden_determinism.rs` (Trojan training included) and hash the
//! final global parameters. The algorithm arms drive an [`FlServer`]
//! directly, so the hash also covers what a scenario report cannot show:
//! after five rounds it folds in the global model and then every client's
//! evaluation parameters — the personal models of FedDC, Ditto and MetaFed
//! and the cluster models of the clustered strategy. Every arm runs at
//! workers 1 and 2 and must hash to its committed fixture at both.
//!
//! If a change *intentionally* alters the numerics, regenerate a fixture
//! by running this test and copying the `actual` hash from the failure
//! message into the fixture file, and call the change out in the PR
//! description.

use collapois::core::scenario::{AttackKind, RunOptions, Scenario, ScenarioConfig, ScenarioModel};
use collapois::data::federated::FederatedDataset;
use collapois::data::synthetic::{SyntheticImage, SyntheticImageConfig};
use collapois::fl::aggregate::FedAvg;
use collapois::fl::config::FlConfig;
use collapois::fl::personalize::{Clustered, Ditto, FedDc, MetaFed, Personalization};
use collapois::fl::server::FlServer;
use collapois::nn::zoo::ModelSpec;
use collapois::runtime::checkpoint::{fnv1a_extend, FNV_OFFSET};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian `f32` bit patterns, continuing from `h`.
fn hash_params(h: u64, params: &[f32]) -> u64 {
    params
        .iter()
        .fold(h, |h, v| fnv1a_extend(h, &v.to_bits().to_le_bytes()))
}

fn expected(fixture: &str) -> String {
    let path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("fixture missing: {path}"))
        .trim()
        .to_string()
}

fn assert_hash(actual: u64, fixture: &str, workers: usize) {
    let actual = format!("{actual:016x}");
    let expected = expected(fixture);
    assert_eq!(
        actual, expected,
        "{fixture} diverged at workers={workers} (actual {actual}, expected \
         {expected}); see the module docs for when/how to regenerate"
    );
}

/// The golden scenario of `tests/golden_determinism.rs`.
fn scenario_cfg(mut cfg: ScenarioConfig) -> ScenarioConfig {
    cfg.num_clients = 10;
    cfg.samples_per_client = 20;
    cfg.rounds = 5;
    cfg.eval_every = 5;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 8;
    cfg.attack = AttackKind::CollaPois;
    cfg
}

fn assert_scenario_matches(cfg: ScenarioConfig, fixture: &str) {
    for workers in [1usize, 2] {
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            ..RunOptions::default()
        });
        assert_hash(
            hash_params(FNV_OFFSET, &report.final_global),
            fixture,
            workers,
        );
    }
}

/// Five FedAvg rounds of `algo` over ten image clients; hashes the global
/// model and then every client's evaluation parameters.
fn assert_algo_matches(algo: fn() -> Box<dyn Personalization>, fixture: &str) {
    let dataset = SyntheticImage::new(SyntheticImageConfig {
        side: 8,
        classes: 4,
        samples: 240,
        ..Default::default()
    })
    .generate();
    let spec = ModelSpec::mlp(64, &[16], 4);
    let mut cfg = FlConfig::quick(spec);
    cfg.rounds = 5;
    cfg.sample_rate = 0.5;
    cfg.local_steps = 3;
    cfg.batch_size = 8;
    cfg.client_lr = 0.1;
    for workers in [1usize, 2] {
        let fed = FederatedDataset::build(&mut StdRng::seed_from_u64(3), &dataset, 10, 1.0);
        let mut server = FlServer::new(cfg.clone(), fed, Box::new(FedAvg::new()), algo());
        server.set_workers(workers);
        server.run_rounds(cfg.rounds, None);
        let global = server.global().to_vec();
        let mut h = hash_params(FNV_OFFSET, &global);
        for id in 0..10 {
            h = hash_params(h, &server.personalization().eval_params(id, &global));
        }
        assert_hash(h, fixture, workers);
    }
}

#[test]
fn cnn_scenario_matches_committed_fixture() {
    let mut cfg = scenario_cfg(ScenarioConfig::quick_image(1.0, 0.05));
    cfg.model_kind = ScenarioModel::Cnn;
    assert_scenario_matches(cfg, "golden_final_params_cnn.hash");
}

#[test]
fn text_scenario_matches_committed_fixture() {
    let cfg = scenario_cfg(ScenarioConfig::quick_text(1.0, 0.05));
    assert_scenario_matches(cfg, "golden_final_params_text.hash");
}

#[test]
fn feddc_personal_models_match_committed_fixture() {
    assert_algo_matches(
        || Box::new(FedDc::new(1.0)),
        "golden_final_params_feddc.hash",
    );
}

#[test]
fn ditto_personal_models_match_committed_fixture() {
    assert_algo_matches(
        || Box::new(Ditto::new(0.5)),
        "golden_final_params_ditto.hash",
    );
}

#[test]
fn metafed_personal_models_match_committed_fixture() {
    assert_algo_matches(
        || Box::new(MetaFed::new(2.0, 2)),
        "golden_final_params_metafed.hash",
    );
}

#[test]
fn clustered_cluster_models_match_committed_fixture() {
    assert_algo_matches(
        || Box::new(Clustered::new(3)),
        "golden_final_params_clustered.hash",
    );
}
