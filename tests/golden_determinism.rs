//! Golden end-to-end determinism test.
//!
//! Runs a small fixed CollaPois scenario for 5 rounds and hashes the final
//! global parameter vector's exact `f32` bit patterns, comparing against a
//! committed fixture (`tests/fixtures/golden_final_params.hash`). The same
//! hash must come out at every worker count — the runtime engine's
//! determinism guarantee — and must not drift across refactors of the
//! kernel layer, the aggregation rules, or the training loop.
//!
//! Since the round engine trains through persistent per-worker arenas
//! (`WorkerArenas<ClientScratch>`) by default, the worker sweep below is
//! also the pooled-vs-clone equivalence proof: the fixture hash was
//! produced by the historical allocate-per-client path, so matching it at
//! workers = 1, 2 and 4 shows the arena-reusing loop performs bitwise the
//! same floating-point work regardless of how clients are distributed over
//! lanes or which warm buffers they inherit.
//!
//! If a change *intentionally* alters the numerics (e.g. a new reduction
//! order), regenerate the fixture by running this test and copying the
//! `actual` hash from the failure message into the fixture file, and call
//! the change out in the PR description.

use collapois::core::scenario::{
    AttackKind, DefenseKind, FlAlgo, RunOptions, Scenario, ScenarioConfig,
};

/// FNV-1a over the little-endian `f32` bit patterns.
fn fnv1a_params(params: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in params {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn golden_cfg(defense: DefenseKind) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 10;
    cfg.samples_per_client = 20;
    cfg.rounds = 5;
    cfg.eval_every = 5;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 8;
    cfg.attack = AttackKind::CollaPois;
    cfg.defense = defense;
    cfg
}

/// Runs the golden scenario under `defense` at workers 1, 2, 4 and 8 and
/// asserts every run hashes to the committed fixture. The worker sweep
/// crosses every parallel path: the training fan-out, the sharded defense
/// kernels, the tree-reduced average and the pooled evaluation.
fn assert_matches_fixture(defense: DefenseKind, fixture: &str) {
    assert_cfg_matches_fixture(golden_cfg(defense), fixture);
}

fn assert_cfg_matches_fixture(cfg: ScenarioConfig, fixture: &str) {
    let fixture_path = format!("{}/tests/fixtures/{fixture}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();

    for workers in [1usize, 2, 4, 8] {
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            ..RunOptions::default()
        });
        let actual = format!("{:016x}", fnv1a_params(&report.final_global));
        assert_eq!(
            actual, expected,
            "final global params diverged from the golden fixture at \
             workers={workers} defense={:?} (actual {actual}, \
             expected {expected}); see the module docs for when/how to \
             regenerate",
            cfg.defense
        );
    }
}

#[test]
fn five_round_krum_scenario_matches_committed_fixture_at_every_worker_count() {
    // Krum routes the round through the (triangle-sharded) pairwise-distance
    // kernels on top of the dense/loss kernels every client step already
    // exercises.
    assert_matches_fixture(DefenseKind::Krum, "golden_final_params.hash");
}

#[test]
fn five_round_scaffold_semantic_fine_prune_scenario_matches_committed_fixture() {
    // The three arms landed together, pinned together: the semantic
    // backdoor's relabelled shards, SCAFFOLD's sequentially-committed
    // control variates, and the in-training fine-pruning hook all sit on
    // the same compute/commit split — one fixture proves the whole stack
    // is worker-count-invariant.
    let mut cfg = golden_cfg(DefenseKind::FinePrune);
    cfg.attack = AttackKind::Semantic;
    cfg.algo = FlAlgo::Scaffold;
    assert_cfg_matches_fixture(cfg, "golden_final_params_scaffold_semantic.hash");
}

#[test]
fn five_round_trimmed_mean_scenario_matches_committed_fixture_at_every_worker_count() {
    // Trimmed mean routes aggregation through the column-sharded
    // per-coordinate kernels — the other sharding axis.
    assert_matches_fixture(
        DefenseKind::TrimmedMean,
        "golden_final_params_trimmed_mean.hash",
    );
}
