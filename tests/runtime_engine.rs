//! Integration and property tests for the `collapois-runtime` execution
//! engine: deterministic parallelism, checkpoint codec robustness, and
//! kill/resume equivalence at scenario level.

use collapois::core::scenario::{
    AttackKind, DefenseKind, FlAlgo, RunOptions, Scenario, ScenarioConfig,
};
use collapois::runtime::checkpoint::Snapshot;
use collapois::runtime::trace::{read_trace, TraceEvent};
use proptest::prelude::*;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("collapois-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn tiny_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 10;
    cfg.samples_per_client = 20;
    cfg.rounds = 5;
    cfg.eval_every = 5;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 8;
    cfg
}

/// Normalized trace with scheduling-dependent fields removed: wall-clock
/// times are zeroed and the `RunStarted` event is dropped (its `workers`
/// field legitimately differs between runs being compared).
fn comparable_trace(path: &std::path::Path) -> Vec<TraceEvent> {
    read_trace(path)
        .expect("trace readable")
        .iter()
        .filter(|e| !matches!(e, TraceEvent::RunStarted { .. }))
        .map(TraceEvent::normalized)
        .collect()
}

#[test]
fn worker_count_does_not_change_results() {
    let dir = temp_dir("workers");
    let mut cfg = tiny_cfg();
    cfg.attack = AttackKind::CollaPois;
    cfg.algo = FlAlgo::Ditto; // stateful personalization exercises commits

    let seq_trace = dir.join("seq.jsonl");
    let par_trace = dir.join("par.jsonl");
    let seq = Scenario::new(cfg.clone()).run_with(&RunOptions {
        workers: 1,
        trace_path: Some(seq_trace.clone()),
        ..RunOptions::default()
    });
    let par = Scenario::new(cfg).run_with(&RunOptions {
        workers: 4,
        trace_path: Some(par_trace.clone()),
        ..RunOptions::default()
    });

    assert_eq!(
        seq.final_global, par.final_global,
        "global params must be bit-identical"
    );
    assert_eq!(comparable_trace(&seq_trace), comparable_trace(&par_trace));
    // Per-client metrics derive from personalization state — also identical.
    for (a, b) in seq.clients.iter().zip(&par.clients) {
        assert_eq!(a.benign_ac, b.benign_ac);
        assert_eq!(a.attack_sr, b.attack_sr);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_killed_midway_resumes_to_identical_final_params() {
    // The acceptance scenario: a 20-round run killed at round 10 must
    // resume from its checkpoint and land on the same final parameters as
    // an uninterrupted run.
    let dir = temp_dir("resume");
    let mut cfg = tiny_cfg();
    cfg.rounds = 20;
    cfg.eval_every = 10;
    cfg.attack = AttackKind::None;
    cfg.defense = DefenseKind::None;
    cfg.algo = FlAlgo::Ditto;

    let uninterrupted = Scenario::new(cfg.clone()).run();

    // First life: checkpoints every 5 rounds. Simulate a kill at round 10
    // by discarding everything the process produced after that point.
    Scenario::new(cfg.clone()).run_with(&RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 5,
        ..RunOptions::default()
    });
    for stale in ["round-000015.ckpt", "round-000020.ckpt"] {
        std::fs::remove_file(dir.join(stale)).expect("checkpoint existed");
    }

    // Second life: resume from the newest surviving checkpoint (round 10).
    let resumed = Scenario::new(cfg).run_with(&RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 5,
        resume: true,
        ..RunOptions::default()
    });

    assert_eq!(uninterrupted.final_global, resumed.final_global);
    for (a, b) in uninterrupted.clients.iter().zip(&resumed.clients) {
        assert_eq!(a.benign_ac, b.benign_ac);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resuming_a_completed_run_reports_its_final_evaluation() {
    // The newest checkpoint is at `cfg.rounds`, so the resume runs no
    // rounds; it still reports one evaluation point at the final state,
    // with the client-level results of the run that wrote the checkpoint.
    let dir = temp_dir("resume-complete");
    let mut cfg = tiny_cfg();
    cfg.attack = AttackKind::CollaPois;
    let opts = RunOptions {
        checkpoint_dir: Some(dir.clone()),
        checkpoint_every: 5,
        ..RunOptions::default()
    };
    let first = Scenario::new(cfg.clone()).run_with(&opts);
    let resumed = Scenario::new(cfg.clone()).run_with(&RunOptions {
        resume: true,
        ..opts
    });

    assert!(resumed.records.is_empty(), "no round ran");
    assert_eq!(resumed.rounds.len(), 1);
    assert_eq!(resumed.final_round().round, cfg.rounds);
    assert!(!first.clusters.is_empty());
    assert_eq!(resumed.clients, first.clients);
    assert_eq!(resumed.clusters, first.clusters);
    assert_eq!(resumed.final_global, first.final_global);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Builds a snapshot from flat random material.
fn snapshot_from(
    run_seed: u64,
    config_hash: u64,
    round: u32,
    global: Vec<f32>,
    state_payload: Vec<f32>,
    mask: u64,
) -> Snapshot {
    let client_states = (0..8)
        .map(|i| {
            if mask & (1 << i) != 0 {
                Some(state_payload.clone())
            } else {
                None
            }
        })
        .collect();
    Snapshot {
        run_seed,
        config_hash,
        round,
        global,
        client_states,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn checkpoint_codec_roundtrips(
        run_seed in 0u64..u64::MAX,
        config_hash in 0u64..u64::MAX,
        round in 0u32..100_000,
        global in prop::collection::vec(-1.0e6f32..1.0e6, 0..48),
        state_payload in prop::collection::vec(-10.0f32..10.0, 0..8),
        mask in 0u64..256,
    ) {
        let snap = snapshot_from(run_seed, config_hash, round, global, state_payload, mask);
        let decoded = Snapshot::decode(&snap.encode());
        prop_assert!(decoded.is_ok());
        prop_assert_eq!(decoded.unwrap(), snap);
    }

    #[test]
    fn truncated_checkpoints_error_instead_of_panicking(
        seed in 0u64..u64::MAX,
        global in prop::collection::vec(-10.0f32..10.0, 1..32),
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = snapshot_from(seed, seed ^ 0xA5A5, 7, global, vec![1.0], 3);
        let bytes = snap.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(Snapshot::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn corrupted_checkpoints_error_instead_of_panicking(
        seed in 0u64..u64::MAX,
        global in prop::collection::vec(-10.0f32..10.0, 1..32),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let snap = snapshot_from(seed, seed ^ 0x5A5A, 11, global, vec![2.0], 5);
        let mut bytes = snap.encode();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= flip;
        prop_assert!(Snapshot::decode(&bytes).is_err());
    }
}
