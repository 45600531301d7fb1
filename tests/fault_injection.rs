//! Fault-injection and graceful-degradation integration tests.
//!
//! The fault plan (`collapois::runtime::fault::FaultPlan`) injects client
//! dropout, deadline-shed stragglers, in-flight update corruption, and
//! checkpoint-write failures from RNG streams derived per `(round, unit)`.
//! These tests pin the end-to-end contracts:
//!
//! * a faulted run completes every round without panicking, and the JSONL
//!   trace records **exactly** the fault schedule the plan derives — the
//!   schedule is recomputed here from the plan and compared event for
//!   event;
//! * a torn (killed-mid-write) newest checkpoint is skipped on resume, and
//!   the resumed run is bitwise identical to an uninterrupted one;
//! * the fault schedule and the faulted result are invariant to the worker
//!   count;
//! * a 20%-dropout golden scenario matches a committed fixture hash at
//!   workers 1/2/4/8 (`tests/fixtures/golden_final_params_faulted.hash`);
//!   the companion invariant — a faulted round is bitwise equal to a
//!   fault-free round over the surviving cohort — is pinned at unit level
//!   by `collapois-fl`'s `faulted_run_matches_fault_free_run_over_survivors`.
//!
//! To regenerate the fixture after an intentional numerics change, run the
//! fixture test and copy the `actual` hash from the failure message.

use collapois::core::scenario::{AttackKind, DefenseKind, RunOptions, Scenario, ScenarioConfig};
use collapois::runtime::checkpoint;
use collapois::runtime::checkpoint::{fnv1a_extend, FNV_OFFSET};
use collapois::runtime::fault::{ClientFault, FaultPlan};
use collapois::runtime::trace::{read_trace, TraceEvent};
use std::path::PathBuf;

/// FNV-1a over the little-endian `f32` bit patterns.
fn fnv1a_params(params: &[f32]) -> u64 {
    params.iter().fold(FNV_OFFSET, |h, v| {
        fnv1a_extend(h, &v.to_bits().to_le_bytes())
    })
}

/// A small, fast scenario; `attack` toggles the CollaPois adversary so the
/// cheap tests can skip Trojan training.
fn fault_cfg(attack: AttackKind, rounds: usize) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 10;
    cfg.samples_per_client = 20;
    cfg.rounds = rounds;
    cfg.eval_every = rounds;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 8;
    cfg.attack = attack;
    cfg.defense = DefenseKind::None;
    cfg
}

fn tmp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("collapois-fault-{tag}-{}", std::process::id()))
}

/// A fault event flattened to a comparable tuple.
type FaultEvent = (String, usize, usize, String, f64);

/// Fault events of a trace, flattened to comparable tuples.
fn fault_events(events: &[TraceEvent]) -> Vec<FaultEvent> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ClientDropped {
                round,
                client,
                cause,
                delay_ms,
            } => Some(("dropped".into(), *round, *client, cause.clone(), *delay_ms)),
            TraceEvent::UpdateRejected {
                round,
                client,
                reason,
            } => Some(("rejected".into(), *round, *client, reason.clone(), 0.0)),
            _ => None,
        })
        .collect()
}

#[test]
fn faulted_run_completes_and_trace_matches_derived_schedule() {
    let cfg = fault_cfg(AttackKind::None, 6);
    let plan = FaultPlan {
        dropout: 0.25,
        straggler: 0.2,
        straggler_mean_ms: 8.0,
        deadline_ms: 10.0,
        corrupt: 0.3,
        checkpoint_fail: 0.5,
    };
    let trace_path = tmp_path("schedule.jsonl");
    let ckpt_dir = tmp_path("schedule-ckpt");
    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
        trace_path: Some(trace_path.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_every: 2,
        fault: plan,
        ..RunOptions::default()
    });
    assert_eq!(report.final_round().round, cfg.rounds, "all rounds ran");
    assert!(report.profile.has_faults(), "the plan must actually fire");

    let events = read_trace(&trace_path).expect("trace readable");
    assert!(matches!(
        events.iter().last(),
        Some(TraceEvent::RunCompleted { rounds_executed, .. }) if *rounds_executed == cfg.rounds
    ));

    // Recompute the client-fault schedule from the plan and demand the
    // trace recorded exactly it.
    let mut predicted_drops: Vec<(usize, usize, &'static str)> = Vec::new();
    let mut predicted_corrupt: Vec<(usize, usize)> = Vec::new();
    for e in &events {
        if let TraceEvent::RoundStarted { round, sampled, .. } = e {
            for &cid in sampled {
                match plan.client_fault(cfg.seed, *round as u64, cid) {
                    ClientFault::None => {}
                    ClientFault::Dropout => predicted_drops.push((*round, cid, "dropout")),
                    ClientFault::Straggler { shed, .. } => {
                        if shed {
                            predicted_drops.push((*round, cid, "straggler"));
                        }
                    }
                    ClientFault::Corrupt => predicted_corrupt.push((*round, cid)),
                }
            }
        }
    }
    let traced_drops: Vec<(usize, usize, String)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::ClientDropped {
                round,
                client,
                cause,
                ..
            } => Some((*round, *client, cause.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(
        traced_drops,
        predicted_drops
            .iter()
            .map(|&(r, c, cause)| (r, c, cause.to_string()))
            .collect::<Vec<_>>(),
        "every dropout/shed verdict the plan derives must be traced, in order"
    );
    assert!(!predicted_drops.is_empty(), "schedule should drop someone");

    // Corrupt clients that transmitted anything must be rejected with the
    // injected-corruption reason (clients with no training data transmit
    // nothing, so the traced set is a subset of the prediction).
    let traced_rejected: Vec<(usize, usize, String)> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::UpdateRejected {
                round,
                client,
                reason,
            } => Some((*round, *client, reason.clone())),
            _ => None,
        })
        .collect();
    assert!(
        !traced_rejected.is_empty(),
        "corrupt=0.3 should reject someone"
    );
    for (round, client, reason) in &traced_rejected {
        assert_eq!(reason, "injected_corruption");
        assert!(
            predicted_corrupt.contains(&(*round, *client)),
            "rejection at round {round} client {client} not in the derived schedule"
        );
    }

    // Checkpoint writes: replay the per-attempt injection stream and demand
    // the trace shows the same attempt-by-attempt outcomes.
    const ATTEMPTS: usize = 3;
    for ckpt_round in [2usize, 4, 6] {
        let mut expected: Vec<(usize, bool)> = Vec::new(); // (attempt, gave_up)
        let mut expect_saved = false;
        for attempt in 1..=ATTEMPTS {
            if plan.checkpoint_attempt_fails(cfg.seed, ckpt_round as u64, attempt) {
                expected.push((attempt, attempt == ATTEMPTS));
            } else {
                expect_saved = true;
                break;
            }
        }
        let failures: Vec<(usize, bool)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CheckpointWriteFailed {
                    round,
                    attempt,
                    gave_up,
                    ..
                } if *round == ckpt_round => Some((*attempt, *gave_up)),
                _ => None,
            })
            .collect();
        assert_eq!(failures, expected, "round {ckpt_round} failure sequence");
        let saved = events.iter().any(
            |e| matches!(e, TraceEvent::CheckpointSaved { round, .. } if *round == ckpt_round),
        );
        assert_eq!(saved, expect_saved, "round {ckpt_round} save outcome");
        let on_disk = checkpoint::checkpoint_path(&ckpt_dir, ckpt_round as u32).exists();
        assert_eq!(on_disk, expect_saved, "round {ckpt_round} file presence");
    }

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn resume_after_torn_checkpoint_write_is_bit_identical() {
    let cfg = fault_cfg(AttackKind::None, 8);
    let plan = FaultPlan {
        dropout: 0.2,
        ..FaultPlan::none()
    };

    // Reference: the same faulted run, uninterrupted and checkpoint-free.
    let reference = Scenario::new(cfg.clone()).run_with(&RunOptions {
        fault: plan,
        ..RunOptions::default()
    });

    // Checkpointed run (snapshots after rounds 2, 4, 6, 8)...
    let ckpt_dir = tmp_path("torn-ckpt");
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Scenario::new(cfg.clone()).run_with(&RunOptions {
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_every: 2,
        fault: plan,
        ..RunOptions::default()
    });

    // ...then simulate a kill during the newest write: the round-8 file is
    // torn mid-stream and a stray temp file from an unfinished rename is
    // left behind. Resume must see neither.
    let newest = checkpoint::checkpoint_path(&ckpt_dir, 8);
    let bytes = std::fs::read(&newest).expect("round-8 checkpoint exists");
    std::fs::write(&newest, &bytes[..bytes.len() / 3]).expect("tear newest");
    std::fs::write(ckpt_dir.join("round-000010.ckpt.tmp"), b"partial garbage").expect("stray tmp");

    let trace_path = tmp_path("torn-resume.jsonl");
    let _ = std::fs::remove_file(&trace_path);
    let resumed = Scenario::new(cfg).run_with(&RunOptions {
        trace_path: Some(trace_path.clone()),
        checkpoint_dir: Some(ckpt_dir.clone()),
        checkpoint_every: 2,
        resume: true,
        fault: plan,
        ..RunOptions::default()
    });

    // Resumed from round 6 (the newest intact snapshot), not the torn 8.
    let events = read_trace(&trace_path).expect("trace readable");
    assert!(matches!(
        events.first(),
        Some(TraceEvent::RunStarted {
            resumed_from: Some(6),
            ..
        })
    ));
    assert_eq!(
        reference.final_global, resumed.final_global,
        "resume from the last intact checkpoint must be bit-identical"
    );

    let _ = std::fs::remove_file(&trace_path);
    let _ = std::fs::remove_dir_all(&ckpt_dir);
}

#[test]
fn fault_schedule_and_result_are_worker_count_invariant() {
    let cfg = fault_cfg(AttackKind::CollaPois, 5);
    let plan = FaultPlan {
        dropout: 0.2,
        straggler: 0.2,
        straggler_mean_ms: 6.0,
        deadline_ms: 9.0,
        corrupt: 0.2,
        ..FaultPlan::none()
    };
    let mut baseline: Option<(Vec<FaultEvent>, u64)> = None;
    for workers in [1usize, 4] {
        let trace_path = tmp_path(&format!("invariance-w{workers}.jsonl"));
        let _ = std::fs::remove_file(&trace_path);
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            trace_path: Some(trace_path.clone()),
            fault: plan,
            ..RunOptions::default()
        });
        let events = read_trace(&trace_path).expect("trace readable");
        let _ = std::fs::remove_file(&trace_path);
        let faults = fault_events(&events);
        assert!(!faults.is_empty(), "plan must fire at workers={workers}");
        let hash = fnv1a_params(&report.final_global);
        match &baseline {
            None => baseline = Some((faults, hash)),
            Some((f1, h1)) => {
                assert_eq!(&faults, f1, "fault schedule differs at workers={workers}");
                assert_eq!(hash, *h1, "final params differ at workers={workers}");
            }
        }
    }
}

#[test]
fn faulted_golden_scenario_matches_committed_fixture_at_every_worker_count() {
    let fixture_path = format!(
        "{}/tests/fixtures/golden_final_params_faulted.hash",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();

    let cfg = fault_cfg(AttackKind::CollaPois, 5);
    let plan = FaultPlan {
        dropout: 0.2,
        ..FaultPlan::none()
    };
    for workers in [1usize, 2, 4, 8] {
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            fault: plan,
            ..RunOptions::default()
        });
        let actual = format!("{:016x}", fnv1a_params(&report.final_global));
        assert_eq!(
            actual, expected,
            "faulted final params diverged from the golden fixture at \
             workers={workers} (actual {actual}, expected {expected}); see \
             the module docs for when/how to regenerate"
        );
    }
}
