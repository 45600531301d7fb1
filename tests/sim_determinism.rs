//! Determinism properties of the discrete-event simulation core.
//!
//! Three layers of guarantee, bottom to top:
//!
//! 1. **Event queue total order** (proptest): any multiset of timestamped
//!    events pops in non-decreasing `(time, seq)` order, with the push
//!    sequence number breaking ties — so replaying the same pushes always
//!    yields the same pops, regardless of heap internals.
//! 2. **Schedule invariance**: one seeded buffered-async run produces the
//!    identical event sequence (hash) and bitwise-identical final
//!    parameters at workers 1, 2, 4 and 8, with availability churn and a
//!    fault plan active; virtual time is monotone across the run's trace.
//! 3. **Golden replay**: the final parameters of a fixed seeded run match
//!    a committed fixture (`tests/fixtures/golden_sim_fedbuff.hash`), so
//!    the sim's numerics cannot drift silently across refactors.
//!
//! If a change *intentionally* alters the sim numerics (new weighting,
//! different draw order), regenerate the fixture by running this test and
//! copying the `actual` hash from the failure message into the fixture
//! file, and call the change out in the PR description.

use collapois::fl::sim::SyntheticSim;
use collapois::runtime::checkpoint::{fnv1a_extend, FNV_OFFSET};
use collapois::runtime::fault::FaultPlan;
use collapois::runtime::sim::{ArrivalProcess, ChurnPlan, EventQueue, SimDriver, SimPlan};
use collapois::runtime::trace::{TraceEvent, TraceLog};
use proptest::prelude::*;

/// FNV-1a over the little-endian `f32` bit patterns (the fixture idiom).
fn fnv1a_params(params: &[f32]) -> u64 {
    params.iter().fold(FNV_OFFSET, |h, v| {
        fnv1a_extend(h, &v.to_bits().to_le_bytes())
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pops come out sorted by time; among equal times, push order wins.
    #[test]
    fn event_queue_pops_in_total_time_seq_order(times in prop::collection::vec(0u64..50, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut popped = Vec::with_capacity(times.len());
        while let Some(entry) = q.pop() {
            popped.push(entry);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            let ((t0, s0, _), (t1, s1, _)) = (w[0], w[1]);
            prop_assert!(t0 < t1 || (t0 == t1 && s0 < s1),
                "order violated: ({t0},{s0}) before ({t1},{s1})");
        }
        // Ties resolve to push order: the payload is the push index.
        for w in popped.windows(2) {
            let ((t0, _, i0), (t1, _, i1)) = (w[0], w[1]);
            if t0 == t1 {
                prop_assert!(i0 < i1, "tie broken against push order");
            }
        }
    }

    /// The queue is replay-stable: the same pushes produce the same pops.
    #[test]
    fn event_queue_replays_identically(times in prop::collection::vec(0u64..1000, 1..100)) {
        let run = || {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            let mut out = Vec::new();
            while let Some(e) = q.pop() {
                out.push(e);
            }
            out
        };
        prop_assert_eq!(run(), run());
    }
}

/// A churny, faulty buffered-async plan: every composition-relevant path
/// (turn-aways, dropout, corruption, staleness) is on the tested schedule.
fn churny_plan() -> SimPlan {
    SimPlan {
        num_clients: 400,
        arrival: ArrivalProcess::Poisson { mean_ms: 60.0 },
        train_mean_ms: 35.0,
        buffer_k: 16,
        churn: Some(ChurnPlan {
            mean_up_ms: 300.0,
            mean_down_ms: 120.0,
        }),
        max_concurrency: 48,
        ..SimPlan::default()
    }
}

fn churny_fault() -> FaultPlan {
    FaultPlan {
        dropout: 0.05,
        straggler: 0.1,
        straggler_mean_ms: 20.0,
        corrupt: 0.02,
        ..FaultPlan::none()
    }
}

const SIM_SEED: u64 = 77;

/// One full run at `workers`; returns (param hash, event hash).
fn run_once(workers: usize) -> (u64, (u64, u64)) {
    let mut handler = SyntheticSim::new(96, SIM_SEED, workers, 0.5);
    let mut trace = TraceLog::hashing();
    let mut driver = SimDriver::new(churny_plan(), SIM_SEED, churny_fault()).expect("valid plan");
    let summary = driver.run(&mut handler, &mut trace, 20);
    assert!(summary.reached_target, "plan must sustain 20 flushes");
    (
        fnv1a_params(handler.params()),
        trace.event_hash().expect("hashing mode"),
    )
}

#[test]
fn same_seed_same_schedule_at_every_worker_count() {
    let reference = run_once(1);
    for workers in [2usize, 4, 8] {
        assert_eq!(
            run_once(workers),
            reference,
            "sim run diverged at workers={workers}"
        );
    }
}

#[test]
fn virtual_time_is_monotone_across_the_trace() {
    let mut handler = SyntheticSim::new(96, SIM_SEED, 1, 0.5);
    let mut trace = TraceLog::in_memory();
    let mut driver = SimDriver::new(churny_plan(), SIM_SEED, churny_fault()).expect("valid plan");
    driver.run(&mut handler, &mut trace, 20);
    let mut last = 0u64;
    let mut stamped = 0usize;
    for e in trace.events() {
        let vtime = match e {
            TraceEvent::ClientArrived { vtime_us, .. }
            | TraceEvent::ClientUnavailable { vtime_us, .. }
            | TraceEvent::BufferFlushed { vtime_us, .. } => *vtime_us,
            _ => continue,
        };
        assert!(
            vtime >= last,
            "virtual time went backwards: {vtime} after {last}"
        );
        last = vtime;
        stamped += 1;
    }
    assert!(stamped > 100, "expected a substantial stamped event stream");
}

#[test]
fn seeded_sim_replay_matches_committed_fixture() {
    let fixture_path = format!(
        "{}/tests/fixtures/golden_sim_fedbuff.hash",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();
    let (params, _) = run_once(1);
    let actual = format!("{params:016x}");
    assert_eq!(
        actual, expected,
        "sim final params diverged from the golden fixture (actual {actual}, \
         expected {expected}); see the module docs for when/how to regenerate"
    );
}
