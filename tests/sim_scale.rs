//! Scale smoke for the discrete-event simulator (the CI `sim-smoke` job).
//!
//! Two runs of the dataset-free [`SyntheticSim`] executor:
//!
//! * **10,000 virtual clients, 50 virtual rounds (flushes)** — the CI
//!   smoke: completes well under a minute even unoptimized, and its event
//!   sequence hashes to a committed fixture
//!   (`tests/fixtures/golden_sim_scale_events.hash`), so the virtual
//!   schedule at population scale cannot drift silently. The trace runs in
//!   hashing mode: every event is made canonical and folded, none
//!   retained.
//! * **100,000 virtual clients** — the acceptance-scale run: completes
//!   with memory bounded by the concurrency cap (live model snapshots
//!   `<=` `max_concurrency`, never `O(population)`), since a virtual
//!   client is an event in a priority queue, not a thread or a resident
//!   dataset.
//!
//! Fixture format: `<fnv1a-hash-hex>:<event-count>`. Regenerate by running
//! this test and copying the `actual` value from the failure message.

use collapois::fl::sim::SyntheticSim;
use collapois::runtime::fault::FaultPlan;
use collapois::runtime::sim::{ArrivalProcess, ChurnPlan, SimDriver, SimPlan};
use collapois::runtime::trace::TraceLog;

const SEED: u64 = 990;

fn scale_plan(num_clients: usize, buffer_k: usize, max_concurrency: usize) -> SimPlan {
    SimPlan {
        num_clients,
        arrival: ArrivalProcess::Poisson { mean_ms: 100.0 },
        train_mean_ms: 30.0,
        buffer_k,
        churn: Some(ChurnPlan {
            mean_up_ms: 500.0,
            mean_down_ms: 150.0,
        }),
        max_concurrency,
        ..SimPlan::default()
    }
}

#[test]
fn ten_thousand_client_smoke_matches_committed_event_hash() {
    let fixture_path = format!(
        "{}/tests/fixtures/golden_sim_scale_events.hash",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();

    let plan = scale_plan(10_000, 32, 128);
    let cap = plan.max_concurrency;
    let mut handler = SyntheticSim::new(64, SEED, 1, 0.5);
    let mut trace = TraceLog::hashing();
    let mut driver = SimDriver::new(plan, SEED, FaultPlan::none()).expect("valid plan");
    let summary = driver.run(&mut handler, &mut trace, 50);

    assert!(
        summary.reached_target,
        "10k-client plan must reach 50 flushes"
    );
    assert_eq!(summary.flushes, 50);
    assert!(handler.versions().peak_live() <= cap);
    assert!(handler.params().iter().all(|v| v.is_finite()));

    let (hash, count) = trace.event_hash().expect("hashing mode");
    let actual = format!("{hash:016x}:{count}");
    assert_eq!(
        actual, expected,
        "10k-client event sequence diverged from the golden fixture \
         (actual {actual}, expected {expected}); see the module docs for \
         when/how to regenerate"
    );
}

#[test]
fn hundred_thousand_clients_complete_with_bounded_memory() {
    let plan = scale_plan(100_000, 64, 256);
    let cap = plan.max_concurrency;
    let mut handler = SyntheticSim::new(64, SEED, 1, 0.5);
    let mut trace = TraceLog::hashing();
    let mut driver = SimDriver::new(plan, SEED, FaultPlan::none()).expect("valid plan");
    let summary = driver.run(&mut handler, &mut trace, 50);

    assert!(
        summary.reached_target,
        "100k-client plan must reach 50 flushes"
    );
    assert!(
        summary.arrivals > 100_000,
        "the whole population cycles through the event queue"
    );
    assert!(
        handler.versions().peak_live() <= cap,
        "live snapshots ({}) exceeded the concurrency cap ({cap})",
        handler.versions().peak_live()
    );
    assert!(handler.params().iter().all(|v| v.is_finite()));
}
