//! Paper-scale cohort engine acceptance tests.
//!
//! Three guarantees back the lazy resident-shard cohort and the
//! work-stealing dispatcher:
//!
//! 1. **Laziness is bitwise-invisible at the data layer.** A client shard
//!    is a pure function of `(seed, client_id)`, so the lazy LRU backing
//!    must hand out bit-identical splits to an eager materialization of
//!    the same `ShardSpec` — including *re-renders* after eviction.
//! 2. **The lazy scenario family is pinned and worker-invariant.** A
//!    lazily-backed run is a distinct scenario family from the legacy
//!    eager Dirichlet partition (it consumes no partition RNG draws), so
//!    its canonical event hash gets its own golden fixture
//!    (`tests/fixtures/golden_lazy_cohort.hash`), asserted at workers
//!    1/2/4/8 — the stealing dispatcher may move work between lanes but
//!    never the result. Regenerate like the other golden fixtures: run,
//!    copy the `actual` hash from the failure message, call it out in the
//!    PR description.
//! 3. **A 4096-client run is memory-bounded.** With a 64 MB shard budget
//!    the resident set must stay under budget for the whole run while the
//!    cohort (17,592 B per 30-sample shard, ~69 MiB eager) does not fit —
//!    the bytes-per-client envelope that makes paper-scale populations
//!    tractable. Release-only: the debug round loop is an order of
//!    magnitude slower and CI runs this under the `cohort-scale` job.

use collapois::core::scenario::{
    AttackKind, CohortMode, DefenseKind, RunOptions, Scenario, ScenarioConfig,
};
use collapois::data::{Dataset, FederatedDataset};

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

fn assert_datasets_bitwise_eq(a: &Dataset, b: &Dataset, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    assert_eq!(a.labels(), b.labels(), "{what}: labels");
    for i in 0..a.len() {
        let (fa, fb) = (a.features_of(i), b.features_of(i));
        assert_eq!(fa.len(), fb.len(), "{what}: sample {i} width");
        for (x, y) in fa.iter().zip(fb) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: sample {i} bits");
        }
    }
}

#[test]
fn lazy_shards_match_eager_materialization_bitwise_even_after_eviction() {
    let mut cfg = ScenarioConfig::quick_image(0.5, 0.1);
    cfg.num_clients = 32;
    cfg.samples_per_client = 12;
    let spec = cfg.shard_spec();
    let eager = FederatedDataset::eager_from_shards(&spec, cfg.num_clients);

    // Budget of ~4 shards: walking all 32 clients forces evictions, and
    // the second pass below re-renders everything from the RNG stream.
    let one_shard = eager.client(0).heap_bytes();
    let lazy = FederatedDataset::lazy(spec, cfg.num_clients, 4 * one_shard);

    for pass in 0..2 {
        for id in 0..cfg.num_clients {
            let (l, e) = (lazy.client(id), eager.client(id));
            let what = format!("pass {pass} client {id}");
            assert_datasets_bitwise_eq(&l.train, &e.train, &format!("{what} train"));
            assert_datasets_bitwise_eq(&l.test, &e.test, &format!("{what} test"));
            assert_datasets_bitwise_eq(&l.val, &e.val, &format!("{what} val"));
        }
    }
    let stats = lazy.shard_stats().expect("lazy backing reports stats");
    assert!(
        stats.evictions > 0,
        "a 4-shard budget over 32 clients must evict (stats: {stats:?})"
    );
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "resident {} exceeds budget {}",
        stats.resident_bytes,
        stats.budget_bytes
    );
}

fn lazy_cfg() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.1);
    cfg.num_clients = 48;
    cfg.samples_per_client = 16;
    cfg.rounds = 3;
    cfg.eval_every = 3;
    cfg.sample_rate = 0.5;
    cfg.trojan.epochs = 4;
    cfg.attack = AttackKind::CollaPois;
    cfg.defense = DefenseKind::NormBound;
    cfg.cohort = CohortMode::Lazy; // explicit: 48 is below the auto threshold
    cfg
}

#[test]
fn lazy_cohort_event_hash_matches_fixture_at_every_worker_count() {
    let fixture_path = format!(
        "{}/tests/fixtures/golden_lazy_cohort.hash",
        env!("CARGO_MANIFEST_DIR")
    );
    let expected = std::fs::read_to_string(&fixture_path)
        .unwrap_or_else(|_| panic!("fixture missing: {fixture_path}"))
        .trim()
        .to_string();

    let cfg = lazy_cfg();
    let mut param_hash = None;
    for workers in [1usize, 2, 4, 8] {
        let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
            workers,
            ..RunOptions::default()
        });
        let actual = format!("{:016x}", report.event_hash);
        assert_eq!(
            actual, expected,
            "lazy-cohort event hash diverged from the golden fixture at \
             workers={workers} (actual {actual}, expected {expected}); see \
             the module docs for when/how to regenerate"
        );
        // The stealing dispatcher must also leave the trained model
        // bitwise identical, not just the trace.
        let params = fnv1a_params(&report.final_global);
        match param_hash {
            None => param_hash = Some(params),
            Some(h) => assert_eq!(
                h, params,
                "final params diverged between worker counts at workers={workers}"
            ),
        }
        assert!(
            report.shard_stats.is_some(),
            "an explicitly lazy run must report shard stats"
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only: run via the cohort-scale CI job (cargo test --release)"
)]
fn four_thousand_client_run_stays_within_the_shard_budget() {
    const BUDGET_MB: usize = 64;
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = 4096;
    cfg.samples_per_client = 30;
    cfg.rounds = 2;
    cfg.eval_every = 2;
    cfg.sample_rate = 64.0 / 4096.0;
    cfg.trojan.epochs = 2;
    cfg.attack = AttackKind::CollaPois;
    cfg.shard_budget_mb = BUDGET_MB; // cohort stays Auto: 4096 >= threshold

    let report = Scenario::new(cfg.clone()).run_with(&RunOptions {
        workers: 2,
        ..RunOptions::default()
    });
    let stats = report.shard_stats.expect("4096 clients must run lazily");
    assert_eq!(stats.budget_bytes, BUDGET_MB << 20);
    assert!(
        stats.resident_bytes <= stats.budget_bytes,
        "resident {} bytes exceeds the declared {} byte budget",
        stats.resident_bytes,
        stats.budget_bytes
    );
    // The budget must be doing real work: the full cohort does not fit,
    // so first-touch renders beyond the envelope are paid with evictions.
    assert!(
        stats.misses >= cfg.num_clients as u64,
        "every client is touched at least once (misses: {})",
        stats.misses
    );
    assert!(
        stats.evictions > 0,
        "a 64 MB budget cannot hold 4096 shards without evicting (stats: {stats:?})"
    );
}
