//! Buffered-async (FedBuff) execution support for the discrete-event
//! simulator.
//!
//! Two pieces live here:
//!
//! * [`VersionStore`] — a refcounted store of global-model snapshots keyed
//!   by version. An arriving client fetches the *current* version; by the
//!   time its update lands, later flushes may have advanced the model, so
//!   training must run against the exact parameters the client saw.
//!   Snapshots are shared across all clients that fetched the same version
//!   and recycled as soon as the last reference drops, so resident memory
//!   is `O(live versions × dim)` — bounded by the sim's concurrency cap,
//!   never by the client population.
//! * [`SyntheticSim`] — a dataset-free [`SimHandler`] for scale tests and
//!   benches: each completion contributes a pseudo-update drawn from its
//!   own `Domain::ClientTrain` stream (keyed by arrival index, exactly
//!   like real sim training), merged through the FedBuff staleness-
//!   weighted reduction tree. It exercises every determinism-relevant
//!   moving part — event schedule, version store, weighted merge, worker
//!   fan-out — at 100k+ virtual clients without a resident per-client
//!   dataset.
//!
//! The full-fidelity path (real local training, personalization,
//! adversaries) is [`crate::server::FlServer::run_sim`], which builds on
//! the same two pieces.

use crate::aggregate::FedBuff;
use crate::update::ClientUpdate;
use collapois_runtime::pool::WorkerPool;
use collapois_runtime::seed;
use collapois_runtime::sim::{Completion, SimHandler, Ticks};
use collapois_runtime::trace::{TraceEvent, TraceLog};
use rand::Rng;

/// One retained snapshot.
#[derive(Debug)]
struct Slot {
    version: u64,
    refs: usize,
    params: Vec<f32>,
}

/// Refcounted global-model snapshots keyed by version, with buffer
/// recycling. Lookup is a linear scan: the number of live versions is
/// bounded by the flush cadence of in-flight training (a handful), not by
/// the client count.
#[derive(Debug, Default)]
pub struct VersionStore {
    slots: Vec<Slot>,
    pool: Vec<Vec<f32>>,
    peak_live: usize,
}

impl VersionStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a reference to `version`, snapshotting `current` on first
    /// retain. `current` must be the global parameters *at* `version` —
    /// i.e. call this at fetch time, before any further flush.
    pub fn retain(&mut self, version: u64, current: &[f32]) {
        if let Some(slot) = self.slots.iter_mut().find(|s| s.version == version) {
            slot.refs += 1;
            return;
        }
        let mut params = self.pool.pop().unwrap_or_default();
        params.clear();
        params.extend_from_slice(current);
        self.slots.push(Slot {
            version,
            refs: 1,
            params,
        });
        self.peak_live = self.peak_live.max(self.slots.len());
    }

    /// The snapshot for `version`.
    ///
    /// # Panics
    ///
    /// Panics if `version` was never retained (or already fully released).
    pub fn get(&self, version: u64) -> &[f32] {
        &self
            .slots
            .iter()
            .find(|s| s.version == version)
            .unwrap_or_else(|| panic!("version {version} not retained"))
            .params
    }

    /// Drops one reference to `version`, recycling the snapshot buffer
    /// when the last reference goes.
    ///
    /// # Panics
    ///
    /// Panics if `version` has no live references.
    pub fn release(&mut self, version: u64) {
        let i = self
            .slots
            .iter()
            .position(|s| s.version == version)
            .unwrap_or_else(|| panic!("release of unretained version {version}"));
        self.slots[i].refs -= 1;
        if self.slots[i].refs == 0 {
            let slot = self.slots.swap_remove(i);
            self.pool.push(slot.params);
        }
    }

    /// Currently retained version count.
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// High-water mark of simultaneously retained versions (the memory
    /// bound a scale run asserts against).
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }
}

/// Dataset-free buffered-async executor for scale runs (see module docs).
#[derive(Debug)]
pub struct SyntheticSim {
    run_seed: u64,
    params: Vec<f32>,
    versions: VersionStore,
    fedbuff: FedBuff,
    pool: WorkerPool,
    server_lr: f32,
    /// Scale of the random component of each pseudo-update.
    noise_scale: f32,
    /// Pull-toward-origin coefficient keeping params bounded over long runs.
    contraction: f32,
    agg: Vec<f32>,
    updates: Vec<ClientUpdate>,
    staleness: Vec<u64>,
    update_pool: Vec<Vec<f32>>,
    rejected: u64,
}

impl SyntheticSim {
    /// A synthetic executor over a `dim`-parameter model, starting from
    /// zero parameters, merging with staleness exponent `decay` on
    /// `workers` pool lanes.
    pub fn new(dim: usize, run_seed: u64, workers: usize, decay: f64) -> Self {
        Self {
            run_seed,
            params: vec![0.0; dim],
            versions: VersionStore::new(),
            fedbuff: FedBuff::new(decay),
            pool: WorkerPool::new(workers),
            server_lr: 1.0,
            noise_scale: 0.05,
            contraction: 0.01,
            agg: vec![0.0; dim],
            updates: Vec::new(),
            staleness: Vec::new(),
            update_pool: Vec::new(),
            rejected: 0,
        }
    }

    /// Current global parameters.
    pub fn params(&self) -> &[f32] {
        &self.params
    }

    /// The snapshot store (for memory-bound assertions).
    pub fn versions(&self) -> &VersionStore {
        &self.versions
    }

    /// Updates rejected for non-finite values (injected corruption).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

impl SimHandler for SyntheticSim {
    fn on_fetch(&mut self, _client: usize, version: u64) {
        self.versions.retain(version, &self.params);
    }

    fn flush(
        &mut self,
        flush_index: u64,
        _now: Ticks,
        buffer: &[Completion],
        trace: &mut TraceLog,
    ) {
        self.updates.clear();
        self.staleness.clear();
        for c in buffer {
            let mut delta = self.update_pool.pop().unwrap_or_default();
            {
                // The pseudo-update: noise from the client's own
                // `(run, arrival, client)` training stream plus a
                // contraction toward the origin, computed against the
                // *fetched* snapshot — pure in its arguments, so
                // event-loop order and worker count cannot touch it.
                let snapshot = self.versions.get(c.fetched_version);
                let mut rng = seed::client_rng(self.run_seed, c.arrival_index, c.client);
                delta.clear();
                for &p in snapshot {
                    let u: f32 = rng.gen_range(-1.0..1.0);
                    delta.push(self.noise_scale * u - self.contraction * p);
                }
            }
            if c.corrupt {
                if let Some(v) = delta.first_mut() {
                    *v = f32::NAN;
                }
            }
            if delta.iter().all(|v| v.is_finite()) {
                self.updates.push(ClientUpdate::new(c.client, delta, 1));
                self.staleness.push(c.staleness);
            } else {
                self.rejected += 1;
                trace.push(TraceEvent::UpdateRejected {
                    round: flush_index as usize,
                    client: c.client,
                    reason: "injected_corruption".to_string(),
                });
                self.update_pool.push(delta);
            }
        }
        self.fedbuff
            .merge_pooled(&self.updates, &self.staleness, &mut self.agg, &self.pool);
        let lr = self.server_lr;
        for (p, &d) in self.params.iter_mut().zip(&self.agg) {
            *p += lr * d;
        }
        for u in self.updates.drain(..) {
            self.update_pool.push(u.delta);
        }
        // Every buffered completion holds exactly one snapshot reference.
        for c in buffer {
            self.versions.release(c.fetched_version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_runtime::fault::FaultPlan;
    use collapois_runtime::sim::{SimDriver, SimPlan};

    #[test]
    fn version_store_refcounts_and_recycles() {
        let mut store = VersionStore::new();
        store.retain(0, &[1.0, 2.0]);
        store.retain(0, &[9.0, 9.0]); // second retain must NOT re-snapshot
        store.retain(1, &[3.0, 4.0]);
        assert_eq!(store.get(0), &[1.0, 2.0]);
        assert_eq!(store.get(1), &[3.0, 4.0]);
        assert_eq!(store.live(), 2);
        store.release(0);
        assert_eq!(store.live(), 2, "one reference to v0 remains");
        store.release(0);
        assert_eq!(store.live(), 1);
        store.release(1);
        assert_eq!(store.live(), 0);
        assert_eq!(store.peak_live(), 2);
        // Recycled buffer serves the next snapshot without re-allocating.
        store.retain(7, &[5.0]);
        assert_eq!(store.get(7), &[5.0]);
    }

    #[test]
    #[should_panic(expected = "not retained")]
    fn version_store_rejects_unknown_version() {
        let store = VersionStore::new();
        let _ = store.get(3);
    }

    fn scale_plan(num_clients: usize) -> SimPlan {
        SimPlan {
            num_clients,
            arrival_mean_ms: 80.0,
            train_mean_ms: 30.0,
            buffer_k: 16,
            max_concurrency: 64,
            ..SimPlan::default()
        }
    }

    #[test]
    fn synthetic_run_is_worker_count_invariant() {
        let mut reference: Option<(Vec<u32>, (u64, u64))> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut handler = SyntheticSim::new(128, 42, workers, 0.5);
            let mut trace = TraceLog::hashing();
            let mut driver = SimDriver::new(scale_plan(500), 42, FaultPlan::none()).unwrap();
            let summary = driver.run(&mut handler, &mut trace, 25);
            assert!(summary.reached_target);
            let bits: Vec<u32> = handler.params().iter().map(|v| v.to_bits()).collect();
            let hash = trace.event_hash().unwrap();
            match &reference {
                None => reference = Some((bits, hash)),
                Some((rb, rh)) => {
                    assert_eq!(rb, &bits, "params diverged at workers={workers}");
                    assert_eq!(rh, &hash, "trace diverged at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn snapshot_memory_is_bounded_by_concurrency_not_population() {
        let mut handler = SyntheticSim::new(64, 7, 1, 0.5);
        let mut trace = TraceLog::hashing();
        let plan = scale_plan(5_000);
        let cap = plan.max_concurrency;
        let mut driver = SimDriver::new(plan, 7, FaultPlan::none()).unwrap();
        let summary = driver.run(&mut handler, &mut trace, 40);
        assert!(summary.reached_target);
        assert!(
            handler.versions().peak_live() <= cap,
            "live snapshots ({}) must stay within the concurrency cap ({cap})",
            handler.versions().peak_live()
        );
        // Clients still in flight when the target flush stops the run
        // legitimately hold references, but never more than the cap.
        assert!(handler.versions().live() <= cap, "in-flight refs bounded");
    }

    #[test]
    fn corrupt_completions_are_rejected_and_counted() {
        let fault = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::default()
        };
        let mut handler = SyntheticSim::new(32, 3, 1, 0.5);
        let mut trace = TraceLog::in_memory();
        let mut driver = SimDriver::new(scale_plan(200), 3, fault).unwrap();
        let summary = driver.run(&mut handler, &mut trace, 5);
        assert!(summary.reached_target);
        assert_eq!(handler.rejected(), summary.completions);
        assert!(
            handler.params().iter().all(|&p| p == 0.0),
            "every update rejected: the model must not move"
        );
        assert!(trace.events().iter().any(|e| e.kind() == "update_rejected"));
    }
}
