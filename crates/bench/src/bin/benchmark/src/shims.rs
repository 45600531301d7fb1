//! Timing shims for the traced pass. Each wraps one of the server's
//! pluggable pieces, delegates every trait method (default ones included,
//! so behaviour is unchanged bit for bit) and counts calls and busy time.

use collapois_data::sample::Dataset;
use collapois_fl::aggregate::Aggregator;
use collapois_fl::config::FlConfig;
use collapois_fl::personalize::{LocalOutcome, Personalization, StateCommit};
use collapois_fl::scratch::ClientScratch;
use collapois_fl::server::Adversary;
use collapois_fl::update::ClientUpdate;
use collapois_runtime::pool::WorkerPool;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Calls and busy nanoseconds of one layer, safe to bump from pool lanes.
/// `Relaxed` suffices: the counters publish no other data and are read
/// after the server has joined its lanes.
#[derive(Debug, Default)]
pub struct Counter {
    calls: AtomicU64,
    ns: AtomicU64,
    /// Per-call nanoseconds, kept when the layer's median is reported.
    samples: Option<Mutex<Vec<u64>>>,
}

impl Counter {
    /// A counter that also keeps every call's duration.
    pub fn with_samples() -> Self {
        Self {
            samples: Some(Mutex::new(Vec::new())),
            ..Self::default()
        }
    }

    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        if let Some(samples) = &self.samples {
            samples
                .lock()
                .expect("no lane panics while holding the sample lock")
                .push(ns);
        }
        out
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time so far, in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-6
    }

    /// Per-call durations in nanoseconds (empty without samples).
    pub fn take_samples(&self) -> Vec<u64> {
        self.samples.as_ref().map_or_else(Vec::new, |s| {
            std::mem::take(&mut *s.lock().expect("sample lock not poisoned"))
        })
    }
}

/// Times `local_train`, which runs on every pool lane.
#[derive(Debug)]
pub struct TimedPersonalization {
    inner: Box<dyn Personalization>,
    train: Arc<Counter>,
}

impl TimedPersonalization {
    /// Wraps `inner`, counting into `train`.
    pub fn new(inner: Box<dyn Personalization>, train: Arc<Counter>) -> Self {
        Self { inner, train }
    }
}

impl Personalization for TimedPersonalization {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn init(&mut self, num_clients: usize, dim: usize) {
        self.inner.init(num_clients, dim);
    }

    fn begin_round(&mut self, global: &[f32], rng: &mut StdRng) {
        self.inner.begin_round(global, rng);
    }

    fn local_train(
        &self,
        client_id: usize,
        global: &[f32],
        data: &Dataset,
        cfg: &FlConfig,
        scratch: &mut ClientScratch,
        rng: &mut StdRng,
    ) -> LocalOutcome {
        self.train.time(|| {
            self.inner
                .local_train(client_id, global, data, cfg, scratch, rng)
        })
    }

    fn commit(&mut self, client_id: usize, commit: StateCommit) {
        self.inner.commit(client_id, commit);
    }

    fn eval_params(&self, client_id: usize, global: &[f32]) -> Vec<f32> {
        self.inner.eval_params(client_id, global)
    }

    fn export_state(&self) -> Vec<Option<Vec<f32>>> {
        self.inner.export_state()
    }

    fn import_state(&mut self, state: Vec<Option<Vec<f32>>>) {
        self.inner.import_state(state);
    }
}

/// Times the aggregation rule, whichever entry point the server uses.
#[derive(Debug)]
pub struct TimedAggregator {
    inner: Box<dyn Aggregator>,
    agg: Arc<Counter>,
}

impl TimedAggregator {
    /// Wraps `inner`, counting into `agg`.
    pub fn new(inner: Box<dyn Aggregator>, agg: Arc<Counter>) -> Self {
        Self { inner, agg }
    }
}

impl Aggregator for TimedAggregator {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn aggregate(&mut self, updates: &[ClientUpdate], dim: usize, rng: &mut StdRng) -> Vec<f32> {
        let inner = &mut self.inner;
        self.agg.time(|| inner.aggregate(updates, dim, rng))
    }

    fn aggregate_into(&mut self, updates: &[ClientUpdate], out: &mut [f32], rng: &mut StdRng) {
        let inner = &mut self.inner;
        self.agg.time(|| inner.aggregate_into(updates, out, rng));
    }

    fn aggregate_pooled(
        &mut self,
        updates: &[ClientUpdate],
        out: &mut [f32],
        rng: &mut StdRng,
        pool: &WorkerPool,
    ) {
        let inner = &mut self.inner;
        self.agg
            .time(|| inner.aggregate_pooled(updates, out, rng, pool));
    }

    fn post_process(&mut self, global: &mut [f32], rng: &mut StdRng) {
        self.inner.post_process(global, rng);
    }
}

/// Times the adversary's malicious updates.
#[derive(Debug)]
pub struct TimedAdversary {
    inner: Box<dyn Adversary>,
    craft: Arc<Counter>,
}

impl TimedAdversary {
    /// Wraps `inner`, counting into `craft`.
    pub fn new(inner: Box<dyn Adversary>, craft: Arc<Counter>) -> Self {
        Self { inner, craft }
    }
}

impl Adversary for TimedAdversary {
    fn compromised(&self) -> &[usize] {
        self.inner.compromised()
    }

    fn craft_update(
        &mut self,
        client_id: usize,
        global: &[f32],
        round: usize,
        rng: &mut StdRng,
    ) -> Vec<f32> {
        let inner = &mut self.inner;
        self.craft
            .time(|| inner.craft_update(client_id, global, round, rng))
    }

    fn observe_global(&mut self, global: &[f32], round: usize) {
        self.inner.observe_global(global, round);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
