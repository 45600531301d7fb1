//! The federated round loop with the adversary hook.
//!
//! Each round (Algorithm 1 lines 4–14): sample clients with probability `q`,
//! let benign clients compute local updates via the configured
//! [`Personalization`] strategy, let the [`Adversary`] craft malicious
//! updates for sampled compromised clients, aggregate with the configured
//! [`Aggregator`], and apply `θ ← θ + λ·Δ`.
//!
//! Execution is delegated to the `collapois-runtime` engine:
//!
//! * every RNG draw comes from a stream derived as
//!   `mix(run_seed, domain, round, client)` ([`collapois_runtime::seed`]),
//!   so results are independent of execution order;
//! * benign local training fans out over a [`WorkerPool`] — `workers = N`
//!   is bit-identical to `workers = 1` because strategies follow the
//!   compute/commit contract of [`Personalization`];
//! * a synchronous round and a buffered-async flush ([`FlServer::run_sim`])
//!   run the same cohort step, so every defense hook sees both modes;
//! * every round emits structured [`TraceEvent`]s into a [`TraceLog`], and
//!   the [`RoundRecord`] handed to callers is rebuilt from those events so
//!   live runs and `--trace` files expose the same data;
//! * [`FlServer::snapshot`]/[`FlServer::restore`] round-trip the mutable
//!   run state through the versioned checkpoint codec for kill/resume.

use crate::aggregate::{Aggregator, FedBuff};
use crate::config::FlConfig;
use crate::metrics::{self, ClientMetrics};
use crate::monitor::ShiftDetector;
use crate::personalize::{LocalOutcome, Personalization};
use crate::profile::PhaseProfile;
use crate::scratch::ClientScratch;
use crate::sim::VersionStore;
use crate::update::ClientUpdate;
use collapois_data::federated::FederatedDataset;
use collapois_data::poison::BackdoorEval;
use collapois_data::sample::Dataset;
use collapois_defense::fine_pruning::fine_prune;
use collapois_nn::model::Sequential;
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::checkpoint::{self, CheckpointError, Snapshot};
use collapois_runtime::fault::{ClientFault, FaultPlan};
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use collapois_runtime::seed;
use collapois_runtime::sim::{Completion, SimDriver, SimHandler, SimPlan, SimSummary, Ticks};
use collapois_runtime::trace::{TraceEvent, TraceLog};
use collapois_stats::Binomial;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Bounded attempts for one checkpoint write before giving up on the
/// snapshot (a skipped snapshot only widens the resume gap — it must not
/// kill the run).
const CHECKPOINT_WRITE_ATTEMPTS: usize = 3;
/// Base backoff between checkpoint-write attempts, doubled per retry.
const CHECKPOINT_RETRY_BACKOFF_MS: u64 = 2;
/// Client-count threshold at which round sampling switches from the
/// per-client Bernoulli sweep to the binomial-count fast path. Everything
/// below keeps the original draw sequence (quick-scale event hashes are
/// pinned to it); at and above, cohorts are new scenario families.
const BINOMIAL_SAMPLING_MIN: usize = 1024;

/// An attacker controlling a fixed set of compromised clients.
///
/// The server calls [`Adversary::craft_update`] instead of benign local
/// training whenever a compromised client is sampled, and
/// [`Adversary::observe_global`] after every aggregation (black-box threat
/// model: the attacker sees exactly what its compromised clients see).
pub trait Adversary: std::fmt::Debug {
    /// Ids of the compromised clients.
    fn compromised(&self) -> &[usize];

    /// Malicious delta for compromised client `client_id` at `round`, given
    /// the current global parameters (what the client just received). The
    /// `rng` is the client's derived `Domain::Adversary` stream.
    fn craft_update(
        &mut self,
        client_id: usize,
        global: &[f32],
        round: usize,
        rng: &mut StdRng,
    ) -> Vec<f32>;

    /// Called after each aggregation with the new global parameters.
    fn observe_global(&mut self, _global: &[f32], _round: usize) {}

    /// Short name for report tables.
    fn name(&self) -> &'static str;
}

/// Per-round record for analysis and plotting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundRecord {
    /// Round index (0-based).
    pub round: usize,
    /// Sampled client ids (benign and compromised).
    pub sampled: Vec<usize>,
    /// How many of the sampled clients were compromised.
    pub num_malicious: usize,
    /// l2 norms of benign updates this round.
    pub benign_norms: Vec<f64>,
    /// l2 norms of malicious updates this round.
    pub malicious_norms: Vec<f64>,
    /// The raw updates (kept only when update collection is enabled).
    pub updates: Option<Vec<ClientUpdate>>,
    /// The global parameters the round started from (kept only when update
    /// collection is enabled).
    pub global_before: Option<Vec<f32>>,
    /// Sampled clients the fault plan removed before training (dropouts and
    /// deadline-shed stragglers), in sampled order.
    pub dropped: Vec<usize>,
}

impl RoundRecord {
    /// Rebuilds a record from a round's `RoundStarted`/`RoundCompleted`
    /// trace-event pair. Returns `None` unless the events are that pair
    /// and agree on the round index.
    fn from_trace(started: &TraceEvent, completed: &TraceEvent) -> Option<Self> {
        match (started, completed) {
            (
                TraceEvent::RoundStarted { round, sampled, .. },
                TraceEvent::RoundCompleted {
                    round: completed_round,
                    num_malicious,
                    benign_norms,
                    malicious_norms,
                    ..
                },
            ) if round == completed_round => Some(Self {
                round: *round,
                sampled: sampled.clone(),
                num_malicious: *num_malicious,
                benign_norms: benign_norms.clone(),
                malicious_norms: malicious_norms.clone(),
                updates: None,
                global_before: None,
                dropped: Vec::new(),
            }),
            _ => None,
        }
    }
}

/// Rebuilds every round's [`RoundRecord`] from a trace-event sequence (as
/// produced live by [`FlServer::trace_events`] or read back from a trace
/// file). Unpaired or interleaved round events are skipped.
pub fn round_records_from_events(events: &[TraceEvent]) -> Vec<RoundRecord> {
    let mut records = Vec::new();
    let mut pending: Option<&TraceEvent> = None;
    let mut dropped: Vec<usize> = Vec::new();
    for event in events {
        match event {
            TraceEvent::RoundStarted { .. } => {
                pending = Some(event);
                dropped.clear();
            }
            TraceEvent::ClientDropped { client, .. } => dropped.push(*client),
            TraceEvent::RoundCompleted { .. } => {
                if let Some(started) = pending.take() {
                    if let Some(mut record) = RoundRecord::from_trace(started, event) {
                        record.dropped = std::mem::take(&mut dropped);
                        records.push(record);
                    }
                }
            }
            _ => {}
        }
    }
    records
}

/// Simulates in-flight corruption of a transmitted update. Touching only
/// the first element keeps the injection O(1); the server-side finite
/// check scans the whole norm regardless of where the damage lands.
fn poison_delta(delta: &mut [f32]) {
    if let Some(v) = delta.first_mut() {
        *v = f32::NAN;
    }
}

/// In-training Fine-Pruning [Liu et al., RAID 2018] schedule: every
/// `every` completed rounds the server ranks the global model's hidden
/// units by mean activation on its held-out clean split and zeroes the
/// least-activated `fraction`. Deterministic and worker-count-invariant:
/// the clean split is a fixed pool of client test splits in id order, and
/// the pruning pass itself is sequential.
#[derive(Debug, Clone)]
struct FinePruneSchedule {
    fraction: f64,
    every: usize,
    clean: Dataset,
}

/// What a benign training job hands back to the commit phase.
#[derive(Debug)]
enum LaneOutcome {
    /// The trained outcome and the client's training-sample count.
    Trained(LocalOutcome, usize),
    /// The client has no training data: its unused recycled delta buffer,
    /// returned so the update pool does not grow.
    Empty(Vec<f32>),
}

/// The federated server simulation.
#[derive(Debug)]
pub struct FlServer {
    cfg: FlConfig,
    fed: FederatedDataset,
    aggregator: Box<dyn Aggregator>,
    personalization: Box<dyn Personalization>,
    global: Vec<f32>,
    scratch: Sequential,
    round: usize,
    collect_updates: bool,
    workers: WorkerPool,
    /// Per-worker arenas for training and client evaluation, alive across
    /// rounds (and checkpoints — they are pure scratch and never
    /// serialized).
    arenas: WorkerArenas<ClientScratch>,
    /// Recycled delta buffers handed to benign training jobs and reclaimed
    /// after aggregation (unless update collection keeps them); never more
    /// than the largest benign cohort.
    update_pool: Vec<Vec<f32>>,
    /// Reusable aggregation output buffer.
    agg_buf: Vec<f32>,
    /// Reusable benign-job input buffer for the training fan-out.
    job_buf: Vec<(usize, Vec<f32>)>,
    /// Reusable fan-out output buffer (one outcome per benign job).
    outcome_buf: Vec<(usize, LaneOutcome)>,
    /// Reusable round-update assembly buffer (recycled unless update
    /// collection keeps the round's updates).
    updates_buf: Vec<ClientUpdate>,
    /// Reusable synchronous-round participant list for the cohort step.
    participant_buf: Vec<Completion>,
    /// Cumulative per-phase wall-clock, drained by
    /// [`FlServer::take_profile`].
    profile: PhaseProfile,
    trace: TraceLog,
    monitor: Option<ShiftDetector>,
    /// Deterministic fault-injection plan applied to every round (the
    /// default [`FaultPlan::none`] plan leaves the round loop untouched).
    fault_plan: FaultPlan,
    /// In-training Fine-Pruning schedule (None = defense off).
    fine_prune: Option<FinePruneSchedule>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    run_started: bool,
    run_start: Option<Instant>,
    rounds_executed: usize,
    resumed_from: Option<u32>,
}

impl FlServer {
    /// Builds a server over the federated dataset.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`FlConfig::validate`]).
    pub fn new(
        cfg: FlConfig,
        fed: FederatedDataset,
        aggregator: Box<dyn Aggregator>,
        mut personalization: Box<dyn Personalization>,
    ) -> Self {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid FlConfig: {e}"));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let scratch = cfg.model.build(&mut rng);
        let global = scratch.params().to_vec();
        personalization.init(fed.num_clients(), global.len());
        Self {
            cfg,
            fed,
            aggregator,
            personalization,
            global,
            scratch,
            round: 0,
            collect_updates: false,
            workers: WorkerPool::new(1),
            arenas: WorkerArenas::new(),
            update_pool: Vec::new(),
            agg_buf: Vec::new(),
            job_buf: Vec::new(),
            outcome_buf: Vec::new(),
            updates_buf: Vec::new(),
            participant_buf: Vec::new(),
            profile: PhaseProfile::default(),
            trace: TraceLog::in_memory(),
            monitor: None,
            fault_plan: FaultPlan::none(),
            fine_prune: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            run_started: false,
            run_start: None,
            rounds_executed: 0,
            resumed_from: None,
        }
    }

    /// Enables keeping the raw updates in each [`RoundRecord`] (used by the
    /// gradient-angle analyses of Figs. 3 and 6).
    pub fn collect_updates(&mut self, enable: bool) {
        self.collect_updates = enable;
    }

    /// Enables in-training Fine-Pruning: every `every` completed rounds,
    /// prune the `fraction` least-activated hidden units of the global model
    /// against the server's held-out clean split (the pooled test splits of
    /// the first clients, which poisoning never touches — adversaries
    /// poison their local *training* copies). Runs after the merge of every
    /// cohort step, so it applies to synchronous rounds and buffered-async
    /// flushes alike.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1)`, `every` is 0, the model is
    /// not a single-hidden-layer MLP, or no client has test data.
    pub fn enable_fine_pruning(&mut self, fraction: f64, every: usize) {
        assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
        assert!(every > 0, "pruning cadence must be positive");
        assert!(
            matches!(&self.cfg.model, ModelSpec::Mlp { hidden, .. } if hidden.len() == 1),
            "fine-pruning supports single-hidden-layer MLPs"
        );
        // Fixed clean pool: test splits of the first clients in id order,
        // capped so paper-scale cohorts do not materialize every shard.
        let mut clean = Dataset::empty(self.fed.sample_shape(), self.fed.num_classes());
        for id in 0..self.fed.num_clients().min(64) {
            clean.extend_from(&self.fed.client(id).test);
        }
        assert!(!clean.is_empty(), "no held-out clean data to prune against");
        self.fine_prune = Some(FinePruneSchedule {
            fraction,
            every,
            clean,
        });
    }

    /// Sets the worker-thread count for benign-client fan-out. Any count
    /// produces bit-identical results; `0` is clamped to `1`.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = WorkerPool::new(workers);
    }

    /// Evaluates every benign client (Benign AC + Attack SR) on the
    /// persistent worker pool and the training lanes' arenas, so periodic
    /// evaluation builds no model and no workspace. Wall-clock is accounted
    /// to the profile's `eval` phase.
    ///
    /// # Panics
    ///
    /// Panics if `model_spec` is not the configured model: the lanes that
    /// evaluate are the lanes that train.
    pub fn evaluate_clients(
        &mut self,
        model_spec: &ModelSpec,
        backdoor: &dyn BackdoorEval,
        target_class: usize,
        excluded: &[usize],
    ) -> Vec<ClientMetrics> {
        assert_eq!(
            model_spec, &self.cfg.model,
            "evaluation model differs from the configured model"
        );
        let eval_start = Instant::now();
        let pers: &dyn Personalization = self.personalization.as_ref();
        let global = &self.global;
        let out = metrics::evaluate_clients_pooled(
            &self.fed,
            |id| pers.eval_params(id, global),
            backdoor,
            target_class,
            excluded,
            &self.workers,
            &mut self.arenas,
            &self.scratch,
        );
        self.profile.eval_ms += eval_start.elapsed().as_secs_f64() * 1e3;
        let (wait_ns, dispatch_ns) = self.workers.take_sync_ns();
        self.profile.barrier_ms += wait_ns as f64 * 1e-6;
        self.profile.dispatch_ms += dispatch_ns as f64 * 1e-6;
        let (steals, stolen) = self.workers.take_steal_stats();
        self.profile.steals += steals;
        self.profile.stolen_items += stolen;
        out
    }

    /// Drains the per-phase wall-clock profile accumulated since the last
    /// call (or since construction).
    pub fn take_profile(&mut self) -> PhaseProfile {
        std::mem::take(&mut self.profile)
    }

    /// Mirrors the run trace to a JSONL file (truncating it). Call before
    /// the first round; events already pushed stay in memory only.
    pub fn trace_to_file(&mut self, path: &Path) -> std::io::Result<()> {
        self.trace = TraceLog::to_file(path)?;
        Ok(())
    }

    /// The structured trace events emitted so far.
    pub fn trace_events(&self) -> &[TraceEvent] {
        self.trace.events()
    }

    /// Attaches a shift detector; alerts become `ShiftAlert` trace events.
    pub fn enable_monitor(&mut self, detector: ShiftDetector) {
        self.monitor = Some(detector);
    }

    /// Writes a snapshot to `dir` every `every` completed rounds
    /// (`every = 0` disables checkpointing).
    pub fn enable_checkpoints(&mut self, dir: impl Into<PathBuf>, every: usize) {
        self.checkpoint_dir = Some(dir.into());
        self.checkpoint_every = every;
    }

    /// Installs the deterministic fault plan applied from the next round on.
    ///
    /// The plan participates in [`FlServer::config_hash`], so checkpoints
    /// taken under one fault regime refuse to resume under another — set the
    /// plan *before* [`FlServer::resume_latest`].
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid (see [`FaultPlan::validate`]).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        plan.validate()
            .unwrap_or_else(|e| panic!("invalid FaultPlan: {e}"));
        self.fault_plan = plan;
    }

    /// Current global parameters.
    pub fn global(&self) -> &[f32] {
        self.global.as_slice()
    }

    /// The configuration.
    pub fn config(&self) -> &FlConfig {
        &self.cfg
    }

    /// The federated dataset.
    pub fn dataset(&self) -> &FederatedDataset {
        &self.fed
    }

    /// The personalization strategy (for evaluation).
    pub fn personalization(&self) -> &dyn Personalization {
        self.personalization.as_ref()
    }

    /// Completed round count (the next round to execute).
    pub fn rounds_done(&self) -> usize {
        self.round
    }

    /// FNV-1a hash of the configuration's debug representation (including
    /// the fault plan); stored in snapshots so a checkpoint cannot silently
    /// resume a different run or a different fault regime.
    pub fn config_hash(&self) -> u64 {
        checkpoint::config_hash(&format!("{:?}|fault={:?}", self.cfg, self.fault_plan))
    }

    /// Captures the mutable run state (global model, round cursor,
    /// personalization state) as a codec-ready [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            run_seed: self.cfg.seed,
            config_hash: self.config_hash(),
            round: self.round as u32,
            global: self.global.clone(),
            client_states: self.personalization.export_state(),
        }
    }

    /// Restores run state from a snapshot taken by [`FlServer::snapshot`]
    /// on an identically-configured server.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), CheckpointError> {
        snap.require_config(self.config_hash())?;
        if snap.global.len() != self.global.len() {
            return Err(CheckpointError::Corrupt(format!(
                "snapshot holds {} parameters, model has {}",
                snap.global.len(),
                self.global.len()
            )));
        }
        self.global.copy_from_slice(&snap.global);
        self.personalization
            .import_state(snap.client_states.clone());
        self.round = snap.round as usize;
        self.resumed_from = Some(snap.round);
        Ok(())
    }

    /// Restores from the newest *intact* checkpoint in `dir`, if any.
    /// Returns the round the run will resume from.
    ///
    /// A torn or corrupt newest file (e.g. a crash mid-write on a
    /// filesystem without atomic rename) is skipped and the next-newest
    /// checkpoint is tried, so a damaged tail never strands an otherwise
    /// resumable run. Only when *every* checkpoint is damaged does the last
    /// decode error surface. A config-hash mismatch is a refusal, not
    /// damage, and is returned immediately.
    pub fn resume_latest(&mut self, dir: &Path) -> Result<Option<u32>, CheckpointError> {
        let mut last_err: Option<CheckpointError> = None;
        for (_, path) in checkpoint::checkpoints_by_round(dir).into_iter().rev() {
            match Snapshot::load(&path) {
                Ok(snap) => {
                    self.restore(&snap)?;
                    return Ok(Some(snap.round));
                }
                Err(e) => last_err = Some(e),
            }
        }
        match last_err {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Emits the `RunCompleted` trace event and flushes the trace sink.
    /// Call once after the round loop; a no-op if no round ever ran.
    pub fn finish_run(&mut self) {
        if !self.run_started {
            return;
        }
        let elapsed_ms = self
            .run_start
            .map(|t| t.elapsed().as_secs_f64() * 1e3)
            .unwrap_or(0.0);
        self.trace.push(TraceEvent::RunCompleted {
            rounds_executed: self.rounds_executed,
            elapsed_ms,
        });
        self.trace.flush();
        self.run_started = false;
    }

    fn ensure_run_started(&mut self) {
        if self.run_started {
            return;
        }
        self.run_started = true;
        self.run_start = Some(Instant::now());
        self.trace.push(TraceEvent::RunStarted {
            run_seed: self.cfg.seed,
            config_hash: self.config_hash(),
            num_clients: self.fed.num_clients(),
            rounds: self.cfg.rounds,
            workers: self.workers.workers(),
            aggregator: self.aggregator.name().to_string(),
            resumed_from: self.resumed_from,
        });
    }

    /// Samples the round's client set: each client independently with
    /// probability `q`, re-drawn until non-empty.
    ///
    /// Below [`BINOMIAL_SAMPLING_MIN`] clients this is the original
    /// Bernoulli sweep, verbatim — quick-scale event hashes are pinned to
    /// its exact draw sequence. At paper scale the sweep's `O(num_clients)`
    /// draws per round dominate small rounds, so the cohort size is drawn
    /// once from `Binomial(num_clients, q)` and that many distinct ids are
    /// picked with Floyd's algorithm — `O(k log k)` total, same marginal
    /// distribution, ascending order either way.
    fn sample_clients(rng: &mut StdRng, num_clients: usize, q: f64) -> Vec<usize> {
        if num_clients < BINOMIAL_SAMPLING_MIN {
            loop {
                let sampled: Vec<usize> = (0..num_clients).filter(|_| rng.gen_bool(q)).collect();
                if !sampled.is_empty() {
                    return sampled;
                }
            }
        }
        let binom = Binomial::new(num_clients as u64, q).expect("sample_rate validated in [0, 1]");
        let k = loop {
            let k = binom.sample(rng) as usize;
            if k > 0 {
                break k;
            }
        };
        let mut chosen = std::collections::BTreeSet::new();
        for j in (num_clients - k)..num_clients {
            let t = rng.gen_range(0..=j);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }

    /// Runs one federated round, optionally under attack.
    ///
    /// When a fault plan is active, sampled clients may be dropped (crash
    /// dropout, or stragglers whose virtual delay exceeds the round
    /// deadline) or have their transmitted update corrupted in flight.
    /// Every fault verdict is drawn on this thread from a per-(round,
    /// client) derived stream, so the schedule is reproducible and
    /// invariant to worker count.
    pub fn run_round(&mut self, adversary: Option<&mut (dyn Adversary + '_)>) -> RoundRecord {
        self.ensure_run_started();
        let round_u64 = self.round as u64;
        let run_seed = self.cfg.seed;
        let mut sampling_rng = seed::sampling_rng(run_seed, round_u64);
        let sampled = Self::sample_clients(
            &mut sampling_rng,
            self.fed.num_clients(),
            self.cfg.sample_rate,
        );

        let plan = self.fault_plan;
        if plan.dropout <= 0.0 && plan.straggler <= 0.0 && plan.corrupt <= 0.0 {
            return self.execute_round(sampled, None, Vec::new(), Vec::new(), adversary);
        }
        let mut cohort = Vec::with_capacity(sampled.len());
        let mut dropped = Vec::new();
        let mut corrupt = Vec::new();
        for &cid in &sampled {
            match plan.client_fault(run_seed, round_u64, cid) {
                ClientFault::None => cohort.push(cid),
                ClientFault::Dropout => dropped.push((cid, "dropout", 0.0)),
                ClientFault::Straggler { delay_ms, shed } => {
                    if shed {
                        dropped.push((cid, "straggler", delay_ms));
                    } else {
                        cohort.push(cid);
                    }
                }
                ClientFault::Corrupt => {
                    corrupt.push(cid);
                    cohort.push(cid);
                }
            }
        }
        self.execute_round(sampled, Some(cohort), dropped, corrupt, adversary)
    }

    /// The synchronous side of [`FlServer::run_round`]: every participant
    /// trains against the shared global under the round's RNG key, then
    /// the sync-only checkpoint schedule runs. `cohort` is the subset of
    /// `sampled` that actually participates (`None` means everyone);
    /// `dropped` carries `(client, cause, delay_ms)` fault verdicts for the
    /// trace; `corrupt` lists cohort members whose transmitted update is
    /// poisoned in flight.
    fn execute_round(
        &mut self,
        sampled: Vec<usize>,
        cohort: Option<Vec<usize>>,
        dropped: Vec<(usize, &'static str, f64)>,
        corrupt: Vec<usize>,
        adversary: Option<&mut (dyn Adversary + '_)>,
    ) -> RoundRecord {
        let key = self.round as u64;
        let mut participants = std::mem::take(&mut self.participant_buf);
        participants.clear();
        participants.extend(cohort.as_deref().unwrap_or(&sampled).iter().map(|&client| {
            Completion {
                client,
                arrival_index: key,
                fetched_version: 0,
                staleness: 0,
                corrupt: corrupt.contains(&client),
                completed_at: 0,
            }
        }));
        let record = self.step_cohort(sampled, &participants, dropped, None, adversary);
        self.participant_buf = participants;

        if self.checkpoint_every > 0 && self.round.is_multiple_of(self.checkpoint_every) {
            if let Some(dir) = self.checkpoint_dir.clone() {
                let path = checkpoint::checkpoint_path(&dir, self.round as u32);
                self.write_checkpoint_with_retry(&path);
            }
        }
        record
    }

    /// One cohort step: the round body a synchronous round and a
    /// buffered-async flush share. The modes differ in three things only:
    ///
    /// * the snapshot each participant trains and crafts against — the
    ///   shared global, or (with `flush`) the version it fetched;
    /// * the RNG stream key, [`Completion::arrival_index`] — the round
    ///   number in a synchronous round, the arrival index in a flush;
    /// * the merge — the configured [`Aggregator`], or [`FedBuff`] with
    ///   staleness weights.
    ///
    /// `sampled` is what `RoundStarted` reports; `participants` are the
    /// clients that actually train, in commit order; `dropped` carries
    /// `(client, cause, delay_ms)` fault verdicts for the trace.
    fn step_cohort(
        &mut self,
        sampled: Vec<usize>,
        participants: &[Completion],
        dropped: Vec<(usize, &'static str, f64)>,
        mut flush: Option<&mut FlushState>,
        mut adversary: Option<&mut (dyn Adversary + '_)>,
    ) -> RoundRecord {
        let round_start = Instant::now();
        let round = self.round;
        let round_u64 = round as u64;
        let run_seed = self.cfg.seed;
        let dim = self.global.len();

        let compromised: Vec<usize> = match adversary.as_ref() {
            Some(adv) => sampled
                .iter()
                .copied()
                .filter(|cid| adv.compromised().contains(cid))
                .collect(),
            None => Vec::new(),
        };
        // Single clone per vector: the event owns copies, the locals stay
        // live for the round body and move into the returned record.
        self.trace.push(TraceEvent::RoundStarted {
            round,
            sampled: sampled.clone(),
            compromised: compromised.clone(),
        });
        let mut dropped_ids = Vec::with_capacity(dropped.len());
        for (client, cause, delay_ms) in dropped {
            match cause {
                "dropout" => self.profile.dropped_clients += 1,
                _ => self.profile.shed_stragglers += 1,
            }
            self.trace.push(TraceEvent::ClientDropped {
                round,
                client,
                cause: cause.to_string(),
                delay_ms,
            });
            dropped_ids.push(client);
        }

        let mut setup_rng = seed::round_setup_rng(run_seed, round_u64);
        self.personalization
            .begin_round(&self.global, &mut setup_rng);

        let global_before = if self.collect_updates {
            Some(self.global.clone())
        } else {
            None
        };

        // Benign training jobs — `(participant index, recycled delta
        // buffer)` — fanned over the worker pool with one persistent arena
        // per lane. The closure only holds shared borrows of the frozen
        // snapshots, so all mutation is deferred to commits and determinism
        // is independent of scheduling. Job and outcome buffers persist
        // across rounds so the steady-state fan-out allocates nothing.
        // Each lane fetches its client's shard itself, so a lazy cohort
        // renders shard misses in parallel rather than on this thread.
        let fed = &self.fed;
        let update_pool = &mut self.update_pool;
        let mut jobs = std::mem::take(&mut self.job_buf);
        jobs.clear();
        jobs.extend(
            participants
                .iter()
                .enumerate()
                .filter(|(_, p)| !compromised.contains(&p.client))
                .map(|(i, _)| (i, update_pool.pop().unwrap_or_default())),
        );
        let mut outcomes = std::mem::take(&mut self.outcome_buf);
        let pers: &dyn Personalization = self.personalization.as_ref();
        let cfg = &self.cfg;
        let global = self.global.as_slice();
        let versions = flush.as_deref().map(|f| &f.versions);
        let template = &self.scratch;
        let train_start = Instant::now();
        self.workers.map_with_arena_into(
            &mut self.arenas,
            &mut jobs,
            &mut outcomes,
            || ClientScratch::for_model(template),
            move |_, (i, buf), scratch| {
                let p = &participants[i];
                let train = &fed.client(p.client).train;
                if train.is_empty() {
                    return (i, LaneOutcome::Empty(buf));
                }
                scratch.delta = buf;
                let snapshot = versions.map_or(global, |v| v.get(p.fetched_version));
                let mut rng = seed::client_rng(run_seed, p.arrival_index, p.client);
                let out = pers.local_train(p.client, snapshot, train, cfg, scratch, &mut rng);
                (i, LaneOutcome::Trained(out, train.len()))
            },
        );
        self.profile.train_ms += train_start.elapsed().as_secs_f64() * 1e3;
        self.job_buf = jobs;

        // Assemble updates in participant order; personalization commits
        // land in the same order, independent of worker scheduling.
        let commit_start = Instant::now();
        let mut updates = std::mem::take(&mut self.updates_buf);
        updates.clear();
        if let Some(f) = flush.as_deref_mut() {
            f.staleness.clear();
        }
        let mut benign_norms = Vec::new();
        let mut malicious_norms = Vec::new();
        let mut outcome_iter = outcomes.drain(..);
        for (i, p) in participants.iter().enumerate() {
            let cid = p.client;
            let (mut delta, commit, num_samples) = if compromised.contains(&cid) {
                let adv = adversary.as_mut().expect("compromised implies adversary");
                let snapshot = match flush.as_deref() {
                    Some(f) => f.versions.get(p.fetched_version),
                    None => self.global.as_slice(),
                };
                let mut rng = seed::adversary_rng(run_seed, p.arrival_index, cid);
                let delta = adv.craft_update(cid, snapshot, round, &mut rng);
                (delta, None, self.fed.client(cid).train.len())
            } else {
                let (j, outcome) = outcome_iter
                    .next()
                    .expect("one lane outcome per benign participant");
                debug_assert_eq!(i, j, "lane outcomes arrive in participant order");
                match outcome {
                    LaneOutcome::Trained(out, num_samples) => {
                        (out.delta, Some(out.commit), num_samples)
                    }
                    LaneOutcome::Empty(buf) => {
                        // A benign client without training data contributes
                        // nothing this round.
                        self.update_pool.push(buf);
                        continue;
                    }
                }
            };
            assert_eq!(
                delta.len(),
                dim,
                "client {cid} produced a wrong-sized update"
            );
            if p.corrupt {
                poison_delta(&mut delta);
            }
            // Simulated transport: encode/decode through the scenario's
            // codec before the finite-norm gate, so the gate and every
            // aggregator see exactly what a real receiver would.
            self.cfg.quantization.roundtrip_inplace(&mut delta);
            let update = ClientUpdate::new(cid, delta, num_samples);
            let norm = update.norm();
            if !norm.is_finite() {
                self.reject_update(round, cid, p.corrupt);
                if commit.is_some() {
                    self.update_pool.push(update.delta);
                }
                continue;
            }
            match commit {
                // Client-local state is committed only for accepted
                // updates: a rejected client is treated exactly as if it
                // had dropped this round.
                Some(commit) => {
                    self.personalization.commit(cid, commit);
                    benign_norms.push(norm);
                }
                None => malicious_norms.push(norm),
            }
            if let Some(f) = flush.as_deref_mut() {
                f.staleness.push(p.staleness);
            }
            updates.push(update);
        }
        let num_malicious = malicious_norms.len();
        drop(outcome_iter);
        self.outcome_buf = outcomes;
        self.profile.commit_ms += commit_start.elapsed().as_secs_f64() * 1e3;

        let agg_start = Instant::now();
        let mut agg = std::mem::take(&mut self.agg_buf);
        agg.resize(dim, 0.0);
        let agg_delta_norm = if updates.is_empty() {
            // Degradation policy: every participant was lost to faults (or
            // rejected before aggregation), so the round applies no update —
            // aggregation rules assume a non-empty cohort.
            0.0
        } else {
            let mut agg_rng = seed::aggregation_rng(run_seed, round_u64);
            match flush.as_deref_mut() {
                Some(f) => f
                    .fedbuff
                    .merge_pooled(&updates, &f.staleness, &mut agg, &self.workers),
                None => self.aggregator.aggregate_pooled(
                    &updates,
                    &mut agg,
                    &mut agg_rng,
                    &self.workers,
                ),
            }
            let lr = self.cfg.server_lr as f32;
            let mut agg_sq = 0.0f64;
            for (g, &d) in self.global.iter_mut().zip(&agg) {
                let step = lr * d;
                agg_sq += f64::from(step) * f64::from(step);
                *g += step;
            }
            self.aggregator.post_process(&mut self.global, &mut agg_rng);
            agg_sq.sqrt()
        };
        self.agg_buf = agg;
        self.profile.aggregate_ms += agg_start.elapsed().as_secs_f64() * 1e3;

        // In-training Fine-Pruning, keyed on the absolute completed-round
        // number so a resumed run prunes on exactly the same schedule. The
        // pruned model is what the adversary observes, the monitor sees,
        // and a checkpoint records.
        if let Some(fp) = &self.fine_prune {
            if (round + 1).is_multiple_of(fp.every) {
                self.scratch.set_params(&self.global);
                let outcome =
                    fine_prune(&mut self.scratch, &self.cfg.model, &fp.clean, fp.fraction);
                self.global.copy_from_slice(&outcome.pruned_params);
            }
        }

        if let Some(adv) = adversary.as_mut() {
            adv.observe_global(&self.global, round);
        }

        if let Some(monitor) = &mut self.monitor {
            if let Some(alert) = monitor.observe(Some(&self.global), None) {
                self.trace.push(TraceEvent::ShiftAlert {
                    round: alert.round,
                    observed: alert.observed,
                    baseline_median: alert.baseline_median,
                    z_score: alert.z_score,
                });
            }
        }

        let aggregator = match flush.as_deref() {
            Some(f) => f.fedbuff.name(),
            None => self.aggregator.name(),
        };
        self.trace.push(TraceEvent::RoundCompleted {
            round,
            aggregator: aggregator.to_string(),
            num_malicious,
            benign_norms: benign_norms.clone(),
            malicious_norms: malicious_norms.clone(),
            agg_delta_norm,
            elapsed_ms: round_start.elapsed().as_secs_f64() * 1e3,
        });

        // Reclaim the buffers the pool handed to benign jobs unless the
        // caller keeps them. An adversary's updates are its own allocations
        // and are dropped, so the pool never outgrows the largest benign
        // cohort.
        let kept_updates = if self.collect_updates {
            Some(updates)
        } else {
            for u in updates.drain(..) {
                if !compromised.contains(&u.client_id) {
                    self.update_pool.push(u.delta);
                }
            }
            self.updates_buf = updates;
            None
        };
        let (wait_ns, dispatch_ns) = self.workers.take_sync_ns();
        self.profile.barrier_ms += wait_ns as f64 * 1e-6;
        self.profile.dispatch_ms += dispatch_ns as f64 * 1e-6;
        let (steals, stolen) = self.workers.take_steal_stats();
        self.profile.steals += steals;
        self.profile.stolen_items += stolen;
        self.profile.rounds += 1;
        self.round += 1;
        self.rounds_executed += 1;
        RoundRecord {
            round,
            sampled,
            num_malicious,
            benign_norms,
            malicious_norms,
            updates: kept_updates,
            global_before,
            dropped: dropped_ids,
        }
    }

    /// Logs a pre-aggregation rejection of a non-finite update.
    fn reject_update(&mut self, round: usize, client: usize, injected: bool) {
        self.profile.rejected_updates += 1;
        let reason = if injected {
            "injected_corruption"
        } else {
            "non_finite"
        };
        self.trace.push(TraceEvent::UpdateRejected {
            round,
            client,
            reason: reason.to_string(),
        });
    }

    /// Scheduled checkpoint write with bounded retry and exponential
    /// backoff. Failures (injected by the fault plan or real I/O errors)
    /// are traced and counted; exhausting every attempt skips this
    /// snapshot — it never kills the run, it only widens the resume gap.
    fn write_checkpoint_with_retry(&mut self, path: &Path) {
        let snap = self.snapshot();
        let round = self.round;
        for attempt in 1..=CHECKPOINT_WRITE_ATTEMPTS {
            let result =
                if self
                    .fault_plan
                    .checkpoint_attempt_fails(self.cfg.seed, round as u64, attempt)
                {
                    Err(CheckpointError::Io(std::io::Error::other(
                        "injected checkpoint-write fault",
                    )))
                } else {
                    snap.save(path)
                };
            match result {
                Ok(()) => {
                    self.trace.push(TraceEvent::CheckpointSaved {
                        round,
                        path: path.display().to_string(),
                    });
                    return;
                }
                Err(e) => {
                    self.profile.checkpoint_write_failures += 1;
                    let gave_up = attempt == CHECKPOINT_WRITE_ATTEMPTS;
                    self.trace.push(TraceEvent::CheckpointWriteFailed {
                        round,
                        attempt,
                        error: e.to_string(),
                        gave_up,
                    });
                    if !gave_up {
                        std::thread::sleep(Duration::from_millis(
                            CHECKPOINT_RETRY_BACKOFF_MS << (attempt - 1),
                        ));
                    }
                }
            }
        }
    }

    /// Runs `n` rounds, returning each round's record.
    pub fn run_rounds(
        &mut self,
        n: usize,
        mut adversary: Option<&mut (dyn Adversary + '_)>,
    ) -> Vec<RoundRecord> {
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            let adv = adversary.as_deref_mut();
            records.push(self.run_round(adv));
        }
        records
    }

    /// Runs the buffered-async (FedBuff) execution mode on the
    /// discrete-event simulator, as an alternative to the synchronous
    /// round loop.
    ///
    /// Clients arrive per `plan` (Poisson or trace-driven, filtered by
    /// availability churn and the concurrency cap), fetch the current
    /// global version, train against that exact snapshot for a virtual
    /// duration, and land in a buffer; the buffer flushes when it holds
    /// `buffer_k` completions or the virtual deadline passes.
    ///
    /// Each flush is one cohort step, the same round body the synchronous
    /// loop runs: it emits `RoundStarted`/`RoundCompleted` (participants in
    /// completion order) around the driver's `buffer_flushed` event,
    /// advances [`FlServer::rounds_done`], and runs fine-pruning, the
    /// adversary's `observe_global` and the shift monitor. Only three
    /// things differ: participants train against the version they fetched,
    /// their RNG streams are keyed by `(arrival index, client)` — a pure
    /// function of the virtual schedule — and the merge is the
    /// staleness-weighted [`FedBuff`] (decay from `plan.staleness_decay`)
    /// instead of the configured aggregator, so two same-seed runs are
    /// bitwise identical at any worker count. The active [`FaultPlan`]
    /// composes: dropout, stragglers (extra virtual delay; the flush
    /// deadline, not the synchronous round deadline, governs shedding) and
    /// in-flight corruption all apply per arrival. Sim runs do not write
    /// checkpoints — the same-seed replay *is* the resume story.
    ///
    /// Returns the driver's event-level summary; stops after
    /// `target_flushes` flushes (or earlier if the plan's event source
    /// drains or its event cap trips).
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid or its population does not match the
    /// dataset.
    pub fn run_sim(
        &mut self,
        plan: &SimPlan,
        target_flushes: usize,
        adversary: Option<&mut (dyn Adversary + '_)>,
    ) -> SimSummary {
        assert_eq!(
            plan.num_clients,
            self.fed.num_clients(),
            "sim population must match the federated dataset"
        );
        self.ensure_run_started();
        let mut driver = SimDriver::new(plan.clone(), self.cfg.seed, self.fault_plan)
            .unwrap_or_else(|e| panic!("invalid SimPlan: {e}"));
        // The driver owns the trace sink for the run; each flush lends it
        // back to the server for the cohort step's events.
        let mut trace = std::mem::take(&mut self.trace);
        let mut handler = ServerSimHandler {
            server: self,
            adversary,
            state: FlushState {
                versions: VersionStore::new(),
                fedbuff: FedBuff::new(plan.staleness_decay),
                staleness: Vec::new(),
            },
        };
        let summary = driver.run(&mut handler, &mut trace, target_flushes as u64);
        self.trace = trace;
        summary
    }
}

/// The sim-only state a buffered-async flush adds to a cohort step.
#[derive(Debug)]
struct FlushState {
    /// Refcounted snapshots of every version a buffered client fetched.
    versions: VersionStore,
    fedbuff: FedBuff,
    /// Staleness of each accepted update, aligned with the step's updates.
    staleness: Vec<u64>,
}

/// [`FlServer::run_sim`]'s [`SimHandler`]: retains a snapshot per fetch and
/// runs each flush as one cohort step over the buffered completions.
struct ServerSimHandler<'a, 'b> {
    server: &'a mut FlServer,
    adversary: Option<&'a mut (dyn Adversary + 'b)>,
    state: FlushState,
}

impl SimHandler for ServerSimHandler<'_, '_> {
    fn on_fetch(&mut self, _client: usize, version: u64) {
        self.state.versions.retain(version, &self.server.global);
    }

    fn flush(
        &mut self,
        _flush_index: u64,
        _now: Ticks,
        buffer: &[Completion],
        trace: &mut TraceLog,
    ) {
        std::mem::swap(&mut self.server.trace, trace);
        let sampled = buffer.iter().map(|c| c.client).collect();
        self.server.step_cohort(
            sampled,
            buffer,
            Vec::new(),
            Some(&mut self.state),
            self.adversary.as_deref_mut(),
        );
        std::mem::swap(&mut self.server.trace, trace);
        // Every buffered completion holds exactly one snapshot reference.
        for c in buffer {
            self.state.versions.release(c.fetched_version);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::FedAvg;
    use crate::personalize::{Clustered, Ditto, NoPersonalization};
    use collapois_data::shard::{ShardSource, ShardSpec};
    use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
    use collapois_data::trigger::PatchTrigger;
    use collapois_nn::zoo::ModelSpec;
    use collapois_runtime::trace::hash_canonical_events;

    fn quick_server_with(personalization: Box<dyn Personalization>) -> FlServer {
        let cfg_img = SyntheticImageConfig {
            samples: 400,
            side: 8,
            classes: 4,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg_img).generate();
        let mut rng = StdRng::seed_from_u64(3);
        let fed = FederatedDataset::build(&mut rng, &ds, 10, 1.0);
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut cfg = FlConfig::quick(spec);
        cfg.sample_rate = 0.5;
        FlServer::new(cfg, fed, Box::new(FedAvg::new()), personalization)
    }

    fn quick_server() -> FlServer {
        quick_server_with(Box::new(NoPersonalization::new()))
    }

    /// A trivial adversary pushing a constant delta.
    #[derive(Debug)]
    struct ConstAdversary {
        ids: Vec<usize>,
        value: f32,
    }

    impl Adversary for ConstAdversary {
        fn compromised(&self) -> &[usize] {
            &self.ids
        }
        fn craft_update(
            &mut self,
            _client_id: usize,
            global: &[f32],
            _round: usize,
            _rng: &mut StdRng,
        ) -> Vec<f32> {
            vec![self.value; global.len()]
        }
        fn name(&self) -> &'static str {
            "const"
        }
    }

    #[test]
    fn evaluating_between_rounds_leaves_training_bitwise_unchanged() {
        // Evaluation borrows the training lanes' arenas; what it leaves
        // there must never reach the next round.
        let trigger = PatchTrigger::badnets(8);
        let mut plain = quick_server();
        let mut evaluated = quick_server();
        plain.set_workers(2);
        evaluated.set_workers(2);
        let spec = evaluated.config().model.clone();
        for _ in 0..3 {
            plain.run_round(None);
            evaluated.run_round(None);
            assert_eq!(
                evaluated.evaluate_clients(&spec, &trigger, 0, &[]).len(),
                10
            );
        }
        let bits = |s: &FlServer| s.global().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&plain), bits(&evaluated));
    }

    #[test]
    #[should_panic(expected = "evaluation model differs from the configured model")]
    fn evaluation_rejects_a_model_other_than_the_configured_one() {
        let mut server = quick_server();
        let other = ModelSpec::mlp(64, &[8], 4);
        let _ = server.evaluate_clients(&other, &PatchTrigger::badnets(8), 0, &[]);
    }

    #[test]
    fn update_pool_never_outgrows_the_largest_benign_cohort() {
        let mut server = quick_server();
        let mut adv = ConstAdversary {
            ids: vec![0, 3, 6, 9],
            value: 0.01,
        };
        let mut largest_benign = 0;
        let mut malicious = 0;
        for _ in 0..24 {
            let record = server.run_round(Some(&mut adv));
            largest_benign = largest_benign.max(record.sampled.len() - record.num_malicious);
            malicious += record.num_malicious;
            assert!(
                server.update_pool.len() <= largest_benign,
                "round {}: {} pooled buffers, largest benign cohort {largest_benign}",
                record.round,
                server.update_pool.len()
            );
        }
        assert!(malicious > 0, "the adversary must take part");
    }

    #[test]
    fn rounds_progress_and_model_moves() {
        let mut server = quick_server();
        let g0 = server.global().to_vec();
        let records = server.run_rounds(3, None);
        assert_eq!(records.len(), 3);
        assert_eq!(server.rounds_done(), 3);
        assert_ne!(server.global(), g0.as_slice());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.round, i);
            assert!(!r.sampled.is_empty());
            assert_eq!(r.num_malicious, 0);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = quick_server();
        let mut b = quick_server();
        a.run_rounds(3, None);
        b.run_rounds(3, None);
        assert_eq!(a.global(), b.global());
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let mut seq = quick_server_with(Box::new(Ditto::new(0.1)));
        let mut par = quick_server_with(Box::new(Ditto::new(0.1)));
        par.set_workers(4);
        let rs = seq.run_rounds(3, None);
        let rp = par.run_rounds(3, None);
        assert_eq!(seq.global(), par.global());
        assert_eq!(rs, rp);
        // Personalized evaluation state must agree too.
        for cid in 0..seq.dataset().num_clients() {
            assert_eq!(
                seq.personalization().eval_params(cid, seq.global()),
                par.personalization().eval_params(cid, par.global()),
            );
        }
    }

    #[test]
    fn trace_events_rebuild_round_records() {
        let mut server = quick_server();
        let records = server.run_rounds(3, None);
        server.finish_run();
        let events = server.trace_events();
        assert!(matches!(events[0], TraceEvent::RunStarted { .. }));
        assert!(matches!(
            events.last(),
            Some(TraceEvent::RunCompleted { .. })
        ));
        let rebuilt = round_records_from_events(events);
        assert_eq!(rebuilt.len(), records.len());
        for (a, b) in rebuilt.iter().zip(&records) {
            assert_eq!(a.round, b.round);
            assert_eq!(a.sampled, b.sampled);
            assert_eq!(a.benign_norms, b.benign_norms);
        }
    }

    #[test]
    fn snapshot_restore_matches_uninterrupted_run() {
        // Uninterrupted 6-round reference.
        let mut full = quick_server_with(Box::new(Clustered::new(2)));
        full.run_rounds(6, None);

        // Run 3 rounds, snapshot, restore into a fresh server, finish.
        let mut first = quick_server_with(Box::new(Clustered::new(2)));
        first.run_rounds(3, None);
        let snap = first.snapshot();
        let bytes = snap.encode();
        let snap = Snapshot::decode(&bytes).expect("codec roundtrip");
        let mut resumed = quick_server_with(Box::new(Clustered::new(2)));
        resumed.restore(&snap).expect("config matches");
        assert_eq!(resumed.rounds_done(), 3);
        resumed.run_rounds(3, None);

        assert_eq!(full.global(), resumed.global());
        for cid in 0..full.dataset().num_clients() {
            assert_eq!(
                full.personalization().eval_params(cid, full.global()),
                resumed.personalization().eval_params(cid, resumed.global()),
            );
        }
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let a = quick_server();
        let snap = a.snapshot();
        let cfg_img = SyntheticImageConfig {
            samples: 400,
            side: 8,
            classes: 4,
            ..Default::default()
        };
        let ds = SyntheticImage::new(cfg_img).generate();
        let mut rng = StdRng::seed_from_u64(3);
        let fed = FederatedDataset::build(&mut rng, &ds, 10, 1.0);
        let spec = ModelSpec::mlp(64, &[16], 4);
        let mut cfg = FlConfig::quick(spec);
        cfg.sample_rate = 0.5;
        cfg.seed += 1; // different run seed ⇒ different config hash
        let mut b = FlServer::new(
            cfg,
            fed,
            Box::new(FedAvg::new()),
            Box::new(NoPersonalization::new()),
        );
        assert!(matches!(
            b.restore(&snap),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn checkpoints_written_on_schedule() {
        let dir =
            std::env::temp_dir().join(format!("collapois-server-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = quick_server();
        server.enable_checkpoints(&dir, 2);
        server.run_rounds(5, None);
        let saved: Vec<_> = server
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::CheckpointSaved { .. }))
            .collect();
        assert_eq!(saved.len(), 2); // after rounds 2 and 4
        let latest = checkpoint::latest_checkpoint(&dir).expect("checkpoint exists");
        let snap = Snapshot::load(&latest).expect("readable");
        assert_eq!(snap.round, 4);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn adversary_updates_are_used() {
        let mut server = quick_server();
        server.collect_updates(true);
        let mut adv = ConstAdversary {
            ids: vec![0, 1, 2, 3, 4],
            value: 0.5,
        };
        // Run rounds until a compromised client is sampled.
        let mut saw_malicious = false;
        for _ in 0..20 {
            let r = server.run_round(Some(&mut adv));
            if r.num_malicious > 0 {
                saw_malicious = true;
                let ups = r.updates.expect("collection enabled");
                let mal: Vec<_> = ups
                    .iter()
                    .filter(|u| adv.ids.contains(&u.client_id))
                    .collect();
                assert_eq!(mal.len(), r.num_malicious);
                assert!(mal.iter().all(|u| u.delta.iter().all(|&d| d == 0.5)));
                assert_eq!(r.malicious_norms.len(), r.num_malicious);
                break;
            }
        }
        assert!(saw_malicious, "no compromised client sampled in 20 rounds");
    }

    #[test]
    fn update_collection_toggle() {
        let mut server = quick_server();
        let r = server.run_round(None);
        assert!(r.updates.is_none());
        server.collect_updates(true);
        let r = server.run_round(None);
        assert!(r.updates.is_some());
    }

    #[test]
    fn fault_dropout_is_deterministic_and_traced() {
        let plan = FaultPlan {
            dropout: 0.4,
            ..FaultPlan::none()
        };
        let mut a = quick_server();
        a.set_fault_plan(plan);
        let mut b = quick_server();
        b.set_fault_plan(plan);
        let ra = a.run_rounds(5, None);
        let rb = b.run_rounds(5, None);
        assert_eq!(ra, rb);
        assert_eq!(a.global(), b.global());
        let total_dropped: usize = ra.iter().map(|r| r.dropped.len()).sum();
        assert!(total_dropped > 0, "p=0.4 over 5 rounds must drop someone");
        for r in &ra {
            for d in &r.dropped {
                assert!(r.sampled.contains(d));
            }
        }
        // Trace events carry the same verdicts the records do.
        let traced: usize = a
            .trace_events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ClientDropped { .. }))
            .count();
        assert_eq!(traced, total_dropped);
        assert_eq!(a.take_profile().dropped_clients, total_dropped);
    }

    #[test]
    fn faulted_run_matches_fault_free_run_over_survivors() {
        // The degradation policy's core invariant: dropping clients is
        // bit-identical to never sampling them, because every client's
        // training stream is keyed by (round, client).
        let mut faulted = quick_server_with(Box::new(Ditto::new(0.1)));
        faulted.set_fault_plan(FaultPlan {
            dropout: 0.3,
            ..FaultPlan::none()
        });
        let records = faulted.run_rounds(4, None);
        assert!(records.iter().any(|r| !r.dropped.is_empty()));

        let mut replay = quick_server_with(Box::new(Ditto::new(0.1)));
        for r in &records {
            let survivors: Vec<usize> = r
                .sampled
                .iter()
                .copied()
                .filter(|c| !r.dropped.contains(c))
                .collect();
            // One round over exactly the survivors, bypassing both client
            // sampling and the fault plan.
            replay.ensure_run_started();
            replay.execute_round(survivors, None, Vec::new(), Vec::new(), None);
        }
        assert_eq!(faulted.global(), replay.global());
        for cid in 0..faulted.dataset().num_clients() {
            assert_eq!(
                faulted.personalization().eval_params(cid, faulted.global()),
                replay.personalization().eval_params(cid, replay.global()),
            );
        }
    }

    #[test]
    fn corrupt_updates_are_rejected_before_aggregation() {
        let mut server = quick_server();
        server.set_fault_plan(FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::none()
        });
        let g0 = server.global().to_vec();
        let r = server.run_round(None);
        // Every transmitted update was poisoned, so every one is rejected
        // and the round leaves the global model untouched.
        assert_eq!(server.global(), g0.as_slice());
        assert!(r.benign_norms.is_empty());
        let rejected: Vec<_> = server
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::UpdateRejected { client, reason, .. } => {
                    Some((*client, reason.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(rejected.len(), r.sampled.len());
        assert!(rejected
            .iter()
            .all(|(_, reason)| reason == "injected_corruption"));
        assert_eq!(server.take_profile().rejected_updates, r.sampled.len());
    }

    #[test]
    fn checkpoint_write_failure_is_survivable() {
        let dir =
            std::env::temp_dir().join(format!("collapois-server-ckpt-fail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = quick_server();
        server.set_fault_plan(FaultPlan {
            checkpoint_fail: 1.0,
            ..FaultPlan::none()
        });
        server.enable_checkpoints(&dir, 1);
        server.run_rounds(2, None); // must not panic
        assert_eq!(server.rounds_done(), 2);
        assert!(checkpoint::latest_checkpoint(&dir).is_none());
        let failures: Vec<_> = server
            .trace_events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::CheckpointWriteFailed {
                    attempt, gave_up, ..
                } => Some((*attempt, *gave_up)),
                _ => None,
            })
            .collect();
        // Every scheduled write burns all attempts, giving up on the last.
        assert_eq!(failures.len(), 2 * CHECKPOINT_WRITE_ATTEMPTS);
        assert!(failures
            .iter()
            .all(|&(attempt, gave_up)| gave_up == (attempt == CHECKPOINT_WRITE_ATTEMPTS)));
        assert_eq!(
            server.take_profile().checkpoint_write_failures,
            2 * CHECKPOINT_WRITE_ATTEMPTS
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_torn_newest_checkpoint() {
        let dir =
            std::env::temp_dir().join(format!("collapois-server-torn-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut server = quick_server_with(Box::new(Clustered::new(2)));
        server.enable_checkpoints(&dir, 2);
        server.run_rounds(4, None); // checkpoints at rounds 2 and 4
        drop(server);

        // Tear the newest file as a crash mid-write would on a filesystem
        // without atomic rename.
        let newest = checkpoint::checkpoint_path(&dir, 4);
        let bytes = std::fs::read(&newest).expect("checkpoint exists");
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("truncate");

        let mut resumed = quick_server_with(Box::new(Clustered::new(2)));
        let round = resumed.resume_latest(&dir).expect("fallback succeeds");
        assert_eq!(round, Some(2));
        assert_eq!(resumed.rounds_done(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_plan_changes_config_hash() {
        let clean = quick_server();
        let mut faulted = quick_server();
        faulted.set_fault_plan(FaultPlan {
            dropout: 0.2,
            ..FaultPlan::none()
        });
        assert_ne!(clean.config_hash(), faulted.config_hash());
        // A checkpoint from a fault-free run refuses to resume under a
        // different fault regime.
        let snap = clean.snapshot();
        assert!(matches!(
            faulted.restore(&snap),
            Err(CheckpointError::ConfigMismatch { .. })
        ));
    }

    /// A small buffered-async plan matched to the 10-client quick fixture.
    fn quick_sim_plan() -> SimPlan {
        SimPlan {
            num_clients: 10,
            arrival_mean_ms: 20.0,
            train_mean_ms: 30.0,
            buffer_k: 4,
            max_concurrency: 8,
            ..SimPlan::default()
        }
    }

    #[test]
    fn sim_run_is_worker_count_invariant() {
        let mut reference: Option<(Vec<u32>, Vec<TraceEvent>)> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut server = quick_server_with(Box::new(Ditto::new(0.1)));
            server.set_workers(workers);
            let summary = server.run_sim(&quick_sim_plan(), 6, None);
            assert!(summary.reached_target, "plan must reach 6 flushes");
            assert_eq!(summary.flushes, 6);
            let bits: Vec<u32> = server.global().iter().map(|v| v.to_bits()).collect();
            let events: Vec<TraceEvent> = server
                .trace_events()
                .iter()
                .map(TraceEvent::canonical)
                .collect();
            match &reference {
                None => reference = Some((bits, events)),
                Some((rb, re)) => {
                    assert_eq!(rb, &bits, "global diverged at workers={workers}");
                    assert_eq!(re, &events, "trace diverged at workers={workers}");
                }
            }
        }
    }

    #[test]
    fn sim_flushes_advance_rounds_and_emit_round_events() {
        let mut server = quick_server();
        let summary = server.run_sim(&quick_sim_plan(), 5, None);
        assert_eq!(summary.flushes, 5);
        assert_eq!(server.rounds_done(), 5);
        assert!(summary.arrivals >= summary.completions);
        let events = server.trace_events();
        let flushed: Vec<(u64, usize)> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::BufferFlushed { flush, size, .. } => Some((*flush, *size)),
                _ => None,
            })
            .collect();
        assert_eq!(flushed.len(), 5);
        assert!(flushed.iter().all(|&(_, size)| size > 0));
        // Each flush plays a round: the rebuilt records line up 1:1.
        let rebuilt = round_records_from_events(events);
        assert_eq!(rebuilt.len(), 5);
        for (i, r) in rebuilt.iter().enumerate() {
            assert_eq!(r.round, i);
            assert!(!r.sampled.is_empty());
        }
        // Mixing modes keeps the round counter coherent.
        let rec = server.run_round(None);
        assert_eq!(rec.round, 5);
    }

    #[test]
    fn sim_adversary_updates_are_merged() {
        let mut adv = ConstAdversary {
            ids: vec![0, 1, 2],
            value: 0.25,
        };
        let mut server = quick_server();
        let summary = server.run_sim(&quick_sim_plan(), 6, Some(&mut adv));
        assert!(summary.reached_target);
        let rebuilt = round_records_from_events(server.trace_events());
        let malicious: usize = rebuilt.iter().map(|r| r.num_malicious).sum();
        assert!(
            malicious > 0,
            "compromised clients must arrive in 6 flushes"
        );
        for r in &rebuilt {
            assert_eq!(
                r.num_malicious,
                r.sampled.iter().filter(|c| adv.ids.contains(c)).count()
            );
        }
    }

    /// Runs four adversarial rounds over `fed` at workers 1, 2 and 4,
    /// asserts bit-identical final parameters and canonical event hashes,
    /// and returns the workers-1 server.
    fn run_at_worker_counts(fed: impl Fn() -> FederatedDataset) -> FlServer {
        let bits = |s: &FlServer| s.global().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut first: Option<FlServer> = None;
        for workers in [1usize, 2, 4] {
            let mut cfg = FlConfig::quick(ModelSpec::mlp(64, &[16], 4));
            cfg.sample_rate = 0.5;
            let mut server = FlServer::new(
                cfg,
                fed(),
                Box::new(FedAvg::new()),
                Box::new(NoPersonalization::new()),
            );
            server.set_workers(workers);
            let mut adv = ConstAdversary {
                ids: vec![0, 1, 2],
                value: 0.25,
            };
            server.run_rounds(4, Some(&mut adv));
            server.finish_run();
            match &first {
                None => first = Some(server),
                Some(f) => {
                    assert_eq!(bits(f), bits(&server), "params at workers={workers}");
                    assert_eq!(
                        hash_canonical_events(f.trace_events()),
                        hash_canonical_events(server.trace_events()),
                        "event hash at workers={workers}"
                    );
                }
            }
        }
        first.expect("ran at workers=1")
    }

    #[test]
    fn lanes_fetch_shards_and_skip_empty_clients_worker_count_invariantly() {
        let source = ShardSource::Image(SyntheticImage::new(SyntheticImageConfig {
            side: 8,
            classes: 4,
            ..Default::default()
        }));
        // One sample per lazy shard under a budget of a few shards: lanes
        // render, hit and evict concurrently.
        let spec = ShardSpec::new(source, 1, 1.0, 11);
        let server = run_at_worker_counts(|| FederatedDataset::lazy(spec.clone(), 40, 4096));
        let stats = server.dataset().shard_stats().expect("lazy cohort");
        assert!(
            stats.evictions > 0,
            "budget must force evictions: {stats:?}"
        );

        // A sparse partition with a 30% train split leaves the clients
        // holding a single sample with no training data at all; sampled
        // benign ones must be skipped at commit.
        let ds = SyntheticImage::new(SyntheticImageConfig {
            samples: 60,
            side: 8,
            classes: 4,
            ..Default::default()
        })
        .generate();
        let sparse = || {
            let mut rng = StdRng::seed_from_u64(5);
            FederatedDataset::build_with_split(&mut rng, &ds, 30, 1.0, 0.3, 0.15)
        };
        let server = run_at_worker_counts(sparse);
        let skipped: usize = round_records_from_events(server.trace_events())
            .iter()
            .map(|r| r.sampled.len() - r.num_malicious - r.benign_norms.len())
            .sum();
        assert!(skipped > 0, "some sampled benign client had no data");
    }

    #[test]
    fn sim_flushes_run_fine_pruning_worker_count_invariantly() {
        let plain = {
            let mut server = quick_server();
            server.run_sim(&quick_sim_plan(), 6, None);
            server.global().to_vec()
        };
        let mut reference: Option<Vec<u32>> = None;
        for workers in [1usize, 2, 4] {
            let mut server = quick_server();
            server.set_workers(workers);
            server.enable_fine_pruning(0.25, 2);
            let summary = server.run_sim(&quick_sim_plan(), 6, None);
            assert!(summary.reached_target);
            assert_ne!(
                server.global(),
                plain.as_slice(),
                "pruning must run in flushes"
            );
            let bits: Vec<u32> = server.global().iter().map(|v| v.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "global diverged at workers={workers}"),
            }
        }
    }

    #[test]
    fn sim_faults_compose_with_buffered_async() {
        let plan = quick_sim_plan();
        let fault = FaultPlan {
            corrupt: 1.0,
            ..FaultPlan::none()
        };
        let mut server = quick_server();
        server.set_fault_plan(fault);
        let g0 = server.global().to_vec();
        let summary = server.run_sim(&plan, 3, None);
        assert!(summary.reached_target);
        // Every buffered update was poisoned in flight: all rejected, the
        // model never moves.
        assert_eq!(server.global(), g0.as_slice());
        assert_eq!(
            server.take_profile().rejected_updates as u64,
            summary.completions
        );
    }

    #[test]
    fn zero_round_deadline_never_sheds_stragglers() {
        // Regression for the synchronous-round deadline semantics: a
        // straggler-heavy plan with `deadline_ms = 0` must mean "no
        // deadline" — every straggler is waited for, none is shed.
        let mut server = quick_server();
        server.set_fault_plan(FaultPlan {
            straggler: 1.0,
            straggler_mean_ms: 10_000.0,
            deadline_ms: 0.0,
            ..FaultPlan::none()
        });
        let records = server.run_rounds(4, None);
        for r in &records {
            assert!(
                r.dropped.is_empty(),
                "round {}: no deadline ⇒ no shed stragglers",
                r.round
            );
            assert_eq!(r.benign_norms.len(), r.sampled.len());
        }
        assert!(!server
            .trace_events()
            .iter()
            .any(|e| matches!(e, TraceEvent::ClientDropped { .. })));
        assert_eq!(server.take_profile().shed_stragglers, 0);
    }
}

#[cfg(test)]
mod sampling_tests {
    use super::*;

    #[test]
    fn small_cohorts_keep_the_bernoulli_sweep() {
        // The quick-scale draw sequence is pinned by the golden grid
        // hashes; reproduce it here directly from the RNG contract.
        let mut rng = seed::sampling_rng(42, 3);
        let expected: Vec<usize> = (0..64).filter(|_| rng.gen_bool(0.25)).collect();
        let mut rng = seed::sampling_rng(42, 3);
        assert_eq!(FlServer::sample_clients(&mut rng, 64, 0.25), expected);
    }

    #[test]
    fn large_cohorts_sample_distinct_sorted_ids() {
        let mut rng = seed::sampling_rng(7, 0);
        let s = FlServer::sample_clients(&mut rng, 4096, 0.02);
        assert!(s.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
        assert!(s.iter().all(|&c| c < 4096));
        // k ~ Binomial(4096, 0.02): mean 81.9, sd ~9 — allow 6 sigma.
        assert!((28..=136).contains(&s.len()), "len {}", s.len());
    }

    #[test]
    fn large_cohort_sampling_is_pinned() {
        // Determinism fixture: any change to the binomial walk, Floyd's
        // index draws, or the RNG derivation shows up here.
        let mut rng = seed::sampling_rng(1234, 0);
        let s = FlServer::sample_clients(&mut rng, 2048, 0.005);
        assert_eq!(
            s,
            vec![63, 461, 526, 745, 1103, 1235, 1277, 1765, 1780, 1848, 1954]
        );
    }
}
