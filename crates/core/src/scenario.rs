//! The experiment driver: dataset × non-IID level × attack × defense ×
//! FL algorithm.
//!
//! A [`Scenario`] reproduces one cell of the paper's evaluation grid
//! (Figs. 1, 8–13, 15–25): it generates the synthetic dataset, partitions it
//! with Dirichlet(α), compromises a fraction of clients, trains the Trojaned
//! model X where the attack needs one, runs `T` federated rounds under the
//! chosen defense/personalization, and reports population-, cluster- and
//! client-level metrics.

use crate::baselines::{DPois, DbaAttack, LabelFlip, LocalTrainConfig, MRepl, SemanticAttack};
use crate::collapois::{CollaPois, CollaPoisConfig};
use crate::trojan::{train_trojan, TrojanConfig, TrojanedModel};
use collapois_data::federated::FederatedDataset;
use collapois_data::poison::{BackdoorEval, TriggerBackdoor};
use collapois_data::sample::Dataset;
use collapois_data::semantic::SemanticRegion;
use collapois_data::shard::{ShardSource, ShardSpec, ShardStats};
use collapois_data::synthetic::{
    SyntheticImage, SyntheticImageConfig, SyntheticText, SyntheticTextConfig,
};
use collapois_data::trigger::{DbaTrigger, TextTrigger, Trigger, WaNetTrigger};
use collapois_fl::aggregate::{
    Aggregator, CoordinateMedian, Crfl, DpAggregator, FedAvg, Flare, Krum, NormBound,
    RobustLearningRate, SignSgd, StatFilter, TrimmedMean, UserLevelDp,
};
use collapois_fl::config::FlConfig;
use collapois_fl::metrics::{
    cluster_analysis, population, top_k_percent, ClientMetrics, ClusterReport, PopulationMetrics,
};
use collapois_fl::monitor::ShiftDetector;
use collapois_fl::personalize::{
    Clustered, Ditto, FedDc, MetaFed, NoPersonalization, Personalization, Scaffold,
};
use collapois_fl::profile::PhaseProfile;
pub use collapois_fl::quant::Quantization;
use collapois_fl::server::round_records_from_events;
use collapois_fl::server::{Adversary, FlServer, RoundRecord};
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::fault::FaultPlan;
use collapois_runtime::sim::{ChurnPlan, SimPlan};
use collapois_runtime::trace::hash_canonical_events;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;

/// Which synthetic corpus to use (stand-ins for FEMNIST / Sentiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// FEMNIST-sim: grayscale images, WaNet warping trigger.
    Image,
    /// Sentiment-sim: embedding vectors, fixed-term trigger.
    Text,
}

impl DatasetKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Image => "image",
            Self::Text => "text",
        }
    }

    /// Every dataset.
    pub fn all() -> &'static [DatasetKind] {
        &[Self::Image, Self::Text]
    }
}

/// Which attack to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Clean training (control).
    None,
    /// The paper's contribution (Algorithm 1).
    CollaPois,
    /// Classical data poisoning.
    DPois,
    /// Model replacement with boosting.
    MRepl,
    /// Distributed backdoor attack.
    Dba,
    /// Untargeted label flipping (classic Byzantine baseline; no trigger,
    /// so Attack SR stays at chance — the signal is Benign AC damage).
    LabelFlip,
    /// Semantic backdoor: a natural feature-space region of the source
    /// class is relabelled to the target class — no trigger stamping, so
    /// inference-phase trigger detectors have nothing to find. Attack SR is
    /// measured on clean in-region test samples.
    Semantic,
}

impl AttackKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::None => "clean",
            Self::CollaPois => "collapois",
            Self::DPois => "dpois",
            Self::MRepl => "mrepl",
            Self::Dba => "dba",
            Self::LabelFlip => "label-flip",
            Self::Semantic => "semantic",
        }
    }

    /// Every attack, the clean control first.
    pub fn all() -> &'static [AttackKind] {
        &[
            Self::None,
            Self::CollaPois,
            Self::DPois,
            Self::MRepl,
            Self::Dba,
            Self::LabelFlip,
            Self::Semantic,
        ]
    }
}

/// Which server-side defense (robust aggregation) to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefenseKind {
    /// Plain FedAvg (no defense).
    None,
    /// DP-optimizer (clip + noise).
    Dp,
    /// Norm bounding.
    NormBound,
    /// Krum.
    Krum,
    /// Robust learning rate.
    Rlr,
    /// Coordinate-wise median.
    Median,
    /// α-trimmed mean.
    TrimmedMean,
    /// SignSGD majority vote.
    SignSgd,
    /// FLARE trust scores.
    Flare,
    /// CRFL model clipping + noising.
    Crfl,
    /// MESAS-style 3-sigma statistical screening of updates.
    StatFilter,
    /// User-level DP with zCDP accounting.
    UserDp,
    /// In-training Fine-Pruning: every `fp_every` rounds the server prunes
    /// the `fp_fraction` least-activated hidden units of the global model
    /// against its held-out clean split (aggregation itself is plain
    /// FedAvg). Single-hidden-layer MLP models only.
    FinePrune,
}

impl DefenseKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::None => "none",
            Self::Dp => "dp",
            Self::NormBound => "norm-bound",
            Self::Krum => "krum",
            Self::Rlr => "rlr",
            Self::Median => "median",
            Self::TrimmedMean => "trimmed-mean",
            Self::SignSgd => "signsgd",
            Self::Flare => "flare",
            Self::Crfl => "crfl",
            Self::StatFilter => "stat-filter",
            Self::UserDp => "user-dp",
            Self::FinePrune => "fine-prune",
        }
    }

    /// Checks that the buffered-async simulator can run this defense. A
    /// flush always merges with FedBuff, so only defenses that keep the
    /// plain FedAvg aggregator (`none`, and `fine-prune`, a
    /// post-aggregation hook) mean what their label says in sim mode.
    pub fn check_sim(&self) -> Result<(), String> {
        match self {
            Self::None | Self::FinePrune => Ok(()),
            other => Err(format!(
                "defense '{}' replaces the aggregator, but sim mode always merges \
                 with FedBuff (only none and fine-prune run under the simulator)",
                other.name()
            )),
        }
    }

    /// All defenses evaluated by the paper's Table I battery.
    pub fn all() -> &'static [DefenseKind] {
        &[
            Self::None,
            Self::Dp,
            Self::NormBound,
            Self::Krum,
            Self::Rlr,
            Self::Median,
            Self::TrimmedMean,
            Self::SignSgd,
            Self::Flare,
            Self::Crfl,
            Self::StatFilter,
            Self::UserDp,
            Self::FinePrune,
        ]
    }
}

/// Which (personalized) FL algorithm the clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlAlgo {
    /// FedAvg (no personalization).
    FedAvg,
    /// FedDC drift decoupling & correction.
    FedDc,
    /// MetaFed cyclic knowledge distillation.
    MetaFed,
    /// Ditto personalization.
    Ditto,
    /// IFCA-style clustered FL.
    Clustered,
    /// SCAFFOLD variance-reduced aggregation (control variates).
    Scaffold,
}

impl FlAlgo {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::FedAvg => "fedavg",
            Self::FedDc => "feddc",
            Self::MetaFed => "metafed",
            Self::Ditto => "ditto",
            Self::Clustered => "clustered",
            Self::Scaffold => "scaffold",
        }
    }

    /// Every FL algorithm.
    pub fn all() -> &'static [FlAlgo] {
        &[
            Self::FedAvg,
            Self::FedDc,
            Self::MetaFed,
            Self::Ditto,
            Self::Clustered,
            Self::Scaffold,
        ]
    }
}

/// Which model family the image scenario trains (the paper uses a
/// LeNet-style CNN; the MLP is the fast default at simulation scale).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScenarioModel {
    /// Single-hidden-layer MLP (fast default).
    #[default]
    Mlp,
    /// Small LeNet-style CNN (2 conv + 2 FC, the paper's architecture
    /// family).
    Cnn,
}

impl ScenarioModel {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Mlp => "mlp",
            Self::Cnn => "cnn",
        }
    }

    /// Every model family.
    pub fn all() -> &'static [ScenarioModel] {
        &[Self::Mlp, Self::Cnn]
    }
}

/// How client data is materialized for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CohortMode {
    /// Lazy at and above [`LAZY_COHORT_THRESHOLD`] clients, eager below.
    #[default]
    Auto,
    /// Always pool, partition and split every client up front.
    Eager,
    /// Always generate per-client shards on first touch and keep them
    /// resident under the shard byte budget (the paper-scale cohort
    /// engine).
    Lazy,
}

impl CohortMode {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Auto => "auto",
            Self::Eager => "eager",
            Self::Lazy => "lazy",
        }
    }

    /// Every cohort mode.
    pub fn all() -> &'static [CohortMode] {
        &[Self::Auto, Self::Eager, Self::Lazy]
    }
}

/// Client count at which [`CohortMode::Auto`] switches to lazy shards.
/// Below this the eager pooled-then-partitioned path (whose draw sequence
/// the quick-scale golden hashes pin) always runs.
pub const LAZY_COHORT_THRESHOLD: usize = 1024;

/// Default resident-shard byte budget when `shard_budget_mb` is 0.
pub const DEFAULT_SHARD_BUDGET_MB: usize = 256;

/// Defense hyper-parameters (sensible defaults for the synthetic scale).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefenseParams {
    /// DP clip bound.
    pub dp_clip: f64,
    /// DP noise multiplier.
    pub dp_noise: f64,
    /// NormBound clip bound.
    pub nb_bound: f64,
    /// NormBound added noise std.
    pub nb_noise: f64,
    /// Trimmed-mean β.
    pub trim_beta: f64,
    /// RLR threshold as a fraction of the expected cohort.
    pub rlr_frac: f64,
    /// SignSGD per-coordinate step.
    pub sign_step: f64,
    /// FLARE sharpness.
    pub flare_sharpness: f64,
    /// CRFL global-parameter norm bound.
    pub crfl_bound: f64,
    /// CRFL noise std.
    pub crfl_noise: f64,
    /// Fine-Pruning: fraction of hidden units pruned per pass.
    pub fp_fraction: f64,
    /// Fine-Pruning: pruning cadence in completed rounds.
    pub fp_every: usize,
}

impl Default for DefenseParams {
    fn default() -> Self {
        Self {
            dp_clip: 3.0,
            dp_noise: 0.1,
            nb_bound: 2.0,
            nb_noise: 0.01,
            trim_beta: 0.2,
            rlr_frac: 0.4,
            sign_step: 0.01,
            flare_sharpness: 4.0,
            crfl_bound: 30.0,
            crfl_noise: 0.002,
            fp_fraction: 0.25,
            fp_every: 2,
        }
    }
}

/// Full configuration of one experiment cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Dataset family.
    pub dataset: DatasetKind,
    /// Number of clients `|N|`.
    pub num_clients: usize,
    /// Average samples per client.
    pub samples_per_client: usize,
    /// Dirichlet concentration α (smaller = more non-IID).
    pub alpha: f64,
    /// Fraction of clients the attacker compromises (0 disables attacks).
    pub compromised_frac: f64,
    /// The attack.
    pub attack: AttackKind,
    /// The defense (aggregation rule).
    pub defense: DefenseKind,
    /// The FL algorithm (personalization).
    pub algo: FlAlgo,
    /// Model family for the image dataset (text always uses the MLP head).
    pub model_kind: ScenarioModel,
    /// Federated rounds `T`.
    pub rounds: usize,
    /// Local steps `K`.
    pub local_steps: usize,
    /// Local minibatch size.
    pub batch_size: usize,
    /// Clients' learning rate γ.
    pub client_lr: f64,
    /// Server learning rate λ.
    pub server_lr: f64,
    /// Client sampling probability q.
    pub sample_rate: f64,
    /// Evaluate every this many rounds.
    pub eval_every: usize,
    /// Transport codec for client update deltas (simulated encode/decode
    /// round-trip before the finite-norm gate; `F32` is the exact no-op).
    pub quantization: Quantization,
    /// Keep raw updates for gradient-angle analysis.
    pub collect_updates: bool,
    /// Master seed.
    pub seed: u64,
    /// Trojan training hyper-parameters.
    pub trojan: TrojanConfig,
    /// CollaPois attack parameters.
    pub collapois: CollaPoisConfig,
    /// Defense hyper-parameters.
    pub defense_params: DefenseParams,
    /// DPois/MRepl/DBA poisoned-data fraction.
    pub poison_fraction: f64,
    /// Client-data materialization strategy (see [`CohortMode`]).
    pub cohort: CohortMode,
    /// Resident-shard byte budget in MiB for the lazy backing
    /// (`0` = [`DEFAULT_SHARD_BUDGET_MB`]).
    pub shard_budget_mb: usize,
}

impl ScenarioConfig {
    /// A fast image-dataset configuration (FEMNIST-sim) suited to tests and
    /// the `quick` benchmark scale.
    pub fn quick_image(alpha: f64, compromised_frac: f64) -> Self {
        Self {
            dataset: DatasetKind::Image,
            num_clients: 60,
            samples_per_client: 40,
            alpha,
            compromised_frac,
            attack: AttackKind::CollaPois,
            defense: DefenseKind::None,
            algo: FlAlgo::FedAvg,
            model_kind: ScenarioModel::Mlp,
            rounds: 40,
            local_steps: 4,
            batch_size: 16,
            client_lr: 0.1,
            server_lr: 1.0,
            sample_rate: 0.25,
            eval_every: 10,
            quantization: Quantization::F32,
            collect_updates: false,
            seed: 42,
            trojan: TrojanConfig::default(),
            collapois: CollaPoisConfig::paper(),
            defense_params: DefenseParams::default(),
            poison_fraction: 0.5,
            cohort: CohortMode::Auto,
            shard_budget_mb: 0,
        }
    }

    /// A fast text-dataset configuration (Sentiment-sim).
    pub fn quick_text(alpha: f64, compromised_frac: f64) -> Self {
        Self {
            dataset: DatasetKind::Text,
            num_clients: 60,
            samples_per_client: 40,
            ..Self::quick_image(alpha, compromised_frac)
        }
    }

    /// Model architecture for the dataset.
    pub fn model_spec(&self) -> ModelSpec {
        match (self.dataset, self.model_kind) {
            (DatasetKind::Image, ScenarioModel::Mlp) => {
                ModelSpec::mlp(IMAGE_SIDE * IMAGE_SIDE, &[48], IMAGE_CLASSES)
            }
            (DatasetKind::Image, ScenarioModel::Cnn) => {
                ModelSpec::small_cnn(IMAGE_SIDE, IMAGE_CLASSES)
            }
            (DatasetKind::Text, _) => ModelSpec::mlp(TEXT_DIM, &[16], TEXT_CLASSES),
        }
    }

    /// Number of compromised clients: `round(frac·N)` floored at 4 below
    /// [`LAZY_COHORT_THRESHOLD`] clients and at 1 above it, 0 when the
    /// fraction is 0 or the attack is `None`. (The quick-scale floor of 4
    /// mirrors the paper's smallest cohorts — 4–28 clients — where fewer
    /// compromised validation splits cover too few classes to train a
    /// meaningful Trojan. At paper scale each client is one of thousands,
    /// so even a handful of compromised clients pools enough auxiliary
    /// data and the floor is no longer needed.)
    pub fn num_compromised(&self) -> usize {
        if self.compromised_frac <= 0.0 || self.attack == AttackKind::None {
            return 0;
        }
        let floor = if self.num_clients >= LAZY_COHORT_THRESHOLD {
            1
        } else {
            4
        };
        ((self.num_clients as f64 * self.compromised_frac).round() as usize)
            .clamp(floor, (self.num_clients / 2).max(floor))
    }

    /// Whether this configuration serves client data through lazy resident
    /// shards.
    pub fn uses_lazy_cohort(&self) -> bool {
        match self.cohort {
            CohortMode::Eager => false,
            CohortMode::Lazy => true,
            CohortMode::Auto => self.num_clients >= LAZY_COHORT_THRESHOLD,
        }
    }

    /// Resident-shard byte budget for the lazy backing.
    pub fn shard_budget_bytes(&self) -> usize {
        let mb = if self.shard_budget_mb == 0 {
            DEFAULT_SHARD_BUDGET_MB
        } else {
            self.shard_budget_mb
        };
        mb << 20
    }

    /// The per-client shard generator for the lazy backing: the same
    /// synthetic source as [`Scenario::generate_dataset`] (identical
    /// prototypes/centers for a given seed — the `samples` field does not
    /// shape them), rendered per client from the derived shard RNG stream.
    pub fn shard_spec(&self) -> ShardSpec {
        let source = match self.dataset {
            DatasetKind::Image => ShardSource::Image(SyntheticImage::new(SyntheticImageConfig {
                side: IMAGE_SIDE,
                classes: IMAGE_CLASSES,
                samples: self.samples_per_client,
                noise: 0.05,
                max_shift: 1,
                seed: self.seed,
            })),
            DatasetKind::Text => ShardSource::Text(SyntheticText::new(SyntheticTextConfig {
                dim: TEXT_DIM,
                classes: TEXT_CLASSES,
                clusters_per_class: 3,
                samples: self.samples_per_client,
                noise: 0.6,
                seed: self.seed,
            })),
        };
        ShardSpec::new(source, self.samples_per_client, self.alpha, self.seed)
    }

    /// The trigger for this dataset family.
    pub fn build_trigger(&self) -> Box<dyn Trigger> {
        match self.dataset {
            DatasetKind::Image => {
                Box::new(WaNetTrigger::new(IMAGE_SIDE, 4, 3.0, self.seed ^ 0x7716))
            }
            DatasetKind::Text => Box::new(TextTrigger::new(TEXT_DIM, 2.0, 0.6, self.seed ^ 0x7716)),
        }
    }
}

/// Image side length of the FEMNIST-sim scenario models.
pub const IMAGE_SIDE: usize = 12;
/// Class count of the FEMNIST-sim scenario.
pub const IMAGE_CLASSES: usize = 4;
/// Embedding dimension of the Sentiment-sim scenario.
pub const TEXT_DIM: usize = 32;
/// Class count of the Sentiment-sim scenario.
pub const TEXT_CLASSES: usize = 2;

/// Execution-engine options for a scenario run (`collapois-runtime` knobs).
/// The engine knobs never change the numerical result — `workers = N` is
/// bit-identical to `workers = 1`, and a resumed run converges to the same
/// final model as an uninterrupted one. The one deliberate exception is
/// `fault`: an active fault plan changes *which clients contribute* each
/// round (that is its purpose), but the faulted run itself is still fully
/// deterministic and worker-count-invariant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// Worker threads for benign-client training fan-out (`0`/`1` =
    /// sequential).
    pub workers: usize,
    /// Mirror the structured JSONL run trace to this file.
    pub trace_path: Option<PathBuf>,
    /// Directory for periodic snapshots (`None` disables checkpointing).
    pub checkpoint_dir: Option<PathBuf>,
    /// Snapshot every this many completed rounds (`0` = a default of 5
    /// when `checkpoint_dir` is set).
    pub checkpoint_every: usize,
    /// Resume from the newest snapshot in `checkpoint_dir`, if any.
    pub resume: bool,
    /// Attach the round-to-round shift monitor; alerts land in the trace.
    pub monitor: bool,
    /// Deterministic fault-injection plan (dropout, stragglers, corrupted
    /// updates, checkpoint-write failures). The default plan injects
    /// nothing.
    pub fault: FaultPlan,
    /// Run the buffered-async discrete-event simulator instead of the
    /// synchronous round loop (`None` = synchronous). Each buffer flush
    /// plays a round; the scenario's `rounds` becomes the flush target.
    /// Only defenses that pass [`DefenseKind::check_sim`] are accepted.
    /// Checkpointing is disabled in sim mode — the same-seed bitwise
    /// replay is its resume story.
    pub sim: Option<SimKnobs>,
}

/// Discrete-event simulator knobs for a scenario run (the `--sim-*` CLI
/// flags). These parameterize [`SimPlan`]; the population comes from the
/// scenario config.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimKnobs {
    /// Mean virtual inter-arrival gap per client in ms (Poisson).
    pub arrival_mean_ms: f64,
    /// Mean virtual training duration in ms.
    pub train_mean_ms: f64,
    /// Buffer size `K`: aggregate after this many buffered completions.
    pub buffer_k: usize,
    /// Virtual flush deadline in ms (`0` = no deadline: flush only on a
    /// full buffer).
    pub flush_deadline_ms: f64,
    /// FedBuff staleness exponent: weight `(1+s)^-decay`.
    pub staleness_decay: f64,
    /// Mean virtual up-time in ms for availability churn (`0` disables
    /// churn: clients are always available).
    pub churn_up_ms: f64,
    /// Mean virtual down-time in ms for availability churn.
    pub churn_down_ms: f64,
    /// Max clients training concurrently (bounds live model snapshots).
    pub max_concurrency: usize,
}

impl Default for SimKnobs {
    fn default() -> Self {
        let d = SimPlan::default();
        Self {
            arrival_mean_ms: d.arrival_mean_ms,
            train_mean_ms: d.train_mean_ms,
            buffer_k: d.buffer_k,
            flush_deadline_ms: d.flush_deadline_ms,
            staleness_decay: d.staleness_decay,
            churn_up_ms: 0.0,
            churn_down_ms: 0.0,
            max_concurrency: d.max_concurrency,
        }
    }
}

impl SimKnobs {
    /// The driver plan for a `num_clients` population.
    pub fn to_plan(&self, num_clients: usize) -> SimPlan {
        SimPlan {
            num_clients,
            arrival_mean_ms: self.arrival_mean_ms,
            train_mean_ms: self.train_mean_ms,
            buffer_k: self.buffer_k,
            flush_deadline_ms: self.flush_deadline_ms,
            staleness_decay: self.staleness_decay,
            churn: if self.churn_up_ms > 0.0 && self.churn_down_ms > 0.0 {
                Some(ChurnPlan {
                    mean_up_ms: self.churn_up_ms,
                    mean_down_ms: self.churn_down_ms,
                })
            } else {
                None
            },
            max_concurrency: self.max_concurrency,
            ..SimPlan::default()
        }
    }
}

impl RunOptions {
    /// Effective checkpoint cadence.
    fn effective_checkpoint_every(&self) -> usize {
        if self.checkpoint_every == 0 {
            5
        } else {
            self.checkpoint_every
        }
    }
}

/// Population metrics at one evaluation point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundMetrics {
    /// Round index (1-based: after this many completed rounds).
    pub round: usize,
    /// Mean Benign AC across benign clients.
    pub benign_accuracy: f64,
    /// Mean Attack SR across benign clients.
    pub attack_success_rate: f64,
}

/// Everything a scenario run produces.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The configuration that produced this report.
    pub config: ScenarioConfig,
    /// Ids of the compromised clients.
    pub compromised: Vec<usize>,
    /// Population metrics at each evaluation point.
    pub rounds: Vec<RoundMetrics>,
    /// Per-client metrics of the final evaluation point (benign clients
    /// only).
    pub clients: Vec<ClientMetrics>,
    /// Fig. 12-style cluster analysis (empty when no attack ran).
    pub clusters: Vec<ClusterReport>,
    /// Per-round records (updates kept when `collect_updates`).
    pub records: Vec<RoundRecord>,
    /// The Trojaned model X, when the attack trained one.
    pub trojan: Option<TrojanedModel>,
    /// Final global model parameters.
    pub final_global: Vec<f32>,
    /// Per-phase wall-clock breakdown of the run's round loop.
    pub profile: PhaseProfile,
    /// FNV-1a over the run's canonical (wall-clock- and worker-count-
    /// invariant) trace-event JSON lines — the digest the grid
    /// conformance harness pins against golden fixtures.
    pub event_hash: u64,
    /// Number of trace events folded into `event_hash`.
    pub event_count: u64,
    /// Residency counters of the lazy cohort backing (`None` on eager
    /// runs). Hit/miss/eviction tallies depend on the order clients touch
    /// their shards, which at more than one worker is the lanes' schedule:
    /// they are diagnostics, not part of the run's deterministic output
    /// (DESIGN.md §14). `resident_bytes` is what the cohort-scale budget
    /// test asserts against.
    pub shard_stats: Option<ShardStats>,
}

impl ScenarioReport {
    /// The last evaluation point.
    ///
    /// # Panics
    ///
    /// Panics if the scenario ran zero evaluation points (rounds = 0).
    pub fn final_round(&self) -> &RoundMetrics {
        self.rounds
            .last()
            .expect("scenario ran at least one evaluation")
    }

    /// Population metrics over all benign clients at the end.
    pub fn population(&self) -> PopulationMetrics {
        population(&self.clients)
    }

    /// Population metrics over the top-k% most affected clients (Eq. 8).
    pub fn top_k(&self, k: f64) -> PopulationMetrics {
        population(&top_k_percent(&self.clients, k))
    }
}

/// One experiment cell, ready to run.
#[derive(Debug, Clone)]
pub struct Scenario {
    cfg: ScenarioConfig,
}

impl Scenario {
    /// Creates the scenario.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &ScenarioConfig {
        &self.cfg
    }

    /// Generates the raw (un-partitioned) dataset for this configuration.
    pub fn generate_dataset(&self) -> Dataset {
        let samples = self.cfg.num_clients * self.cfg.samples_per_client;
        match self.cfg.dataset {
            DatasetKind::Image => SyntheticImage::new(SyntheticImageConfig {
                side: IMAGE_SIDE,
                classes: IMAGE_CLASSES,
                samples,
                noise: 0.05,
                max_shift: 1,
                seed: self.cfg.seed,
            })
            .generate(),
            DatasetKind::Text => SyntheticText::new(SyntheticTextConfig {
                dim: TEXT_DIM,
                classes: TEXT_CLASSES,
                clusters_per_class: 3,
                samples,
                noise: 0.6,
                seed: self.cfg.seed,
            })
            .generate(),
        }
    }

    /// Runs the scenario end to end with default execution options
    /// (sequential, no trace file, no checkpoints).
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations (zero rounds, bad rates — see
    /// [`FlConfig::validate`]).
    pub fn run(&self) -> ScenarioReport {
        self.run_with(&RunOptions::default())
    }

    /// Runs the scenario end to end under the given execution options.
    ///
    /// # Panics
    ///
    /// Panics on invalid configurations, on trace/checkpoint I/O errors,
    /// and when `opts.resume` finds a snapshot from a different
    /// configuration.
    pub fn run_with(&self, opts: &RunOptions) -> ScenarioReport {
        let cfg = &self.cfg;
        let spec = cfg.model_spec();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5CE0);

        // 1. Data. The lazy path never pools a global dataset: shards are
        // a pure function of (seed, client_id), so the cohort engine
        // materializes clients on first touch under the byte budget. It
        // consumes no draws from `rng` here, which puts the compromised
        // shuffle below on a different stream position than the eager
        // path — lazy cohorts are a new scenario family at new scales,
        // not a re-expression of a pinned eager one.
        let fed = if cfg.uses_lazy_cohort() {
            FederatedDataset::lazy(cfg.shard_spec(), cfg.num_clients, cfg.shard_budget_bytes())
        } else {
            let dataset = self.generate_dataset();
            FederatedDataset::build(&mut rng, &dataset, cfg.num_clients, cfg.alpha)
        };

        // 2. Compromised clients (uniformly random, per the paper).
        let n_comp = cfg.num_compromised();
        let mut ids: Vec<usize> = (0..cfg.num_clients).collect();
        ids.shuffle(&mut rng);
        let mut compromised: Vec<usize> = ids.into_iter().take(n_comp).collect();
        compromised.sort_unstable();

        // 3. Trigger + auxiliary data + Trojaned model X where needed.
        let trigger = cfg.build_trigger();
        let aux = auxiliary_data(&fed, &compromised);
        let trojan = match cfg.attack {
            AttackKind::CollaPois if !compromised.is_empty() => {
                Some(train_trojan(&spec, &aux, trigger.as_ref(), &cfg.trojan))
            }
            _ => None,
        };
        // The semantic backdoor's region is fit once on the attacker's
        // auxiliary data; it doubles as the Attack-SR evaluator (clean
        // in-region samples). Every other attack evaluates through the
        // trigger. With no compromised clients `aux` is empty, there is
        // nothing to fit, and the trigger evaluator is used unchanged.
        let semantic = match cfg.attack {
            AttackKind::Semantic if !aux.is_empty() => Some(SemanticRegion::fit(
                &aux,
                semantic_source_class(cfg.trojan.target_class, aux.num_classes()),
                cfg.trojan.target_class,
                0.5,
                cfg.seed ^ 0x5E3A,
            )),
            _ => None,
        };
        let trigger_eval = TriggerBackdoor(trigger.as_ref());
        let backdoor: &dyn BackdoorEval = match &semantic {
            Some(region) => region,
            None => &trigger_eval,
        };

        // 4. Adversary.
        let mut adversary: Option<Box<dyn Adversary>> = self.build_adversary(
            &fed,
            &compromised,
            trigger.as_ref(),
            trojan.as_ref(),
            semantic.as_ref(),
            &spec,
        );

        // 5. Server with defense + personalization.
        let fl_cfg = FlConfig {
            model: spec.clone(),
            rounds: cfg.rounds,
            local_steps: cfg.local_steps,
            batch_size: cfg.batch_size,
            client_lr: cfg.client_lr,
            server_lr: cfg.server_lr,
            sample_rate: cfg.sample_rate,
            seed: cfg.seed,
            eval_every: cfg.eval_every,
            quantization: cfg.quantization,
        };
        let aggregator = self.build_aggregator(&compromised);
        let personalization = self.build_personalization();
        let mut server = FlServer::new(fl_cfg, fed, aggregator, personalization);
        server.collect_updates(cfg.collect_updates);
        // Fine-Pruning is a post-aggregation hook of the cohort step, so it
        // runs after every synchronous round and every buffered flush.
        if opts.sim.is_some() {
            cfg.defense.check_sim().unwrap_or_else(|e| panic!("{e}"));
        }
        if cfg.defense == DefenseKind::FinePrune {
            let p = &cfg.defense_params;
            server.enable_fine_pruning(p.fp_fraction, p.fp_every);
        }
        if opts.workers > 1 {
            server.set_workers(opts.workers);
        }
        if let Some(path) = &opts.trace_path {
            server
                .trace_to_file(path)
                .unwrap_or_else(|e| panic!("cannot open trace file {path:?}: {e}"));
        }
        if opts.monitor {
            server.enable_monitor(ShiftDetector::default_paper());
        }
        // The fault plan participates in the config hash, so it must be
        // installed before any resume attempt.
        server.set_fault_plan(opts.fault);
        if let Some(dir) = &opts.checkpoint_dir {
            if opts.sim.is_none() {
                server.enable_checkpoints(dir, opts.effective_checkpoint_every());
                if opts.resume {
                    server
                        .resume_latest(dir)
                        .unwrap_or_else(|e| panic!("cannot resume from {dir:?}: {e}"));
                }
            }
        }

        // 6. Round loop with periodic evaluation (starting past any
        // checkpointed rounds when resuming), or the buffered-async
        // simulator with one final evaluation point. Either way the last
        // evaluation point is at the final state, and `clients` keeps its
        // per-client metrics.
        let evaluate = |server: &mut FlServer, points: &mut Vec<RoundMetrics>| {
            let metrics =
                server.evaluate_clients(&spec, backdoor, cfg.trojan.target_class, &compromised);
            let pop = population(&metrics);
            points.push(RoundMetrics {
                round: server.rounds_done(),
                benign_accuracy: pop.benign_ac,
                attack_success_rate: pop.attack_sr,
            });
            metrics
        };
        let start_round = server.rounds_done();
        let mut records = Vec::with_capacity(cfg.rounds.saturating_sub(start_round));
        let mut round_metrics = Vec::new();
        let mut clients = Vec::new();
        if let Some(knobs) = &opts.sim {
            let plan = knobs.to_plan(cfg.num_clients);
            let adv = adversary.as_deref_mut();
            server.run_sim(&plan, cfg.rounds, adv);
            records = round_records_from_events(server.trace_events());
            clients = evaluate(&mut server, &mut round_metrics);
        } else {
            for t in start_round..cfg.rounds {
                let adv = adversary.as_deref_mut();
                records.push(server.run_round(adv));
                if (t + 1) % cfg.eval_every == 0 || t + 1 == cfg.rounds {
                    clients = evaluate(&mut server, &mut round_metrics);
                }
            }
        }

        server.finish_run();

        // A resume that finds the run already complete executes no rounds;
        // still report one evaluation point so downstream consumers see
        // final metrics.
        if round_metrics.is_empty() {
            clients = evaluate(&mut server, &mut round_metrics);
        }

        // 7. Cluster analysis over the final evaluation point's client-level
        // metrics; the label counts it reads were memoized by that pass.
        let clusters = if compromised.is_empty() {
            Vec::new()
        } else {
            cluster_analysis(server.dataset(), &clients, &aux)
        };

        let (event_hash, event_count) = hash_canonical_events(server.trace_events());
        let shard_stats = server.dataset().shard_stats();
        ScenarioReport {
            config: cfg.clone(),
            compromised,
            rounds: round_metrics,
            clients,
            clusters,
            records,
            trojan,
            final_global: server.global().to_vec(),
            profile: server.take_profile(),
            event_hash,
            event_count,
            shard_stats,
        }
    }

    fn build_personalization(&self) -> Box<dyn Personalization> {
        match self.cfg.algo {
            FlAlgo::FedAvg => Box::new(NoPersonalization::new()),
            FlAlgo::FedDc => Box::new(FedDc::new(1.0)),
            FlAlgo::MetaFed => Box::new(MetaFed::new(2.0, 2)),
            FlAlgo::Ditto => Box::new(Ditto::new(0.5)),
            FlAlgo::Clustered => Box::new(Clustered::new(3)),
            FlAlgo::Scaffold => Box::new(Scaffold::new()),
        }
    }

    fn build_aggregator(&self, compromised: &[usize]) -> Box<dyn Aggregator> {
        let p = &self.cfg.defense_params;
        let expected_cohort =
            ((self.cfg.num_clients as f64 * self.cfg.sample_rate).round() as usize).max(1);
        match self.cfg.defense {
            DefenseKind::None => Box::new(FedAvg::new()),
            DefenseKind::Dp => Box::new(DpAggregator::new(p.dp_clip, p.dp_noise)),
            DefenseKind::NormBound => Box::new(NormBound::new(p.nb_bound).with_noise(p.nb_noise)),
            DefenseKind::Krum => Box::new(Krum::new(compromised.len().max(1))),
            DefenseKind::Rlr => Box::new(RobustLearningRate::new(
                ((expected_cohort as f64 * p.rlr_frac).round() as usize).max(1),
            )),
            DefenseKind::Median => Box::new(CoordinateMedian::new()),
            DefenseKind::TrimmedMean => Box::new(TrimmedMean::new(p.trim_beta)),
            DefenseKind::SignSgd => Box::new(SignSgd::new(p.sign_step)),
            DefenseKind::Flare => Box::new(Flare::new(p.flare_sharpness)),
            DefenseKind::Crfl => Box::new(Crfl::new(p.crfl_bound, p.crfl_noise)),
            DefenseKind::StatFilter => Box::new(StatFilter::new()),
            DefenseKind::UserDp => Box::new(UserLevelDp::new(p.dp_clip, 0.05)),
            // Fine-Pruning aggregates like FedAvg; the pruning itself is an
            // in-training server hook (see `FlServer::enable_fine_pruning`).
            DefenseKind::FinePrune => Box::new(FedAvg::new()),
        }
    }

    fn build_adversary(
        &self,
        fed: &FederatedDataset,
        compromised: &[usize],
        trigger: &dyn Trigger,
        trojan: Option<&TrojanedModel>,
        semantic: Option<&SemanticRegion>,
        spec: &ModelSpec,
    ) -> Option<Box<dyn Adversary>> {
        if compromised.is_empty() {
            return None;
        }
        let cfg = &self.cfg;
        let local_cfg = LocalTrainConfig {
            steps: cfg.local_steps,
            batch_size: cfg.batch_size,
            lr: cfg.client_lr,
        };
        // Only the baselines train on their clients' data.
        let local_data = || -> Vec<Dataset> {
            compromised
                .iter()
                .map(|&c| fed.client(c).train.clone())
                .collect()
        };
        let ids = compromised.to_vec();
        let target = cfg.trojan.target_class;
        let poison = cfg.poison_fraction;
        Some(match cfg.attack {
            AttackKind::None => return None,
            AttackKind::CollaPois => {
                let x = trojan
                    .expect("CollaPois requires a Trojaned model")
                    .params
                    .clone();
                Box::new(CollaPois::new(ids, x, cfg.collapois))
            }
            AttackKind::DPois => Box::new(DPois::new(
                ids,
                &local_data(),
                trigger,
                target,
                poison,
                spec,
                local_cfg,
                cfg.seed ^ 0xD901,
            )),
            AttackKind::LabelFlip => Box::new(LabelFlip::new(
                ids,
                &local_data(),
                spec,
                local_cfg,
                cfg.seed ^ 0x1F11,
            )),
            AttackKind::Semantic => Box::new(SemanticAttack::new(
                ids,
                &local_data(),
                semantic.expect("semantic attack requires a fitted region"),
                spec,
                local_cfg,
                cfg.seed ^ 0x5E3A,
            )),
            AttackKind::MRepl => {
                let expected_cohort = (cfg.num_clients as f64 * cfg.sample_rate).round().max(1.0);
                let expected_malicious = (compromised.len() as f64 * cfg.sample_rate)
                    .round()
                    .max(1.0);
                let boost =
                    (expected_cohort / (cfg.server_lr * expected_malicious)).clamp(1.0, 50.0);
                Box::new(MRepl::new(
                    ids,
                    &local_data(),
                    trigger,
                    target,
                    poison,
                    spec,
                    local_cfg,
                    boost,
                    cfg.seed ^ 0x39E1,
                ))
            }
            // Text has no spatial decomposition: DBA degenerates to DPois
            // with the term trigger (documented limitation).
            AttackKind::Dba if cfg.dataset == DatasetKind::Text => Box::new(DPois::new(
                ids,
                &local_data(),
                trigger,
                target,
                poison,
                spec,
                local_cfg,
                cfg.seed ^ 0xDBA,
            )),
            AttackKind::Dba => Box::new(DbaAttack::new(
                ids,
                &local_data(),
                &DbaTrigger::new(IMAGE_SIDE, 2, 1.0),
                target,
                poison,
                spec,
                local_cfg,
                cfg.seed ^ 0xDBA,
            )),
        })
    }
}

/// Source class the semantic backdoor hijacks: the class after the attack's
/// target, wrapping — the two must differ and both must exist in the
/// scenario's label space.
pub fn semantic_source_class(target_class: usize, num_classes: usize) -> usize {
    assert!(num_classes >= 2, "semantic backdoor needs two classes");
    (target_class + 1) % num_classes
}

/// The attacker's auxiliary data `D_a` at this simulation scale: the
/// compromised clients' full local data, each client's train, test and val
/// splits in that order (the paper pools validation splits of thousands of
/// clients; with tens of clients the validation splits alone are too small
/// to train X — documented in DESIGN.md §1).
pub fn auxiliary_data(fed: &FederatedDataset, compromised: &[usize]) -> Dataset {
    let mut aux = Dataset::empty(fed.sample_shape(), fed.num_classes());
    for &c in compromised {
        let data = fed.client(c);
        for split in [&data.train, &data.test, &data.val] {
            aux.extend_from(split);
        }
    }
    aux
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(attack: AttackKind, defense: DefenseKind, algo: FlAlgo) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
        cfg.num_clients = 12;
        cfg.samples_per_client = 25;
        cfg.rounds = 6;
        cfg.eval_every = 3;
        cfg.sample_rate = 0.5;
        cfg.trojan.epochs = 10;
        cfg.attack = attack;
        cfg.defense = defense;
        cfg.algo = algo;
        cfg
    }

    #[test]
    fn auxiliary_data_pools_full_local_data() {
        let scenario = Scenario::new(tiny(
            AttackKind::CollaPois,
            DefenseKind::None,
            FlAlgo::FedAvg,
        ));
        let mut rng = StdRng::seed_from_u64(scenario.cfg.seed);
        let fed = FederatedDataset::build(
            &mut rng,
            &scenario.generate_dataset(),
            scenario.cfg.num_clients,
            scenario.cfg.alpha,
        );
        let aux = auxiliary_data(&fed, &[1, 4]);
        assert_eq!(aux.len(), fed.client(1).len() + fed.client(4).len());
        assert!(auxiliary_data(&fed, &[]).is_empty());
    }

    #[test]
    fn clean_scenario_learns() {
        let mut cfg = tiny(AttackKind::None, DefenseKind::None, FlAlgo::FedAvg);
        cfg.rounds = 15;
        let report = Scenario::new(cfg).run();
        assert!(report.compromised.is_empty());
        assert!(report.trojan.is_none());
        assert!(report.clusters.is_empty());
        let last = report.final_round();
        assert!(
            last.benign_accuracy > 0.5,
            "clean FL should learn: AC={}",
            last.benign_accuracy
        );
    }

    #[test]
    fn collapois_scenario_produces_full_report() {
        let report = Scenario::new(tiny(
            AttackKind::CollaPois,
            DefenseKind::None,
            FlAlgo::FedAvg,
        ))
        .run();
        assert_eq!(report.compromised.len(), 4); // floor of 4
        let x = report.trojan.as_ref().expect("X trained");
        assert!(
            x.trigger_success > 0.5,
            "X trigger success {}",
            x.trigger_success
        );
        assert_eq!(report.clients.len(), 12 - 4);
        assert!(!report.clusters.is_empty());
        assert_eq!(report.rounds.len(), 2); // evals at rounds 3 and 6
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = tiny(AttackKind::CollaPois, DefenseKind::None, FlAlgo::FedAvg);
        let a = Scenario::new(cfg.clone()).run();
        let b = Scenario::new(cfg).run();
        assert_eq!(a.final_global, b.final_global);
        assert_eq!(a.compromised, b.compromised);
        assert_eq!((a.event_hash, a.event_count), (b.event_hash, b.event_count));
        assert!(a.event_count > 0, "trace must carry events");
    }

    #[test]
    fn num_compromised_has_floor_and_cap() {
        let mut cfg = ScenarioConfig::quick_image(1.0, 0.001);
        assert_eq!(cfg.num_compromised(), 4); // floor
        cfg.compromised_frac = 0.9;
        assert_eq!(cfg.num_compromised(), cfg.num_clients / 2); // cap
        cfg.compromised_frac = 0.0;
        assert_eq!(cfg.num_compromised(), 0);
        cfg.compromised_frac = 0.1;
        cfg.attack = AttackKind::None;
        assert_eq!(cfg.num_compromised(), 0);
    }

    #[test]
    fn baseline_attacks_run() {
        for attack in [
            AttackKind::DPois,
            AttackKind::MRepl,
            AttackKind::Dba,
            AttackKind::LabelFlip,
        ] {
            let report = Scenario::new(tiny(attack, DefenseKind::None, FlAlgo::FedAvg)).run();
            assert!(!report.compromised.is_empty(), "{:?}", attack);
            assert!(report.trojan.is_none());
        }
    }

    #[test]
    fn defenses_and_algos_run() {
        for defense in [DefenseKind::Krum, DefenseKind::Dp] {
            let report = Scenario::new(tiny(AttackKind::CollaPois, defense, FlAlgo::FedAvg)).run();
            assert_eq!(report.rounds.len(), 2);
        }
        for algo in [FlAlgo::FedDc, FlAlgo::MetaFed, FlAlgo::Ditto] {
            let report = Scenario::new(tiny(AttackKind::CollaPois, DefenseKind::None, algo)).run();
            assert_eq!(report.rounds.len(), 2, "{:?}", algo);
        }
    }

    #[test]
    fn semantic_fine_prune_and_scaffold_arms_run() {
        // Semantic backdoor: no Trojan, no trigger; Attack SR is measured
        // on clean in-region samples and must stay a valid rate.
        let report = Scenario::new(tiny(
            AttackKind::Semantic,
            DefenseKind::None,
            FlAlgo::FedAvg,
        ))
        .run();
        assert!(!report.compromised.is_empty());
        assert!(report.trojan.is_none());
        let sr = report.final_round().attack_success_rate;
        assert!((0.0..=1.0).contains(&sr), "semantic SR {sr}");
        // In-training fine-pruning: FedAvg aggregation + the pruning hook
        // (fp_every = 2 fires at rounds 2, 4 and 6 here).
        let report = Scenario::new(tiny(
            AttackKind::Semantic,
            DefenseKind::FinePrune,
            FlAlgo::FedAvg,
        ))
        .run();
        assert_eq!(report.rounds.len(), 2);
        assert!(report.final_global.iter().all(|v| v.is_finite()));
        // SCAFFOLD trains through the corrected local step.
        let report = Scenario::new(tiny(
            AttackKind::CollaPois,
            DefenseKind::None,
            FlAlgo::Scaffold,
        ))
        .run();
        assert_eq!(report.rounds.len(), 2);
    }

    #[test]
    fn text_scenario_runs() {
        let mut cfg = tiny(AttackKind::CollaPois, DefenseKind::None, FlAlgo::FedAvg);
        cfg.dataset = DatasetKind::Text;
        let report = Scenario::new(cfg).run();
        assert!(report.final_round().benign_accuracy > 0.0);
    }

    #[test]
    fn cnn_scenario_runs() {
        let mut cfg = tiny(AttackKind::CollaPois, DefenseKind::None, FlAlgo::FedAvg);
        cfg.model_kind = ScenarioModel::Cnn;
        cfg.rounds = 4;
        cfg.eval_every = 4;
        let report = Scenario::new(cfg).run();
        assert!(report.final_global.iter().all(|v| v.is_finite()));
        assert_eq!(report.rounds.len(), 1);
    }

    /// A 4-flush sim run of the tiny scenario under `defense`.
    fn tiny_sim(defense: DefenseKind) -> (ScenarioConfig, RunOptions) {
        let mut cfg = tiny(AttackKind::CollaPois, defense, FlAlgo::FedAvg);
        cfg.rounds = 4; // flush target in sim mode
        let opts = RunOptions {
            sim: Some(SimKnobs {
                arrival_mean_ms: 20.0,
                train_mean_ms: 30.0,
                buffer_k: 4,
                max_concurrency: 8,
                ..SimKnobs::default()
            }),
            ..RunOptions::default()
        };
        (cfg, opts)
    }

    #[test]
    fn sim_mode_runs_fine_pruning() {
        let run = |defense| {
            let (cfg, opts) = tiny_sim(defense);
            Scenario::new(cfg).run_with(&opts).final_global
        };
        assert_ne!(run(DefenseKind::None), run(DefenseKind::FinePrune));
    }

    #[test]
    #[should_panic(expected = "replaces the aggregator")]
    fn sim_mode_rejects_aggregator_defenses() {
        let (cfg, opts) = tiny_sim(DefenseKind::Krum);
        Scenario::new(cfg).run_with(&opts);
    }

    #[test]
    fn sim_mode_runs_and_is_deterministic() {
        let (cfg, opts) = tiny_sim(DefenseKind::None);
        let a = Scenario::new(cfg.clone()).run_with(&opts);
        assert_eq!(a.records.len(), 4, "each flush plays a round");
        assert!(a.final_global.iter().all(|v| v.is_finite()));
        assert_eq!(a.rounds.len(), 1, "sim mode evaluates once, at the end");
        let b = Scenario::new(cfg).run_with(&opts);
        assert_eq!(a.final_global, b.final_global);
    }

    #[test]
    fn top_k_at_least_population_sr() {
        let report = Scenario::new(tiny(
            AttackKind::CollaPois,
            DefenseKind::None,
            FlAlgo::FedAvg,
        ))
        .run();
        let all = report.population();
        let top = report.top_k(25.0);
        assert!(top.attack_sr + 1e-9 >= all.attack_sr);
    }
}
