//! The versioned scenario-matrix schema.
//!
//! A scenario file is a TOML document (see [`crate::toml`] for the accepted
//! subset) describing a *grid* of experiment cells:
//!
//! ```toml
//! schema_version = 1
//! name = "smoke"
//!
//! [run]
//! workers = 2               # default --workers for this grid
//!
//! [base]                    # every cell starts from these settings
//! clients = 12
//! alpha = 1.0
//! rounds = 4
//!
//! [axes]                    # cross-product axes, in file order
//! attack = ["collapois", "label-flip"]
//! defense = ["norm-bound", "krum"]
//!
//! [variants.plain]          # named overlays, appended as the last axis
//! [variants.faulted]
//! fault.dropout = 0.2
//! ```
//!
//! Every key is validated against a closed vocabulary — unknown keys,
//! wrong types and out-of-range values are typed [`SchemaError`]s, never
//! silent defaults. Unset keys fall back to the documented defaults of
//! [`ScenarioConfig::quick_image`], [`FaultPlan::none`] and
//! [`SimKnobs::default`], so a file states only what a cell changes.
//!
//! Expansion order is deterministic: the odometer runs the *last* axis
//! fastest, with the variant list (file order) as the final axis; cell ids
//! (`attack=collapois+defense=krum+variant=faulted`) and config hashes are
//! therefore stable across machines and runs — the property the grid
//! conformance harness pins against golden fixtures.

use crate::toml::{self, fmt_float, TomlError, TomlTable, TomlValue};
use collapois_core::scenario::{
    AttackKind, CohortMode, DatasetKind, DefenseKind, FlAlgo, Quantization, ScenarioConfig,
    ScenarioModel, SimKnobs,
};
use collapois_runtime::checkpoint::fnv1a;
use collapois_runtime::fault::FaultPlan;

/// The schema revision this build reads and writes.
pub const SCHEMA_VERSION: i64 = 1;

/// A typed schema violation.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The document is not parseable TOML (subset).
    Toml(TomlError),
    /// `schema_version` is missing or not one this build understands.
    UnsupportedVersion {
        /// The version the file declared (`None` = missing).
        found: Option<i64>,
    },
    /// A required top-level key is absent.
    MissingKey {
        /// Dotted path of the missing key.
        path: String,
    },
    /// A key outside the schema vocabulary.
    UnknownKey {
        /// Dotted path of the offending key.
        path: String,
    },
    /// A key holds a value of the wrong TOML type.
    WrongType {
        /// Dotted path of the offending key.
        path: String,
        /// What the schema expects there.
        expected: &'static str,
        /// What the file actually holds.
        found: &'static str,
    },
    /// A value parses but violates its domain (α ≤ 0, frac > 1, …).
    OutOfRange {
        /// Dotted path of the offending key.
        path: String,
        /// The domain violation.
        message: String,
    },
    /// An `[axes]` entry with no values to iterate.
    EmptyAxis {
        /// The axis key.
        path: String,
    },
    /// A resolved cell fails cross-field validation.
    InvalidCell {
        /// The cell's id.
        cell: String,
        /// What is inconsistent.
        message: String,
    },
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Toml(e) => write!(f, "TOML error: {e}"),
            Self::UnsupportedVersion { found: Some(v) } => write!(
                f,
                "unsupported schema_version {v} (this build reads version {SCHEMA_VERSION})"
            ),
            Self::UnsupportedVersion { found: None } => {
                write!(f, "missing schema_version (expected {SCHEMA_VERSION})")
            }
            Self::MissingKey { path } => write!(f, "missing required key '{path}'"),
            Self::UnknownKey { path } => write!(f, "unknown key '{path}'"),
            Self::WrongType {
                path,
                expected,
                found,
            } => write!(f, "key '{path}': expected {expected}, found {found}"),
            Self::OutOfRange { path, message } => write!(f, "key '{path}': {message}"),
            Self::EmptyAxis { path } => write!(f, "axis '{path}' has no values"),
            Self::InvalidCell { cell, message } => write!(f, "cell '{cell}': {message}"),
        }
    }
}

impl std::error::Error for SchemaError {}

impl From<TomlError> for SchemaError {
    fn from(e: TomlError) -> Self {
        Self::Toml(e)
    }
}

/// One fully resolved cell configuration: the scenario plus the execution-
/// engine knobs the schema exposes.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The experiment configuration.
    pub config: ScenarioConfig,
    /// Fault-injection plan (all-zero = no faults).
    pub fault: FaultPlan,
    /// Run under the buffered-async discrete-event simulator.
    pub sim_enabled: bool,
    /// Simulator knobs (used only when `sim_enabled`).
    pub sim: SimKnobs,
}

impl Default for CellSpec {
    fn default() -> Self {
        Self {
            config: ScenarioConfig::quick_image(1.0, 0.1),
            fault: FaultPlan::none(),
            sim_enabled: false,
            sim: SimKnobs::default(),
        }
    }
}

/// Every settable key, in canonical order. Kept as one table so the setter,
/// the canonical dump and the vocabulary check can never drift apart.
pub const CELL_KEYS: &[&str] = &[
    "dataset",
    "clients",
    "samples_per_client",
    "alpha",
    "compromised_frac",
    "attack",
    "defense",
    "algo",
    "model",
    "rounds",
    "local_steps",
    "batch_size",
    "client_lr",
    "server_lr",
    "sample_rate",
    "eval_every",
    "seed",
    "poison_fraction",
    "trojan_epochs",
    "quantization",
    "cohort",
    "shard_budget_mb",
    "fault.dropout",
    "fault.straggler",
    "fault.straggler_mean_ms",
    "fault.deadline_ms",
    "fault.corrupt",
    "fault.checkpoint_fail",
    "sim.enabled",
    "sim.arrival_mean_ms",
    "sim.train_mean_ms",
    "sim.buffer_k",
    "sim.flush_deadline_ms",
    "sim.staleness_decay",
    "sim.churn_up_ms",
    "sim.churn_down_ms",
    "sim.max_concurrency",
];

fn wrong_type(path: &str, expected: &'static str, v: &TomlValue) -> SchemaError {
    SchemaError::WrongType {
        path: path.to_string(),
        expected,
        found: v.type_name(),
    }
}

fn out_of_range(path: &str, message: impl Into<String>) -> SchemaError {
    SchemaError::OutOfRange {
        path: path.to_string(),
        message: message.into(),
    }
}

fn as_str<'v>(path: &str, v: &'v TomlValue) -> Result<&'v str, SchemaError> {
    match v {
        TomlValue::Str(s) => Ok(s),
        other => Err(wrong_type(path, "string", other)),
    }
}

fn as_bool(path: &str, v: &TomlValue) -> Result<bool, SchemaError> {
    match v {
        TomlValue::Bool(b) => Ok(*b),
        other => Err(wrong_type(path, "boolean", other)),
    }
}

/// Integers stay integers; a float is rejected even when integral, so a
/// typo like `rounds = 4.5` cannot silently truncate.
fn as_count(path: &str, v: &TomlValue, min: usize) -> Result<usize, SchemaError> {
    match v {
        TomlValue::Int(i) if *i >= min as i64 => Ok(*i as usize),
        TomlValue::Int(i) => Err(out_of_range(
            path,
            format!("{i} is below the minimum {min}"),
        )),
        other => Err(wrong_type(path, "integer", other)),
    }
}

fn as_u64(path: &str, v: &TomlValue) -> Result<u64, SchemaError> {
    match v {
        TomlValue::Int(i) if *i >= 0 => Ok(*i as u64),
        TomlValue::Int(i) => Err(out_of_range(path, format!("{i} must be non-negative"))),
        other => Err(wrong_type(path, "integer", other)),
    }
}

/// Floats accept integer literals too (`alpha = 1` means `1.0`).
fn as_float(path: &str, v: &TomlValue) -> Result<f64, SchemaError> {
    match v {
        TomlValue::Float(f) => Ok(*f),
        TomlValue::Int(i) => Ok(*i as f64),
        other => Err(wrong_type(path, "float", other)),
    }
}

fn float_in(
    path: &str,
    v: &TomlValue,
    lo: f64,
    hi: f64,
    lo_open: bool,
) -> Result<f64, SchemaError> {
    let f = as_float(path, v)?;
    let lo_ok = if lo_open { f > lo } else { f >= lo };
    if lo_ok && f <= hi {
        Ok(f)
    } else {
        let bracket = if lo_open { '(' } else { '[' };
        Err(out_of_range(
            path,
            format!("{f} is outside {bracket}{lo}, {hi}]"),
        ))
    }
}

fn float_min(path: &str, v: &TomlValue, lo: f64, lo_open: bool) -> Result<f64, SchemaError> {
    let f = as_float(path, v)?;
    let ok = if lo_open { f > lo } else { f >= lo };
    if ok {
        Ok(f)
    } else {
        let rel = if lo_open { ">" } else { "≥" };
        Err(out_of_range(path, format!("{f} must be {rel} {lo}")))
    }
}

/// Parses an attack name (accepts the `lflip` shorthand).
pub fn parse_attack(path: &str, name: &str) -> Result<AttackKind, SchemaError> {
    Ok(match name {
        "clean" | "none" => AttackKind::None,
        "collapois" => AttackKind::CollaPois,
        "dpois" => AttackKind::DPois,
        "mrepl" => AttackKind::MRepl,
        "dba" => AttackKind::Dba,
        "label-flip" | "lflip" => AttackKind::LabelFlip,
        "semantic" => AttackKind::Semantic,
        other => {
            return Err(out_of_range(
                path,
                format!(
                    "unknown attack '{other}' \
                     (clean|collapois|dpois|mrepl|dba|label-flip|semantic)"
                ),
            ))
        }
    })
}

/// Parses a defense name (accepts the `fine_prune` underscore spelling for
/// `fine-prune`).
pub fn parse_defense(path: &str, name: &str) -> Result<DefenseKind, SchemaError> {
    let name = if name == "fine_prune" {
        "fine-prune"
    } else {
        name
    };
    DefenseKind::all()
        .iter()
        .copied()
        .find(|d| d.name() == name)
        .ok_or_else(|| {
            let all: Vec<&str> = DefenseKind::all().iter().map(|d| d.name()).collect();
            out_of_range(
                path,
                format!("unknown defense '{name}' ({})", all.join("|")),
            )
        })
}

/// Parses an FL-algorithm name.
pub fn parse_algo(path: &str, name: &str) -> Result<FlAlgo, SchemaError> {
    Ok(match name {
        "fedavg" => FlAlgo::FedAvg,
        "feddc" => FlAlgo::FedDc,
        "metafed" => FlAlgo::MetaFed,
        "ditto" => FlAlgo::Ditto,
        "clustered" => FlAlgo::Clustered,
        "scaffold" => FlAlgo::Scaffold,
        other => {
            return Err(out_of_range(
                path,
                format!("unknown algo '{other}' (fedavg|feddc|metafed|ditto|clustered|scaffold)"),
            ))
        }
    })
}

/// Parses a cohort-materialization mode name.
pub fn parse_cohort(path: &str, name: &str) -> Result<CohortMode, SchemaError> {
    Ok(match name {
        "auto" => CohortMode::Auto,
        "eager" => CohortMode::Eager,
        "lazy" => CohortMode::Lazy,
        other => {
            return Err(out_of_range(
                path,
                format!("unknown cohort mode '{other}' (auto|eager|lazy)"),
            ))
        }
    })
}

/// Parses a client-update transport codec name.
pub fn parse_quantization(path: &str, name: &str) -> Result<Quantization, SchemaError> {
    Quantization::parse(name).ok_or_else(|| {
        out_of_range(
            path,
            format!("unknown quantization '{name}' (f32|f16|int8)"),
        )
    })
}

impl CellSpec {
    /// Applies one `key = value` assignment.
    ///
    /// # Errors
    ///
    /// [`SchemaError::UnknownKey`] for keys outside [`CELL_KEYS`],
    /// [`SchemaError::WrongType`]/[`SchemaError::OutOfRange`] for bad
    /// values.
    pub fn apply(&mut self, path: &str, value: &TomlValue) -> Result<(), SchemaError> {
        let c = &mut self.config;
        match path {
            "dataset" => {
                c.dataset = match as_str(path, value)? {
                    "image" => DatasetKind::Image,
                    "text" => DatasetKind::Text,
                    other => {
                        return Err(out_of_range(
                            path,
                            format!("unknown dataset '{other}' (image|text)"),
                        ))
                    }
                }
            }
            "clients" => c.num_clients = as_count(path, value, 2)?,
            "samples_per_client" => c.samples_per_client = as_count(path, value, 1)?,
            "alpha" => c.alpha = float_min(path, value, 0.0, true)?,
            "compromised_frac" => c.compromised_frac = float_in(path, value, 0.0, 1.0, false)?,
            "attack" => c.attack = parse_attack(path, as_str(path, value)?)?,
            "defense" => c.defense = parse_defense(path, as_str(path, value)?)?,
            "algo" => c.algo = parse_algo(path, as_str(path, value)?)?,
            "model" => {
                c.model_kind = match as_str(path, value)? {
                    "mlp" => ScenarioModel::Mlp,
                    "cnn" => ScenarioModel::Cnn,
                    other => {
                        return Err(out_of_range(
                            path,
                            format!("unknown model '{other}' (mlp|cnn)"),
                        ))
                    }
                }
            }
            "rounds" => c.rounds = as_count(path, value, 1)?,
            "local_steps" => c.local_steps = as_count(path, value, 1)?,
            "batch_size" => c.batch_size = as_count(path, value, 1)?,
            "client_lr" => c.client_lr = float_min(path, value, 0.0, true)?,
            "server_lr" => c.server_lr = float_min(path, value, 0.0, true)?,
            "sample_rate" => c.sample_rate = float_in(path, value, 0.0, 1.0, true)?,
            "eval_every" => c.eval_every = as_count(path, value, 1)?,
            "seed" => c.seed = as_u64(path, value)?,
            "poison_fraction" => c.poison_fraction = float_in(path, value, 0.0, 1.0, false)?,
            "trojan_epochs" => c.trojan.epochs = as_count(path, value, 1)?,
            "quantization" => c.quantization = parse_quantization(path, as_str(path, value)?)?,
            "cohort" => c.cohort = parse_cohort(path, as_str(path, value)?)?,
            "shard_budget_mb" => c.shard_budget_mb = as_count(path, value, 0)?,
            "fault.dropout" => self.fault.dropout = float_in(path, value, 0.0, 1.0, false)?,
            "fault.straggler" => self.fault.straggler = float_in(path, value, 0.0, 1.0, false)?,
            "fault.straggler_mean_ms" => {
                self.fault.straggler_mean_ms = float_min(path, value, 0.0, false)?
            }
            "fault.deadline_ms" => self.fault.deadline_ms = float_min(path, value, 0.0, false)?,
            "fault.corrupt" => self.fault.corrupt = float_in(path, value, 0.0, 1.0, false)?,
            "fault.checkpoint_fail" => {
                self.fault.checkpoint_fail = float_in(path, value, 0.0, 1.0, false)?
            }
            "sim.enabled" => self.sim_enabled = as_bool(path, value)?,
            "sim.arrival_mean_ms" => self.sim.arrival_mean_ms = float_min(path, value, 0.0, true)?,
            "sim.train_mean_ms" => self.sim.train_mean_ms = float_min(path, value, 0.0, true)?,
            "sim.buffer_k" => self.sim.buffer_k = as_count(path, value, 1)?,
            "sim.flush_deadline_ms" => {
                self.sim.flush_deadline_ms = float_min(path, value, 0.0, false)?
            }
            "sim.staleness_decay" => self.sim.staleness_decay = float_min(path, value, 0.0, false)?,
            "sim.churn_up_ms" => self.sim.churn_up_ms = float_min(path, value, 0.0, false)?,
            "sim.churn_down_ms" => self.sim.churn_down_ms = float_min(path, value, 0.0, false)?,
            "sim.max_concurrency" => self.sim.max_concurrency = as_count(path, value, 1)?,
            _ => {
                return Err(SchemaError::UnknownKey {
                    path: path.to_string(),
                })
            }
        }
        Ok(())
    }

    /// Cross-field validation of the resolved cell.
    pub fn validate(&self, cell_id: &str) -> Result<(), SchemaError> {
        let invalid = |message: String| SchemaError::InvalidCell {
            cell: cell_id.to_string(),
            message,
        };
        self.fault.validate().map_err(&invalid)?;
        let c = &self.config;
        let cohort = (c.num_clients as f64 * c.sample_rate).round() as usize;
        if cohort == 0 {
            return Err(invalid(format!(
                "sample_rate {} selects an empty cohort from {} clients",
                c.sample_rate, c.num_clients
            )));
        }
        if c.eval_every > c.rounds {
            return Err(invalid(format!(
                "eval_every {} exceeds rounds {}",
                c.eval_every, c.rounds
            )));
        }
        if self.sim_enabled && self.fault.is_active() {
            return Err(invalid(
                "sim mode and an active fault plan are mutually exclusive \
                 (the simulator models its own availability churn)"
                    .to_string(),
            ));
        }
        if self.sim_enabled {
            c.defense.check_sim().map_err(&invalid)?;
        }
        if c.defense == DefenseKind::FinePrune && c.model_kind == ScenarioModel::Cnn {
            return Err(invalid(
                "fine-prune targets the hidden layer of the MLP model; \
                 the cnn model has no single prunable hidden layer"
                    .to_string(),
            ));
        }
        Ok(())
    }

    /// Canonical full-resolution dump: every [`CELL_KEYS`] entry as a
    /// `key = value` line in canonical order, independent of which keys the
    /// file set explicitly. [`config_hash`](Self::config_hash) hashes this
    /// text, so two cells hash equal iff they resolve to the same settings.
    pub fn canonical_lines(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        for key in CELL_KEYS {
            let v = match *key {
                "dataset" => match c.dataset {
                    DatasetKind::Image => "\"image\"".to_string(),
                    DatasetKind::Text => "\"text\"".to_string(),
                },
                "clients" => c.num_clients.to_string(),
                "samples_per_client" => c.samples_per_client.to_string(),
                "alpha" => fmt_float(c.alpha),
                "compromised_frac" => fmt_float(c.compromised_frac),
                "attack" => format!("\"{}\"", c.attack.name()),
                "defense" => format!("\"{}\"", c.defense.name()),
                "algo" => format!("\"{}\"", c.algo.name()),
                "model" => format!("\"{}\"", c.model_kind.name()),
                "rounds" => c.rounds.to_string(),
                "local_steps" => c.local_steps.to_string(),
                "batch_size" => c.batch_size.to_string(),
                "client_lr" => fmt_float(c.client_lr),
                "server_lr" => fmt_float(c.server_lr),
                "sample_rate" => fmt_float(c.sample_rate),
                "eval_every" => c.eval_every.to_string(),
                "seed" => c.seed.to_string(),
                "poison_fraction" => fmt_float(c.poison_fraction),
                "trojan_epochs" => c.trojan.epochs.to_string(),
                "quantization" => format!("\"{}\"", c.quantization.name()),
                "cohort" => format!("\"{}\"", c.cohort.name()),
                "shard_budget_mb" => c.shard_budget_mb.to_string(),
                "fault.dropout" => fmt_float(self.fault.dropout),
                "fault.straggler" => fmt_float(self.fault.straggler),
                "fault.straggler_mean_ms" => fmt_float(self.fault.straggler_mean_ms),
                "fault.deadline_ms" => fmt_float(self.fault.deadline_ms),
                "fault.corrupt" => fmt_float(self.fault.corrupt),
                "fault.checkpoint_fail" => fmt_float(self.fault.checkpoint_fail),
                "sim.enabled" => self.sim_enabled.to_string(),
                "sim.arrival_mean_ms" => fmt_float(self.sim.arrival_mean_ms),
                "sim.train_mean_ms" => fmt_float(self.sim.train_mean_ms),
                "sim.buffer_k" => self.sim.buffer_k.to_string(),
                "sim.flush_deadline_ms" => fmt_float(self.sim.flush_deadline_ms),
                "sim.staleness_decay" => fmt_float(self.sim.staleness_decay),
                "sim.churn_up_ms" => fmt_float(self.sim.churn_up_ms),
                "sim.churn_down_ms" => fmt_float(self.sim.churn_down_ms),
                "sim.max_concurrency" => self.sim.max_concurrency.to_string(),
                other => unreachable!("CELL_KEYS entry '{other}' without a dump arm"),
            };
            out.push_str(key);
            out.push_str(" = ");
            out.push_str(&v);
            out.push('\n');
        }
        out
    }

    /// FNV-1a over [`canonical_lines`](Self::canonical_lines): the cell's
    /// configuration identity (used by resume to detect edited scenarios).
    pub fn config_hash(&self) -> u64 {
        fnv1a(self.canonical_lines().as_bytes())
    }
}

/// One expanded grid cell, ready to execute.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Position in expansion order (0-based).
    pub index: usize,
    /// Stable id: `axis=value+…+variant=name`.
    pub id: String,
    /// The resolved configuration.
    pub spec: CellSpec,
    /// [`CellSpec::config_hash`], precomputed.
    pub config_hash: u64,
}

/// One `key = value` overlay assignment (flattened dotted path).
type Assignment = (String, TomlValue);

/// A parsed, validated scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Grid name (reports and progress lines).
    pub name: String,
    /// Default worker count for the grid runner (0 = sequential).
    pub default_workers: usize,
    base: Vec<Assignment>,
    axes: Vec<(String, Vec<TomlValue>)>,
    variants: Vec<(String, Vec<Assignment>)>,
}

/// Flattens a table into dotted-path assignments, in file order.
fn flatten(table: &TomlTable, prefix: &str, out: &mut Vec<Assignment>) {
    for (k, v) in table.entries() {
        let path = if prefix.is_empty() {
            k.clone()
        } else {
            format!("{prefix}.{k}")
        };
        match v {
            TomlValue::Table(t) => flatten(t, &path, out),
            other => out.push((path, other.clone())),
        }
    }
}

impl GridSpec {
    /// Parses and validates a scenario document.
    ///
    /// # Errors
    ///
    /// Any [`SchemaError`]: TOML syntax, version mismatch, unknown keys,
    /// bad values, empty axes, or a cell that fails cross-field validation.
    pub fn parse(text: &str) -> Result<Self, SchemaError> {
        Self::from_table(&toml::parse(text)?)
    }

    /// Validates a scenario document already in table form — what
    /// [`parse`](Self::parse) reads from a file, or what a caller such as
    /// the CLI assembles from its own flags.
    ///
    /// # Errors
    ///
    /// As [`parse`](Self::parse), minus TOML syntax errors.
    pub fn from_table(root: &TomlTable) -> Result<Self, SchemaError> {
        // Closed top-level vocabulary.
        for (k, _) in root.entries() {
            if !matches!(
                k.as_str(),
                "schema_version" | "name" | "run" | "base" | "axes" | "variants"
            ) {
                return Err(SchemaError::UnknownKey { path: k.clone() });
            }
        }
        match root.get("schema_version") {
            Some(TomlValue::Int(v)) if *v == SCHEMA_VERSION => {}
            Some(TomlValue::Int(v)) => {
                return Err(SchemaError::UnsupportedVersion { found: Some(*v) })
            }
            Some(other) => return Err(wrong_type("schema_version", "integer", other)),
            None => return Err(SchemaError::UnsupportedVersion { found: None }),
        }
        let name = match root.get("name") {
            Some(TomlValue::Str(s)) if !s.is_empty() => s.clone(),
            Some(TomlValue::Str(_)) => {
                return Err(out_of_range("name", "must be non-empty"));
            }
            Some(other) => return Err(wrong_type("name", "string", other)),
            None => {
                return Err(SchemaError::MissingKey {
                    path: "name".to_string(),
                })
            }
        };

        let mut default_workers = 0usize;
        if let Some(run) = root.get("run") {
            let run = match run {
                TomlValue::Table(t) => t,
                other => return Err(wrong_type("run", "table", other)),
            };
            for (k, v) in run.entries() {
                match k.as_str() {
                    "workers" => default_workers = as_count("run.workers", v, 0)?,
                    other => {
                        return Err(SchemaError::UnknownKey {
                            path: format!("run.{other}"),
                        })
                    }
                }
            }
        }

        let mut base = Vec::new();
        if let Some(v) = root.get("base") {
            match v {
                TomlValue::Table(t) => flatten(t, "base", &mut base),
                other => return Err(wrong_type("base", "table", other)),
            }
        }
        let base: Vec<Assignment> = base
            .into_iter()
            .map(|(p, v)| (p.trim_start_matches("base.").to_string(), v))
            .collect();

        let mut axes = Vec::new();
        if let Some(v) = root.get("axes") {
            let t = match v {
                TomlValue::Table(t) => t,
                other => return Err(wrong_type("axes", "table", other)),
            };
            for (k, v) in t.entries() {
                let path = format!("axes.{k}");
                let values = match v {
                    TomlValue::Array(items) => items.clone(),
                    other => return Err(wrong_type(&path, "array", other)),
                };
                if values.is_empty() {
                    return Err(SchemaError::EmptyAxis { path });
                }
                axes.push((k.clone(), values));
            }
        }

        let mut variants = Vec::new();
        if let Some(v) = root.get("variants") {
            let t = match v {
                TomlValue::Table(t) => t,
                other => return Err(wrong_type("variants", "table", other)),
            };
            for (k, v) in t.entries() {
                let path = format!("variants.{k}");
                let overlay_table = match v {
                    TomlValue::Table(t) => t,
                    other => return Err(wrong_type(&path, "table", other)),
                };
                let mut overlay = Vec::new();
                flatten(overlay_table, "", &mut overlay);
                variants.push((k.clone(), overlay));
            }
        }

        let spec = Self {
            name,
            default_workers,
            base,
            axes,
            variants,
        };
        // Expanding validates every assignment and every resolved cell.
        spec.cells()?;
        Ok(spec)
    }

    /// The grid's axes (name, value count) — for `--list` style summaries.
    pub fn axis_summary(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = self
            .axes
            .iter()
            .map(|(k, vs)| (k.clone(), vs.len()))
            .collect();
        if !self.variants.is_empty() {
            out.push(("variant".to_string(), self.variants.len()));
        }
        out
    }

    /// Expands the cross-product into cells, in deterministic odometer
    /// order (last axis fastest, variants as the final axis).
    ///
    /// # Errors
    ///
    /// Any assignment or cross-field validation failure, attributed to the
    /// offending key or cell.
    pub fn cells(&self) -> Result<Vec<GridCell>, SchemaError> {
        let mut base = CellSpec::default();
        for (path, value) in &self.base {
            base.apply(path, value)?;
        }

        let axis_card: Vec<usize> = self.axes.iter().map(|(_, vs)| vs.len()).collect();
        let n_variants = self.variants.len().max(1);
        let total: usize = axis_card.iter().product::<usize>() * n_variants;

        let mut cells = Vec::with_capacity(total);
        for index in 0..total {
            // Odometer decode: variants fastest, then axes right-to-left.
            let mut rem = index;
            let variant_idx = rem % n_variants;
            rem /= n_variants;
            let mut axis_idx = vec![0usize; self.axes.len()];
            for (slot, card) in axis_idx.iter_mut().zip(&axis_card).rev() {
                *slot = rem % card;
                rem /= card;
            }

            let mut spec = base.clone();
            let mut id_parts = Vec::with_capacity(self.axes.len() + 1);
            for (a, (key, values)) in self.axes.iter().enumerate() {
                let value = &values[axis_idx[a]];
                spec.apply(key, value)
                    .map_err(|e| rescope_axis(e, key, axis_idx[a]))?;
                id_parts.push(format!("{key}={}", id_fragment(value)));
            }
            if let Some((vname, overlay)) = self.variants.get(variant_idx) {
                for (path, value) in overlay {
                    spec.apply(path, value)
                        .map_err(|e| rescope_variant(e, vname))?;
                }
                id_parts.push(format!("variant={vname}"));
            }
            let id = if id_parts.is_empty() {
                "cell".to_string()
            } else {
                id_parts.join("+")
            };
            spec.validate(&id)?;
            let config_hash = spec.config_hash();
            cells.push(GridCell {
                index,
                id,
                spec,
                config_hash,
            });
        }
        Ok(cells)
    }

    /// Serializes back to canonical TOML: `parse(to_toml(s))` reproduces
    /// the same cells (ids, order, config hashes).
    pub fn to_toml(&self) -> String {
        let mut root = TomlTable::new();
        root.insert("schema_version", TomlValue::Int(SCHEMA_VERSION))
            .expect("fresh table");
        root.insert("name", TomlValue::Str(self.name.clone()))
            .expect("fresh table");
        if self.default_workers > 0 {
            let mut run = TomlTable::new();
            run.insert("workers", TomlValue::Int(self.default_workers as i64))
                .expect("fresh table");
            root.insert("run", TomlValue::Table(run))
                .expect("fresh table");
        }
        let mut base = TomlTable::new();
        for (path, value) in &self.base {
            let segs: Vec<&str> = path.split('.').collect();
            base.insert_path(&segs, value.clone())
                .expect("assignments validated at parse");
        }
        root.insert("base", TomlValue::Table(base))
            .expect("fresh table");
        let mut axes = TomlTable::new();
        for (key, values) in &self.axes {
            axes.insert(key, TomlValue::Array(values.clone()))
                .expect("axes validated at parse");
        }
        root.insert("axes", TomlValue::Table(axes))
            .expect("fresh table");
        if !self.variants.is_empty() {
            let mut variants = TomlTable::new();
            for (name, overlay) in &self.variants {
                let mut t = TomlTable::new();
                for (path, value) in overlay {
                    let segs: Vec<&str> = path.split('.').collect();
                    t.insert_path(&segs, value.clone())
                        .expect("overlay validated at parse");
                }
                variants
                    .insert(name, TomlValue::Table(t))
                    .expect("variants validated at parse");
            }
            root.insert("variants", TomlValue::Table(variants))
                .expect("fresh table");
        }
        toml::write(&root)
    }
}

/// Renders an axis value for a cell id (strings bare, scalars as printed).
fn id_fragment(v: &TomlValue) -> String {
    match v {
        TomlValue::Str(s) => s.clone(),
        other => other.render(),
    }
}

fn rescope_axis(e: SchemaError, key: &str, value_idx: usize) -> SchemaError {
    match e {
        SchemaError::UnknownKey { path } => SchemaError::UnknownKey {
            path: format!("axes.{path}"),
        },
        SchemaError::WrongType {
            path,
            expected,
            found,
        } => SchemaError::WrongType {
            path: format!("axes.{path}[{value_idx}]"),
            expected,
            found,
        },
        SchemaError::OutOfRange { path, message } => SchemaError::OutOfRange {
            path: format!("axes.{path}[{value_idx}]"),
            message,
        },
        other => {
            let _ = key;
            other
        }
    }
}

fn rescope_variant(e: SchemaError, vname: &str) -> SchemaError {
    match e {
        SchemaError::UnknownKey { path } => SchemaError::UnknownKey {
            path: format!("variants.{vname}.{path}"),
        },
        SchemaError::WrongType {
            path,
            expected,
            found,
        } => SchemaError::WrongType {
            path: format!("variants.{vname}.{path}"),
            expected,
            found,
        },
        SchemaError::OutOfRange { path, message } => SchemaError::OutOfRange {
            path: format!("variants.{vname}.{path}"),
            message,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = r#"
schema_version = 1
name = "unit"

[run]
workers = 2

[base]
clients = 12
samples_per_client = 20
alpha = 1.0
rounds = 4
eval_every = 4
trojan_epochs = 8

[axes]
attack = ["collapois", "label-flip"]
defense = ["norm-bound", "krum"]

[variants.plain]

[variants.faulted]
fault.dropout = 0.2
"#;

    #[test]
    fn expands_cross_product_in_odometer_order() {
        let spec = GridSpec::parse(SMOKE).unwrap();
        let cells = spec.cells().unwrap();
        assert_eq!(cells.len(), 8); // 2 × 2 × 2
        assert_eq!(
            cells[0].id,
            "attack=collapois+defense=norm-bound+variant=plain"
        );
        assert_eq!(
            cells[1].id,
            "attack=collapois+defense=norm-bound+variant=faulted"
        );
        assert_eq!(cells[2].id, "attack=collapois+defense=krum+variant=plain");
        assert_eq!(
            cells[7].id,
            "attack=label-flip+defense=krum+variant=faulted"
        );
        assert_eq!(spec.default_workers, 2);
        // Resolved settings: base applied everywhere, overlay only where named.
        assert_eq!(cells[0].spec.config.num_clients, 12);
        assert_eq!(cells[0].spec.fault.dropout, 0.0);
        assert_eq!(cells[1].spec.fault.dropout, 0.2);
        assert_eq!(cells[1].spec.config.attack, AttackKind::CollaPois);
        assert_eq!(cells[7].spec.config.defense, DefenseKind::Krum);
        // Indices are positional and hashes are distinct per distinct config.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        let mut hashes: Vec<u64> = cells.iter().map(|c| c.config_hash).collect();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), 8, "distinct cells hash distinctly");
    }

    #[test]
    fn canonical_toml_round_trips_cells() {
        let spec = GridSpec::parse(SMOKE).unwrap();
        let text = spec.to_toml();
        let reparsed = GridSpec::parse(&text).unwrap();
        assert_eq!(spec, reparsed);
        assert_eq!(spec.cells().unwrap(), reparsed.cells().unwrap());
        // Idempotent canonicalization.
        assert_eq!(text, reparsed.to_toml());
    }

    #[test]
    fn config_hash_tracks_settings_not_spelling() {
        let a = GridSpec::parse(SMOKE).unwrap().cells().unwrap();
        // Same settings written via an equivalent document (base keys in a
        // different order) hash identically…
        let reordered = SMOKE.replace(
            "clients = 12\nsamples_per_client = 20",
            "samples_per_client = 20\nclients = 12",
        );
        let b = GridSpec::parse(&reordered).unwrap().cells().unwrap();
        assert_eq!(a[0].config_hash, b[0].config_hash);
        // …while a changed setting changes the hash.
        let edited = SMOKE.replace("alpha = 1.0", "alpha = 0.5");
        let c = GridSpec::parse(&edited).unwrap().cells().unwrap();
        assert_ne!(a[0].config_hash, c[0].config_hash);
    }

    #[test]
    fn rejects_unknown_and_out_of_range_keys() {
        let unknown = SMOKE.replace("clients = 12", "cleints = 12");
        match GridSpec::parse(&unknown).unwrap_err() {
            SchemaError::UnknownKey { path } => assert_eq!(path, "cleints"),
            other => panic!("expected UnknownKey, got {other}"),
        }
        let bad_alpha = SMOKE.replace("alpha = 1.0", "alpha = -0.5");
        assert!(matches!(
            GridSpec::parse(&bad_alpha).unwrap_err(),
            SchemaError::OutOfRange { .. }
        ));
        let bad_frac = SMOKE.replace("[axes]", "compromised_frac = 1.5\n[axes]");
        match GridSpec::parse(&bad_frac).unwrap_err() {
            SchemaError::OutOfRange { path, .. } => assert_eq!(path, "compromised_frac"),
            other => panic!("expected OutOfRange, got {other}"),
        }
        let bad_type = SMOKE.replace("rounds = 4", "rounds = 4.5");
        assert!(matches!(
            GridSpec::parse(&bad_type).unwrap_err(),
            SchemaError::WrongType { .. }
        ));
        let bad_axis_value = SMOKE.replace("\"krum\"", "\"kurm\"");
        match GridSpec::parse(&bad_axis_value).unwrap_err() {
            SchemaError::OutOfRange { path, .. } => assert_eq!(path, "axes.defense[1]"),
            other => panic!("expected OutOfRange, got {other}"),
        }
        let bad_variant = SMOKE.replace("fault.dropout = 0.2", "fault.dropuot = 0.2");
        match GridSpec::parse(&bad_variant).unwrap_err() {
            SchemaError::UnknownKey { path } => {
                assert_eq!(path, "variants.faulted.fault.dropuot")
            }
            other => panic!("expected UnknownKey, got {other}"),
        }
    }

    #[test]
    fn version_and_name_are_required() {
        assert!(matches!(
            GridSpec::parse("name = \"x\"").unwrap_err(),
            SchemaError::UnsupportedVersion { found: None }
        ));
        assert!(matches!(
            GridSpec::parse("schema_version = 99\nname = \"x\"").unwrap_err(),
            SchemaError::UnsupportedVersion { found: Some(99) }
        ));
        assert!(matches!(
            GridSpec::parse("schema_version = 1").unwrap_err(),
            SchemaError::MissingKey { .. }
        ));
    }

    #[test]
    fn rejects_inconsistent_cells() {
        // eval_every exceeding rounds is a cross-field violation.
        let doc = SMOKE.replace("eval_every = 4", "eval_every = 9");
        match GridSpec::parse(&doc).unwrap_err() {
            SchemaError::InvalidCell { message, .. } => {
                assert!(message.contains("eval_every"), "{message}")
            }
            other => panic!("expected InvalidCell, got {other}"),
        }
        // Sim + active faults are mutually exclusive.
        let doc = SMOKE.replace(
            "fault.dropout = 0.2",
            "fault.dropout = 0.2\nsim.enabled = true",
        );
        assert!(matches!(
            GridSpec::parse(&doc).unwrap_err(),
            SchemaError::InvalidCell { .. }
        ));
        // Sim + a defense that replaces the aggregator would run FedBuff
        // under the defense's label; fine-prune is a hook and runs.
        let doc = SMOKE.replace("fault.dropout = 0.2", "sim.enabled = true");
        match GridSpec::parse(&doc).unwrap_err() {
            SchemaError::InvalidCell { cell, message } => {
                assert_eq!(cell, "attack=collapois+defense=norm-bound+variant=faulted");
                assert!(message.contains("norm-bound"), "{message}");
            }
            other => panic!("expected InvalidCell, got {other}"),
        }
        let doc = doc.replace("\"norm-bound\", \"krum\"", "\"none\", \"fine-prune\"");
        assert_eq!(GridSpec::parse(&doc).unwrap().cells().unwrap().len(), 8);
    }

    #[test]
    fn cohort_keys_parse_and_hash() {
        let doc = SMOKE.replace("[axes]", "cohort = \"lazy\"\nshard_budget_mb = 64\n[axes]");
        let cells = GridSpec::parse(&doc).unwrap().cells().unwrap();
        assert_eq!(cells[0].spec.config.cohort, CohortMode::Lazy);
        assert_eq!(cells[0].spec.config.shard_budget_mb, 64);
        let base = GridSpec::parse(SMOKE).unwrap().cells().unwrap();
        assert_eq!(base[0].spec.config.cohort, CohortMode::Auto);
        assert_ne!(cells[0].config_hash, base[0].config_hash);
        let bad = SMOKE.replace("[axes]", "cohort = \"sometimes\"\n[axes]");
        match GridSpec::parse(&bad).unwrap_err() {
            SchemaError::OutOfRange { path, .. } => assert_eq!(path, "cohort"),
            other => panic!("expected OutOfRange, got {other}"),
        }
    }

    #[test]
    fn empty_axis_is_an_error() {
        let doc = SMOKE.replace("attack = [\"collapois\", \"label-flip\"]", "attack = []");
        assert!(matches!(
            GridSpec::parse(&doc).unwrap_err(),
            SchemaError::EmptyAxis { .. }
        ));
    }

    #[test]
    fn grid_without_axes_or_variants_is_one_cell() {
        let doc = "schema_version = 1\nname = \"single\"\n[base]\nrounds = 2\neval_every = 2\n";
        let cells = GridSpec::parse(doc).unwrap().cells().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].id, "cell");
        assert_eq!(cells[0].spec.config.rounds, 2);
    }

    #[test]
    fn defaults_match_quick_image() {
        let doc = "schema_version = 1\nname = \"d\"\n";
        let cells = GridSpec::parse(doc).unwrap().cells().unwrap();
        let expected = ScenarioConfig::quick_image(1.0, 0.1);
        assert_eq!(cells[0].spec.config, expected);
        assert_eq!(cells[0].spec.fault, FaultPlan::none());
        assert!(!cells[0].spec.sim_enabled);
    }
}
