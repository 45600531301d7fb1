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
//! silent defaults. An axis may vary any key, dotted ones included
//! (`fault.dropout = [0.0, 0.1]`); a variant may not set an axis key,
//! since each cell's id would still name the axis value it replaced, and
//! an axis may not list one setting twice (`"lflip"` and `"label-flip"`,
//! `1` and `1.0`), since two cells would run one configuration.
//! Unset keys fall back to the documented defaults of
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

/// The schema revision this build reads.
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
    /// A variant sets a key that is also an axis, which would override
    /// every value of the axis while each cell's id still named it.
    VariantSetsAxis {
        /// Dotted path of the variant's assignment.
        path: String,
    },
    /// An `[axes]` entry lists one setting twice, however spelled
    /// (`"lflip"` and `"label-flip"`, `1` and `1.0`), which would run one
    /// configuration under several cells.
    RepeatedAxisValue {
        /// The axis key.
        path: String,
        /// The first value's spelling.
        first: String,
        /// The later value's spelling.
        second: String,
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
            Self::VariantSetsAxis { path } => {
                write!(f, "key '{path}': a variant may not set an axis key")
            }
            Self::RepeatedAxisValue {
                path,
                first,
                second,
            } => write!(
                f,
                "axis '{path}' lists one setting twice: '{first}' and '{second}'"
            ),
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

/// A key's domain, holding the [`CellSpec`] field it sets.
enum Field<'a> {
    /// An integer ≥ the minimum.
    Count(&'a mut usize, usize),
    /// A non-negative integer.
    Seed(&'a mut u64),
    /// A float in `[0, 1]`.
    Frac(&'a mut f64),
    /// A float in `(0, 1]`.
    Rate(&'a mut f64),
    /// A float ≥ 0.
    NonNeg(&'a mut f64),
    /// A float > 0.
    Positive(&'a mut f64),
    /// A boolean.
    Flag(&'a mut bool),
    /// One of core's names, listed in errors as the noun (the key unless
    /// [`noun`](Field::noun) says otherwise).
    Name(Option<&'static str>, Box<dyn Pick + 'a>),
}

/// A settable key: its name, and its [`Field`] in a [`CellSpec`].
type Key = (&'static str, fn(&mut CellSpec) -> Field<'_>);

/// Every settable key, in canonical order. [`CellSpec::apply`],
/// [`CellSpec::canonical_lines`] and the unknown-key check read only this
/// table.
const KEYS: &[Key] = &[
    ("dataset", |s| {
        Field::name(&mut s.config.dataset, DatasetKind::all(), DatasetKind::name)
    }),
    ("clients", |s| Field::Count(&mut s.config.num_clients, 2)),
    ("samples_per_client", |s| {
        Field::Count(&mut s.config.samples_per_client, 1)
    }),
    ("alpha", |s| Field::Positive(&mut s.config.alpha)),
    ("compromised_frac", |s| {
        Field::Frac(&mut s.config.compromised_frac)
    }),
    ("attack", |s| {
        Field::name(&mut s.config.attack, AttackKind::all(), AttackKind::name)
    }),
    ("defense", |s| {
        Field::name(&mut s.config.defense, DefenseKind::all(), DefenseKind::name)
    }),
    ("algo", |s| {
        Field::name(&mut s.config.algo, FlAlgo::all(), FlAlgo::name)
    }),
    ("model", |s| {
        Field::name(
            &mut s.config.model_kind,
            ScenarioModel::all(),
            ScenarioModel::name,
        )
    }),
    ("rounds", |s| Field::Count(&mut s.config.rounds, 1)),
    ("local_steps", |s| {
        Field::Count(&mut s.config.local_steps, 1)
    }),
    ("batch_size", |s| Field::Count(&mut s.config.batch_size, 1)),
    ("client_lr", |s| Field::Positive(&mut s.config.client_lr)),
    ("server_lr", |s| Field::Positive(&mut s.config.server_lr)),
    ("sample_rate", |s| Field::Rate(&mut s.config.sample_rate)),
    ("eval_every", |s| Field::Count(&mut s.config.eval_every, 1)),
    ("seed", |s| Field::Seed(&mut s.config.seed)),
    ("poison_fraction", |s| {
        Field::Frac(&mut s.config.poison_fraction)
    }),
    ("trojan_epochs", |s| {
        Field::Count(&mut s.config.trojan.epochs, 1)
    }),
    ("quantization", |s| {
        Field::name(
            &mut s.config.quantization,
            Quantization::all(),
            Quantization::name,
        )
    }),
    ("cohort", |s| {
        Field::name(&mut s.config.cohort, CohortMode::all(), CohortMode::name).noun("cohort mode")
    }),
    ("shard_budget_mb", |s| {
        Field::Count(&mut s.config.shard_budget_mb, 0)
    }),
    ("fault.dropout", |s| Field::Frac(&mut s.fault.dropout)),
    ("fault.straggler", |s| Field::Frac(&mut s.fault.straggler)),
    ("fault.straggler_mean_ms", |s| {
        Field::NonNeg(&mut s.fault.straggler_mean_ms)
    }),
    ("fault.deadline_ms", |s| {
        Field::NonNeg(&mut s.fault.deadline_ms)
    }),
    ("fault.corrupt", |s| Field::Frac(&mut s.fault.corrupt)),
    ("fault.checkpoint_fail", |s| {
        Field::Frac(&mut s.fault.checkpoint_fail)
    }),
    ("sim.enabled", |s| Field::Flag(&mut s.sim_enabled)),
    ("sim.arrival_mean_ms", |s| {
        Field::Positive(&mut s.sim.arrival_mean_ms)
    }),
    ("sim.train_mean_ms", |s| {
        Field::Positive(&mut s.sim.train_mean_ms)
    }),
    ("sim.buffer_k", |s| Field::Count(&mut s.sim.buffer_k, 1)),
    ("sim.flush_deadline_ms", |s| {
        Field::NonNeg(&mut s.sim.flush_deadline_ms)
    }),
    ("sim.staleness_decay", |s| {
        Field::NonNeg(&mut s.sim.staleness_decay)
    }),
    ("sim.churn_up_ms", |s| Field::NonNeg(&mut s.sim.churn_up_ms)),
    ("sim.churn_down_ms", |s| {
        Field::NonNeg(&mut s.sim.churn_down_ms)
    }),
    ("sim.max_concurrency", |s| {
        Field::Count(&mut s.sim.max_concurrency, 1)
    }),
];

impl<'a> Field<'a> {
    /// A key naming one of `all`, each spelled by `name`.
    fn name<T: Copy>(slot: &'a mut T, all: &'static [T], name: fn(&T) -> &'static str) -> Self {
        Self::Name(None, Box::new(Choice { slot, all, name }))
    }

    /// Names a [`Field::Name`]'s vocabulary in its error message.
    fn noun(self, noun: &'static str) -> Self {
        match self {
            Self::Name(_, choice) => Self::Name(Some(noun), choice),
            other => other,
        }
    }

    /// Reads `value`, written at `path`, into the field.
    fn set(self, path: &str, value: &TomlValue) -> Result<(), SchemaError> {
        match self {
            Self::Count(slot, min) => *slot = as_count(path, value, min)?,
            Self::Seed(slot) => *slot = as_u64(path, value)?,
            Self::Frac(slot) => *slot = unit_float(path, value, false)?,
            Self::Rate(slot) => *slot = unit_float(path, value, true)?,
            Self::NonNeg(slot) => *slot = nonneg_float(path, value, false)?,
            Self::Positive(slot) => *slot = nonneg_float(path, value, true)?,
            Self::Flag(slot) => *slot = as_bool(path, value)?,
            Self::Name(noun, mut choice) => {
                let text = as_str(path, value)?;
                if let Err(names) = choice.pick(text) {
                    let noun = noun.unwrap_or(path);
                    let message = format!("unknown {noun} '{text}' ({names})");
                    return Err(out_of_range(path, message));
                }
            }
        }
        Ok(())
    }

    /// The field's value as a canonical TOML literal.
    fn render(self) -> String {
        match self {
            Self::Count(slot, _) => slot.to_string(),
            Self::Seed(slot) => slot.to_string(),
            Self::Frac(x) | Self::Rate(x) | Self::NonNeg(x) | Self::Positive(x) => fmt_float(*x),
            Self::Flag(slot) => slot.to_string(),
            Self::Name(_, choice) => format!("\"{}\"", choice.current()),
        }
    }
}

/// An enum-valued field: `all` lists its values, `name` spells each.
struct Choice<'a, T: 'static> {
    slot: &'a mut T,
    all: &'static [T],
    name: fn(&T) -> &'static str,
}

/// A [`Choice`] of any value type.
trait Pick {
    /// The field's current name.
    fn current(&self) -> &'static str;

    /// Sets the field to the value `text` names (or abbreviates, see
    /// [`alias`]); otherwise returns every name, `|`-joined.
    fn pick(&mut self, text: &str) -> Result<(), String>;
}

impl<T: Copy> Pick for Choice<'_, T> {
    fn current(&self) -> &'static str {
        (self.name)(self.slot)
    }

    fn pick(&mut self, text: &str) -> Result<(), String> {
        let name = self.name;
        let Some(value) = self
            .all
            .iter()
            .find(|v| [text, alias(text)].contains(&name(v)))
        else {
            return Err(self.all.iter().map(name).collect::<Vec<_>>().join("|"));
        };
        *self.slot = *value;
        Ok(())
    }
}

/// The name an input alias stands for: `none` for the clean attack, `lflip`
/// for label flipping and `fine_prune` for fine-pruning. Other text stands
/// for itself.
fn alias(text: &str) -> &str {
    match text {
        "none" => AttackKind::None.name(),
        "lflip" => AttackKind::LabelFlip.name(),
        "fine_prune" => DefenseKind::FinePrune.name(),
        other => other,
    }
}

/// The [`Field`] the key `path` names.
fn field(path: &str) -> Result<fn(&mut CellSpec) -> Field<'_>, SchemaError> {
    KEYS.iter()
        .find(|(key, _)| *key == path)
        .map(|&(_, field)| field)
        .ok_or_else(|| SchemaError::UnknownKey {
            path: path.to_string(),
        })
}

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

/// A float in `[0, 1]`, or `(0, 1]` when `open`.
fn unit_float(path: &str, v: &TomlValue, open: bool) -> Result<f64, SchemaError> {
    let f = as_float(path, v)?;
    let (lo_ok, bracket) = if open {
        (f > 0.0, '(')
    } else {
        (f >= 0.0, '[')
    };
    if lo_ok && f <= 1.0 {
        Ok(f)
    } else {
        Err(out_of_range(path, format!("{f} is outside {bracket}0, 1]")))
    }
}

/// A float ≥ 0, or > 0 when `open`.
fn nonneg_float(path: &str, v: &TomlValue, open: bool) -> Result<f64, SchemaError> {
    let f = as_float(path, v)?;
    let (ok, rel) = if open {
        (f > 0.0, ">")
    } else {
        (f >= 0.0, "≥")
    };
    if ok {
        Ok(f)
    } else {
        Err(out_of_range(path, format!("{f} must be {rel} 0")))
    }
}

impl CellSpec {
    /// Applies one `key = value` assignment.
    ///
    /// # Errors
    ///
    /// [`SchemaError::UnknownKey`] for a key outside the schema,
    /// [`SchemaError::WrongType`]/[`SchemaError::OutOfRange`] for a value
    /// outside the key's domain.
    pub fn apply(&mut self, path: &str, value: &TomlValue) -> Result<(), SchemaError> {
        field(path)?(self).set(path, value)
    }

    /// Applies one assignment and returns the setting it made, as
    /// [`canonical_lines`](Self::canonical_lines) writes it.
    fn setting(&mut self, path: &str, value: &TomlValue) -> Result<String, SchemaError> {
        let field = field(path)?;
        field(self).set(path, value)?;
        Ok(field(self).render())
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

    /// Canonical full-resolution dump: every settable key as a
    /// `key = value` line in canonical order, independent of which keys the
    /// file set explicitly. [`config_hash`](Self::config_hash) hashes this
    /// text, so two cells hash equal iff they resolve to the same settings.
    pub fn canonical_lines(&self) -> String {
        let mut spec = self.clone();
        KEYS.iter()
            .map(|(key, field)| format!("{key} = {}\n", field(&mut spec).render()))
            .collect()
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

/// One `key = value` assignment (flattened dotted path).
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

/// The entries of the table at `path` (none if it is absent).
fn table<'t>(value: Option<&'t TomlValue>, path: &str) -> Result<&'t [Assignment], SchemaError> {
    match value {
        None => Ok(&[]),
        Some(TomlValue::Table(t)) => Ok(t.entries()),
        Some(other) => Err(wrong_type(path, "table", other)),
    }
}

/// Reads a section — `[base]`, `[axes]` or one `[variants.NAME]` — as its
/// assignments in file order, subtables flattened into dotted keys
/// (`fault.dropout`).
fn section(value: Option<&TomlValue>, path: &str) -> Result<Vec<Assignment>, SchemaError> {
    fn flatten(entries: &[Assignment], prefix: &str, out: &mut Vec<Assignment>) {
        for (k, v) in entries {
            let path = format!("{prefix}{k}");
            match v {
                TomlValue::Table(t) => flatten(t.entries(), &format!("{path}."), out),
                other => out.push((path, other.clone())),
            }
        }
    }
    let mut out = Vec::new();
    flatten(table(value, path)?, "", &mut out);
    Ok(out)
}

/// Scopes an assignment's error to where the file wrote it: `prefix`
/// before the key and, for an axis value, its `[index]` after.
fn rescope(e: SchemaError, prefix: &str, index: Option<usize>) -> SchemaError {
    let at = |path: String| match index {
        Some(i) => format!("{prefix}{path}[{i}]"),
        None => format!("{prefix}{path}"),
    };
    match e {
        SchemaError::UnknownKey { path } => SchemaError::UnknownKey {
            path: format!("{prefix}{path}"),
        },
        SchemaError::WrongType {
            path,
            expected,
            found,
        } => SchemaError::WrongType {
            path: at(path),
            expected,
            found,
        },
        SchemaError::OutOfRange { path, message } => SchemaError::OutOfRange {
            path: at(path),
            message,
        },
        other => other,
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
        for (k, v) in table(root.get("run"), "run")? {
            match k.as_str() {
                "workers" => default_workers = as_count("run.workers", v, 0)?,
                other => {
                    return Err(SchemaError::UnknownKey {
                        path: format!("run.{other}"),
                    })
                }
            }
        }

        let base = section(root.get("base"), "base")?;
        let mut axes = Vec::new();
        for (key, v) in section(root.get("axes"), "axes")? {
            let path = format!("axes.{key}");
            match v {
                TomlValue::Array(values) if values.is_empty() => {
                    return Err(SchemaError::EmptyAxis { path })
                }
                TomlValue::Array(values) => axes.push((key, values)),
                other => return Err(wrong_type(&path, "array", &other)),
            }
        }
        let mut variants = Vec::new();
        for (vname, v) in table(root.get("variants"), "variants")? {
            let path = format!("variants.{vname}");
            let overlay = section(Some(v), &path)?;
            // A variant setting an axis key would run one setting under
            // every label of that axis.
            if let Some((key, _)) = overlay
                .iter()
                .find(|(k, _)| axes.iter().any(|(a, _)| a == k))
            {
                return Err(SchemaError::VariantSetsAxis {
                    path: format!("{path}.{key}"),
                });
            }
            variants.push((vname.clone(), overlay));
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
        spec.check_axes_distinct()?;
        Ok(spec)
    }

    /// Rejects an axis that lists one setting twice, however it is spelled:
    /// its cells would run one configuration under several ids, or two
    /// cells under one id.
    fn check_axes_distinct(&self) -> Result<(), SchemaError> {
        for (key, values) in &self.axes {
            let mut settings: Vec<String> = Vec::with_capacity(values.len());
            for (i, value) in values.iter().enumerate() {
                let setting = CellSpec::default()
                    .setting(key, value)
                    .map_err(|e| rescope(e, "axes.", Some(i)))?;
                if let Some(first) = settings.iter().position(|s| *s == setting) {
                    return Err(SchemaError::RepeatedAxisValue {
                        path: format!("axes.{key}"),
                        first: id_fragment(&values[first]),
                        second: id_fragment(value),
                    });
                }
                settings.push(setting);
            }
        }
        Ok(())
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
            for ((key, values), &i) in self.axes.iter().zip(&axis_idx) {
                spec.apply(key, &values[i])
                    .map_err(|e| rescope(e, "axes.", Some(i)))?;
                id_parts.push(format!("{key}={}", id_fragment(&values[i])));
            }
            if let Some((vname, overlay)) = self.variants.get(variant_idx) {
                for (path, value) in overlay {
                    spec.apply(path, value)
                        .map_err(|e| rescope(e, &format!("variants.{vname}."), None))?;
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
}

/// Renders an axis value for a cell id: strings bare, other scalars as
/// TOML prints them.
fn id_fragment(v: &TomlValue) -> String {
    match v {
        TomlValue::Str(s) => s.clone(),
        TomlValue::Int(i) => i.to_string(),
        TomlValue::Float(f) => fmt_float(*f),
        TomlValue::Bool(b) => b.to_string(),
        // `apply` has already rejected arrays and tables for every key.
        other => other.type_name().to_string(),
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
