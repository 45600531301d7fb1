//! Comparable per-cell JSONL reports.
//!
//! Every executed cell emits exactly one JSON line with a *fixed* key set
//! in a *fixed* order, regardless of attack/defense/variant — so any two
//! cells of any grid can be diffed, joined or aggregated without schema
//! sniffing. Hash-valued fields (`config_hash`, `event_hash`) are hex
//! *strings*: a raw u64 above 2^53 would silently lose precision through
//! any float-based JSON reader.
//!
//! Rows are written and read by the runtime's JSON codec
//! ([`collapois_runtime::json`]), the same one the run traces use. The
//! form is canonical: a report line is byte-reproducible for a
//! deterministic run, which is what lets the grid runner resume by
//! verbatim-prefix comparison and lets CI pin golden fixtures.
//! [`CellReport::from_json`] reads a row back to the same value.

use crate::schema::GridCell;
use collapois_core::scenario::{RoundMetrics, ScenarioReport};
use collapois_fl::metrics::ClusterReport;
use collapois_runtime::json::{self, Obj, Value};

/// The row layout this build writes and reads, stamped into every row's
/// `schema_version`. It is separate from the scenario-file
/// [`SCHEMA_VERSION`](crate::schema::SCHEMA_VERSION): version 2 added
/// `evaluations` and `clusters`, and resume reruns any row of another
/// layout instead of appending after it.
pub const ROW_VERSION: i64 = 2;

/// One cell's result row.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell id (`attack=…+defense=…+variant=…`).
    pub cell: String,
    /// Position in expansion order.
    pub index: usize,
    /// Row layout revision ([`ROW_VERSION`] for rows this build writes).
    pub schema_version: i64,
    /// [`CellSpec::config_hash`](crate::schema::CellSpec::config_hash).
    pub config_hash: u64,
    /// Dataset name.
    pub dataset: String,
    /// Attack name.
    pub attack: String,
    /// Defense name.
    pub defense: String,
    /// FL-algorithm name.
    pub algo: String,
    /// Dirichlet α.
    pub alpha: f64,
    /// Client count.
    pub clients: usize,
    /// Compromised-client count (after floor/cap).
    pub compromised: usize,
    /// Rounds executed (flush target in sim mode).
    pub rounds: usize,
    /// Whether the cell ran under the discrete-event simulator.
    pub sim: bool,
    /// Final mean Benign AC over benign clients.
    pub benign_ac: f64,
    /// Final mean Attack SR over benign clients.
    pub attack_sr: f64,
    /// Benign AC over the top-25% most affected clients (Eq. 8 ranking).
    pub top25_benign_ac: f64,
    /// Attack SR over the top-25% most affected clients.
    pub top25_attack_sr: f64,
    /// Per-client final metrics `(client_id, benign_ac, attack_sr)`.
    pub client_metrics: Vec<(usize, f64, f64)>,
    /// Population metrics at every evaluation point
    /// ([`ScenarioReport::rounds`]).
    pub evaluations: Vec<RoundMetrics>,
    /// Eq. 9 risk clusters ([`ScenarioReport::clusters`]; empty when no
    /// attack ran).
    pub clusters: Vec<ClusterReport>,
    /// Fault-plan dropouts injected.
    pub dropped_clients: usize,
    /// Stragglers shed past the round deadline.
    pub shed_stragglers: usize,
    /// Updates rejected before aggregation.
    pub rejected_updates: usize,
    /// Checkpoint-write failures.
    pub checkpoint_failures: usize,
    /// Canonical trace-event digest (worker-count-invariant).
    pub event_hash: u64,
    /// Events folded into `event_hash`.
    pub event_count: u64,
}

impl CellReport {
    /// Assembles the row for one executed cell.
    pub fn from_run(cell: &GridCell, report: &ScenarioReport) -> Self {
        let last = report.final_round();
        let top = report.top_k(25.0);
        Self {
            cell: cell.id.clone(),
            index: cell.index,
            schema_version: ROW_VERSION,
            config_hash: cell.config_hash,
            dataset: report.config.dataset.name().to_string(),
            attack: report.config.attack.name().to_string(),
            defense: report.config.defense.name().to_string(),
            algo: report.config.algo.name().to_string(),
            alpha: report.config.alpha,
            clients: report.config.num_clients,
            compromised: report.compromised.len(),
            rounds: last.round,
            sim: cell.spec.sim_enabled,
            benign_ac: last.benign_accuracy,
            attack_sr: last.attack_success_rate,
            top25_benign_ac: top.benign_ac,
            top25_attack_sr: top.attack_sr,
            client_metrics: report
                .clients
                .iter()
                .map(|m| (m.client_id, m.benign_ac, m.attack_sr))
                .collect(),
            evaluations: report.rounds.clone(),
            clusters: report.clusters.clone(),
            dropped_clients: report.profile.dropped_clients,
            shed_stragglers: report.profile.shed_stragglers,
            rejected_updates: report.profile.rejected_updates,
            checkpoint_failures: report.profile.checkpoint_write_failures,
            event_hash: report.event_hash,
            event_count: report.event_count,
        }
    }

    /// Serializes to the canonical single-line JSON form.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(512 + 52 * self.client_metrics.len());
        Obj::new(&mut s)
            .str("cell", &self.cell)
            .int("index", self.index)
            .int("schema_version", self.schema_version)
            .str("config_hash", &format!("{:#018x}", self.config_hash))
            .str("dataset", &self.dataset)
            .str("attack", &self.attack)
            .str("defense", &self.defense)
            .str("algo", &self.algo)
            .num("alpha", self.alpha)
            .int("clients", self.clients)
            .int("compromised", self.compromised)
            .int("rounds", self.rounds)
            .bool("sim", self.sim)
            .num("benign_ac", self.benign_ac)
            .num("attack_sr", self.attack_sr)
            .num("top25_benign_ac", self.top25_benign_ac)
            .num("top25_attack_sr", self.top25_attack_sr)
            .arr(
                "client_metrics",
                &self.client_metrics,
                |out, (id, ac, sr)| {
                    Obj::new(out)
                        .int("id", *id)
                        .num("benign_ac", *ac)
                        .num("attack_sr", *sr)
                        .finish()
                },
            )
            .arr("evaluations", &self.evaluations, |out, r| {
                Obj::new(out)
                    .int("round", r.round)
                    .num("benign_ac", r.benign_accuracy)
                    .num("attack_sr", r.attack_success_rate)
                    .finish()
            })
            .arr("clusters", &self.clusters, |out, c| {
                Obj::new(out)
                    .str("label", &c.label)
                    .ints("clients", &c.clients)
                    .num("label_cosine", c.label_cosine)
                    .num("attack_sr", c.attack_sr)
                    .num("benign_ac", c.benign_ac)
                    .finish()
            })
            .int("dropped_clients", self.dropped_clients)
            .int("shed_stragglers", self.shed_stragglers)
            .int("rejected_updates", self.rejected_updates)
            .int("checkpoint_failures", self.checkpoint_failures)
            .str("event_hash", &format!("{:#018x}", self.event_hash))
            .int("event_count", self.event_count)
            .finish();
        s
    }

    /// Reads a row back from its JSON line, the inverse of
    /// [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// Malformed JSON, a row of another layout than [`ROW_VERSION`], or a
    /// missing or mistyped key (a non-finite metric was written as `null`
    /// and does not read back as a number).
    pub fn from_json(line: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let row = json::parse(line)?;
        let schema_version: i64 = row.get_int("schema_version")?;
        if schema_version != ROW_VERSION {
            return Err(format!(
                "row layout version {schema_version}; this build reads version \
                 {ROW_VERSION} (rerun the grid to rewrite the row)"
            )
            .into());
        }
        let text = |key: &str| row.get_str(key).map(str::to_string);
        let hex = |key: &str| -> Result<u64, Box<dyn std::error::Error>> {
            Ok(u64::from_str_radix(
                row.get_str(key)?.trim_start_matches("0x"),
                16,
            )?)
        };
        let each = |key: &str| row.get_array(key).map(<[Value]>::iter);
        Ok(Self {
            cell: text("cell")?,
            index: row.get_int("index")?,
            schema_version,
            config_hash: hex("config_hash")?,
            dataset: text("dataset")?,
            attack: text("attack")?,
            defense: text("defense")?,
            algo: text("algo")?,
            alpha: row.get_f64("alpha")?,
            clients: row.get_int("clients")?,
            compromised: row.get_int("compromised")?,
            rounds: row.get_int("rounds")?,
            sim: row.get_bool("sim")?,
            benign_ac: row.get_f64("benign_ac")?,
            attack_sr: row.get_f64("attack_sr")?,
            top25_benign_ac: row.get_f64("top25_benign_ac")?,
            top25_attack_sr: row.get_f64("top25_attack_sr")?,
            client_metrics: each("client_metrics")?
                .map(|m| {
                    Ok((
                        m.get_int("id")?,
                        m.get_f64("benign_ac")?,
                        m.get_f64("attack_sr")?,
                    ))
                })
                .collect::<Result<_, json::Error>>()?,
            evaluations: each("evaluations")?
                .map(|r| {
                    Ok(RoundMetrics {
                        round: r.get_int("round")?,
                        benign_accuracy: r.get_f64("benign_ac")?,
                        attack_success_rate: r.get_f64("attack_sr")?,
                    })
                })
                .collect::<Result<_, json::Error>>()?,
            clusters: each("clusters")?
                .map(|c| {
                    Ok(ClusterReport {
                        label: c.get_str("label")?.to_string(),
                        clients: c.get_ints("clients")?,
                        label_cosine: c.get_f64("label_cosine")?,
                        attack_sr: c.get_f64("attack_sr")?,
                        benign_ac: c.get_f64("benign_ac")?,
                    })
                })
                .collect::<Result<_, json::Error>>()?,
            dropped_clients: row.get_int("dropped_clients")?,
            shed_stragglers: row.get_int("shed_stragglers")?,
            rejected_updates: row.get_int("rejected_updates")?,
            checkpoint_failures: row.get_int("checkpoint_failures")?,
            event_hash: hex("event_hash")?,
            event_count: row.get_int("event_count")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CellReport {
        CellReport {
            cell: "attack=collapois+defense=krum+variant=plain".to_string(),
            index: 3,
            schema_version: ROW_VERSION,
            config_hash: 0xfff0_1234_5678_9abc, // above 2^53: must survive
            dataset: "image".to_string(),
            attack: "collapois".to_string(),
            defense: "krum".to_string(),
            algo: "fedavg".to_string(),
            alpha: 1.0,
            clients: 12,
            compromised: 4,
            rounds: 4,
            sim: false,
            benign_ac: 0.75,
            attack_sr: 0.5,
            top25_benign_ac: 0.7,
            top25_attack_sr: 0.9,
            client_metrics: vec![(0, 0.8, 0.4), (5, 0.7, 0.6)],
            evaluations: vec![
                RoundMetrics {
                    round: 2,
                    benign_accuracy: 0.5,
                    attack_success_rate: 0.25,
                },
                RoundMetrics {
                    round: 4,
                    benign_accuracy: 0.75,
                    attack_success_rate: 0.5,
                },
            ],
            clusters: vec![ClusterReport {
                label: "1%".to_string(),
                clients: vec![5],
                label_cosine: 0.96,
                attack_sr: 0.6,
                benign_ac: 0.7,
            }],
            dropped_clients: 2,
            shed_stragglers: 1,
            rejected_updates: 0,
            checkpoint_failures: 0,
            event_hash: 0xcbf2_9ce4_8422_2325,
            event_count: 99,
        }
    }

    /// The canonical bytes of [`sample`]: resume and the golden fixtures
    /// depend on rows never changing form. A deliberate layout change
    /// updates this constant and bumps [`ROW_VERSION`].
    const SAMPLE_ROW: &str = concat!(
        r#"{"cell":"attack=collapois+defense=krum+variant=plain","index":3,"#,
        r#""schema_version":2,"config_hash":"0xfff0123456789abc","dataset":"image","#,
        r#""attack":"collapois","defense":"krum","algo":"fedavg","alpha":1.0,"#,
        r#""clients":12,"compromised":4,"rounds":4,"sim":false,"benign_ac":0.75,"#,
        r#""attack_sr":0.5,"top25_benign_ac":0.7,"top25_attack_sr":0.9,"#,
        r#""client_metrics":[{"id":0,"benign_ac":0.8,"attack_sr":0.4},"#,
        r#"{"id":5,"benign_ac":0.7,"attack_sr":0.6}],"#,
        r#""evaluations":[{"round":2,"benign_ac":0.5,"attack_sr":0.25},"#,
        r#"{"round":4,"benign_ac":0.75,"attack_sr":0.5}],"#,
        r#""clusters":[{"label":"1%","clients":[5],"label_cosine":0.96,"#,
        r#""attack_sr":0.6,"benign_ac":0.7}],"dropped_clients":2,"#,
        r#""shed_stragglers":1,"rejected_updates":0,"checkpoint_failures":0,"#,
        r#""event_hash":"0xcbf29ce484222325","event_count":99}"#,
    );

    fn keys(row: &json::Value) -> Vec<&str> {
        row.as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect()
    }

    #[test]
    fn hashes_serialize_as_full_precision_hex() {
        let line = sample().to_json();
        assert_eq!(line, SAMPLE_ROW);
        let row = json::parse(&line).unwrap();
        assert_eq!(row.get_str("config_hash").unwrap(), "0xfff0123456789abc");
        assert_eq!(row.get_str("event_hash").unwrap(), "0xcbf29ce484222325");
    }

    #[test]
    fn field_extraction_reads_the_writer_format() {
        let row = json::parse(&sample().to_json()).unwrap();
        assert_eq!(
            row.get_str("cell").unwrap(),
            "attack=collapois+defense=krum+variant=plain"
        );
        assert_eq!(row.get_int::<usize>("index"), Ok(3));
        assert_eq!(row.get_bool("sim"), Ok(false));
        assert_eq!(row.get_f64("benign_ac"), Ok(0.75));
        assert_eq!(row.get_int::<u64>("event_count"), Ok(99));
        let metrics = row.get_array("client_metrics").unwrap();
        assert_eq!(metrics[1].get_int::<usize>("id"), Ok(5));
        assert_eq!(metrics[1].get_f64("attack_sr"), Ok(0.6));
        assert!(row.get_str("no_such_key").is_err());
    }

    #[test]
    fn non_finite_metrics_serialize_as_null() {
        let mut r = sample();
        r.benign_ac = f64::NAN;
        r.client_metrics[0].2 = f64::INFINITY;
        let line = r.to_json();
        assert!(line.contains(r#""benign_ac":null,"#), "{line}");
        assert!(line.contains(r#""attack_sr":null}"#), "{line}");
        assert!(json::parse(&line).is_ok(), "the row stays valid JSON");
    }

    #[test]
    fn key_set_is_fixed_and_ordered() {
        let a = json::parse(&sample().to_json()).unwrap();
        let mut other = sample();
        other.defense = "none".to_string();
        other.client_metrics.clear();
        other.evaluations.clear();
        other.clusters.clear();
        other.sim = true;
        let b = json::parse(&other.to_json()).unwrap();
        let keys_a = keys(&a);
        assert_eq!(keys_a, keys(&b), "rows must stay schema-identical");
        assert_eq!(keys_a.first(), Some(&"cell"));
        assert_eq!(keys_a.last(), Some(&"event_count"));
        assert!(keys_a.contains(&"client_metrics"));
        assert!(keys_a.contains(&"dropped_clients"));
        assert!(keys_a.contains(&"evaluations") && keys_a.contains(&"clusters"));
        // Nested object keys must NOT leak into the top level.
        assert!(!keys_a.contains(&"id"));
    }

    #[test]
    fn rows_read_back_to_the_value_that_wrote_them() {
        assert_eq!(CellReport::from_json(SAMPLE_ROW).unwrap(), sample());
        let mut r = sample();
        r.cell = "we\"ird\\cell".to_string();
        r.evaluations.clear();
        r.clusters.clear();
        assert_eq!(CellReport::from_json(&r.to_json()).unwrap(), r);
        // A non-finite metric is written as null and refuses to read back.
        r.clusters.push(sample().clusters[0].clone());
        r.clusters[0].label_cosine = f64::NAN;
        let e = CellReport::from_json(&r.to_json()).unwrap_err();
        assert!(e.to_string().contains("label_cosine"), "{e}");
    }

    #[test]
    fn rows_of_another_layout_do_not_read() {
        let old = SAMPLE_ROW.replace(r#""schema_version":2"#, r#""schema_version":1"#);
        let e = CellReport::from_json(&old).unwrap_err();
        assert!(e.to_string().contains("version 1"), "{e}");
        assert!(CellReport::from_json("{").is_err());
    }

    /// A real run's evaluation series and Eq. 9 clusters survive the row
    /// bit for bit, so `collapois report` prints what the run measured.
    #[test]
    fn evaluations_and_clusters_read_back_bitwise() {
        use collapois_core::scenario::{RunOptions, Scenario};
        let spec = crate::schema::GridSpec::parse(
            "schema_version = 1\nname = \"t\"\n[base]\nclients = 8\n\
             samples_per_client = 12\ncompromised_frac = 0.5\nrounds = 4\n\
             eval_every = 2\nlocal_steps = 2\nbatch_size = 8\nsample_rate = 0.5\n\
             trojan_epochs = 2\n",
        )
        .unwrap();
        let cell = spec.cells().unwrap().remove(0);
        let report = Scenario::new(cell.spec.config.clone()).run_with(&RunOptions::default());
        assert_eq!(report.rounds.len(), 2);
        assert!(!report.clusters.is_empty());
        let row = CellReport::from_json(&CellReport::from_run(&cell, &report).to_json()).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let series = |rs: &[RoundMetrics]| {
            let flat: Vec<f64> = rs
                .iter()
                .flat_map(|r| [r.round as f64, r.benign_accuracy, r.attack_success_rate])
                .collect();
            bits(&flat)
        };
        assert_eq!(series(&row.evaluations), series(&report.rounds));
        let clusters = |cs: &[ClusterReport]| {
            cs.iter()
                .map(|c| {
                    let metrics = bits(&[c.label_cosine, c.attack_sr, c.benign_ac]);
                    (c.label.clone(), c.clients.clone(), metrics)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(clusters(&row.clusters), clusters(&report.clusters));
    }

    #[test]
    fn escapes_strings() {
        let mut r = sample();
        r.cell = "we\"ird\\cell".to_string();
        let row = json::parse(&r.to_json()).unwrap();
        assert_eq!(row.get_str("cell").unwrap(), "we\"ird\\cell");
    }
}
