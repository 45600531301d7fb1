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

use crate::schema::GridCell;
use collapois_core::scenario::ScenarioReport;
use collapois_runtime::json::Obj;

/// One cell's result row.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// Cell id (`attack=…+defense=…+variant=…`).
    pub cell: String,
    /// Position in expansion order.
    pub index: usize,
    /// Schema revision that produced this row.
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
            schema_version: crate::schema::SCHEMA_VERSION,
            config_hash: cell.config_hash,
            dataset: match report.config.dataset {
                collapois_core::scenario::DatasetKind::Image => "image".to_string(),
                collapois_core::scenario::DatasetKind::Text => "text".to_string(),
            },
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
        let mut s = String::with_capacity(256 + 48 * self.client_metrics.len());
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
            .int("dropped_clients", self.dropped_clients)
            .int("shed_stragglers", self.shed_stragglers)
            .int("rejected_updates", self.rejected_updates)
            .int("checkpoint_failures", self.checkpoint_failures)
            .str("event_hash", &format!("{:#018x}", self.event_hash))
            .int("event_count", self.event_count)
            .finish();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_runtime::json;

    fn sample() -> CellReport {
        CellReport {
            cell: "attack=collapois+defense=krum+variant=plain".to_string(),
            index: 3,
            schema_version: 1,
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
            dropped_clients: 2,
            shed_stragglers: 1,
            rejected_updates: 0,
            checkpoint_failures: 0,
            event_hash: 0xcbf2_9ce4_8422_2325,
            event_count: 99,
        }
    }

    /// The canonical bytes of [`sample`]: resume and the golden fixtures
    /// depend on rows never changing form.
    const SAMPLE_ROW: &str = concat!(
        r#"{"cell":"attack=collapois+defense=krum+variant=plain","index":3,"#,
        r#""schema_version":1,"config_hash":"0xfff0123456789abc","dataset":"image","#,
        r#""attack":"collapois","defense":"krum","algo":"fedavg","alpha":1.0,"#,
        r#""clients":12,"compromised":4,"rounds":4,"sim":false,"benign_ac":0.75,"#,
        r#""attack_sr":0.5,"top25_benign_ac":0.7,"top25_attack_sr":0.9,"#,
        r#""client_metrics":[{"id":0,"benign_ac":0.8,"attack_sr":0.4},"#,
        r#"{"id":5,"benign_ac":0.7,"attack_sr":0.6}],"dropped_clients":2,"#,
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
        other.sim = true;
        let b = json::parse(&other.to_json()).unwrap();
        let keys_a = keys(&a);
        assert_eq!(keys_a, keys(&b), "rows must stay schema-identical");
        assert_eq!(keys_a.first(), Some(&"cell"));
        assert_eq!(keys_a.last(), Some(&"event_count"));
        assert!(keys_a.contains(&"client_metrics"));
        assert!(keys_a.contains(&"dropped_clients"));
        // Nested object keys must NOT leak into the top level.
        assert!(!keys_a.contains(&"id"));
    }

    #[test]
    fn escapes_strings() {
        let mut r = sample();
        r.cell = "we\"ird\\cell".to_string();
        let row = json::parse(&r.to_json()).unwrap();
        assert_eq!(row.get_str("cell").unwrap(), "we\"ird\\cell");
    }
}
