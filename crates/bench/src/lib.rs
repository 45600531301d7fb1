//! Shared plumbing for the figure/table benchmark harness.
//!
//! Every paper figure has a `harness = false` bench target under
//! `benches/`; each prints the figure's rows/series as an aligned text
//! table. This crate provides the table printer, the scale knob
//! (`COLLAPOIS_SCALE=quick|full`) and the scenario presets the targets
//! share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use collapois_core::scenario::{RunOptions, Scenario, ScenarioConfig, ScenarioReport};
use collapois_runtime::json::Value;

/// Experiment scale, selected with the `COLLAPOIS_SCALE` environment
/// variable (`quick` default; `full` for larger N / more rounds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Small configuration: minutes for the whole suite.
    #[default]
    Quick,
    /// Larger configuration closer to the paper's ratios.
    Full,
}

impl Scale {
    /// Reads `COLLAPOIS_SCALE` (any value other than `full` means quick).
    pub fn from_env() -> Self {
        match std::env::var("COLLAPOIS_SCALE").as_deref() {
            Ok("full") => Self::Full,
            _ => Self::Quick,
        }
    }

    /// Applies the scale to a scenario configuration.
    pub fn apply(&self, mut cfg: ScenarioConfig) -> ScenarioConfig {
        if let Self::Full = self {
            cfg.num_clients = 200;
            cfg.samples_per_client = 50;
            cfg.rounds = 60;
            cfg.eval_every = 20;
            cfg.sample_rate = 0.1;
        }
        cfg
    }
}

/// The α sweep used throughout the paper's figures.
pub const ALPHAS: [f64; 5] = [0.01, 0.1, 1.0, 10.0, 100.0];

/// Execution options from the environment: `COLLAPOIS_WORKERS=N` fans
/// benign-client training over `N` worker threads. Results are
/// bit-identical for any worker count, so figures are reproducible
/// regardless of this knob.
pub fn run_options_from_env() -> RunOptions {
    let workers = std::env::var("COLLAPOIS_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(1);
    RunOptions {
        workers,
        ..RunOptions::default()
    }
}

/// Runs a scenario under the environment-derived execution options.
pub fn run_scenario(cfg: ScenarioConfig) -> ScenarioReport {
    Scenario::new(cfg).run_with(&run_options_from_env())
}

/// The `rounds_per_sec` of the (`scenario`, `workers`) row of a parsed
/// `BENCH_rounds.json`, looked up by name: the number the
/// `rounds_throughput --check` guard compares against. `None` when the
/// document has no such row.
pub fn baseline_rounds_per_sec(doc: &Value, scenario: &str, workers: u64) -> Option<f64> {
    let scenarios = doc.get_array("scenarios").ok()?;
    let sc = scenarios
        .iter()
        .find(|s| s.get_str("name") == Ok(scenario))?;
    let rows = sc.get_array("results").ok()?;
    let row = rows
        .iter()
        .find(|r| r.get_int::<u64>("workers") == Ok(workers))?;
    row.get_f64("rounds_per_sec").ok()
}

/// Simple aligned text-table printer for the figure outputs.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row/header length mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                line.push_str(cell);
                line.push_str(&" ".repeat(widths[i].saturating_sub(cell.len())));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout with a title banner.
    pub fn print(&self, title: &str) {
        println!("\n=== {title} ===");
        print!("{}", self.render());
    }

    /// Renders the table as CSV (cells containing commas or quotes are
    /// quoted) for downstream plotting.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .header
                .iter()
                .map(|c| quote(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a fraction as a percentage with two decimals.
pub fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

/// Formats a float with the given number of decimals.
pub fn num(x: f64, decimals: usize) -> String {
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["alpha", "attack sr"]);
        t.row(&["0.01".into(), pct(0.8333)]);
        t.row(&["100".into(), pct(0.7989)]);
        let s = t.render();
        assert!(s.contains("alpha"));
        assert!(s.contains("83.33%"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only one".into()]);
    }

    #[test]
    fn scale_default_is_quick() {
        assert_eq!(Scale::default(), Scale::Quick);
        let cfg = collapois_core::scenario::ScenarioConfig::quick_image(1.0, 0.01);
        let scaled = Scale::Full.apply(cfg.clone());
        assert!(scaled.num_clients > cfg.num_clients);
        let same = Scale::Quick.apply(cfg.clone());
        assert_eq!(same.num_clients, cfg.num_clients);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.00%");
        assert_eq!(num(std::f64::consts::PI, 2), "3.14");
    }

    #[test]
    fn committed_baselines_parse_structurally() {
        let read = |name: &str| {
            let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            collapois_runtime::json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        };
        let rounds = read("BENCH_rounds.json");
        assert_eq!(rounds.get_int::<u64>("host_parallelism"), Ok(1));
        assert_eq!(
            baseline_rounds_per_sec(&rounds, "clients64", 1),
            Some(491.947)
        );
        assert_eq!(
            baseline_rounds_per_sec(&rounds, "clients256", 1),
            Some(119.125)
        );
        assert_eq!(baseline_rounds_per_sec(&rounds, "clients64", 3), None);
        assert_eq!(baseline_rounds_per_sec(&rounds, "no-such", 1), None);
        let sim = read("BENCH_sim.json");
        assert_eq!(sim.get_int::<u64>("host_parallelism"), Ok(1));
        let results = sim.get_array("results").unwrap();
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].get_int::<u64>("workers"), Ok(1));
        assert!(results[0].get_f64("virtual_clients_per_sec").unwrap() > 0.0);
    }

    #[test]
    fn csv_export_quotes_when_needed() {
        let mut t = Table::new(&["name", "value"]);
        t.row(&["plain".into(), "1".into()]);
        t.row(&["with, comma".into(), "has \"quote\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with, comma\",\"has \"\"quote\"\"\"");
    }
}
