//! Shared plumbing for the bench targets.
//!
//! The paper's scenario figures and Table I are grid files under
//! `scenarios/figures/`, run by `collapois grid` and printed by `collapois
//! report`. The `harness = false` targets under `benches/` cover what a
//! grid cannot express (the theory figures, the trigger gallery, the §V
//! statistics battery, the inference-time defenses, shift detection, the
//! ablations) and the hot-path micro-benchmarks; each prints its rows
//! through the workspace's one table printer,
//! [`collapois_grid::table`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use collapois_core::scenario::{RunOptions, Scenario, ScenarioConfig, ScenarioReport};
use collapois_runtime::json::Value;

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
