//! `collapois report REPORT.jsonl`: the figure tables of a grid report.
//!
//! Every number the paper's scenario figures need is in the rows: one line
//! per cell (its axis values, the compromised count, Benign AC, Attack SR,
//! top-1/25/50 % SR by the Eq. 8 ranking, and Fig. 11's client
//! histograms), then every cell's evaluation series (Fig. 13) and its
//! Eq. 9 cluster rows (Fig. 12).

use collapois_fl::metrics::{population, top_k_percent, ClientMetrics};
use collapois_grid::report::CellReport;
use collapois_grid::table::{num, pct, Table};
use collapois_stats::descriptive::histogram;

/// The top-k % columns, in percent.
const TOP_K: [f64; 3] = [1.0, 25.0, 50.0];

/// Fig. 11's histograms: clients per fifth of [0, 100 %].
const BINS: usize = 5;

/// The axis values of a cell id: `attack=dpois+alpha=0.01` gives
/// `[("attack", "dpois"), ("alpha", "0.01")]`; an axis-free grid's single
/// cell `cell` gives `[("cell", "cell")]`.
fn axes(id: &str) -> Vec<(&str, &str)> {
    id.split('+')
        .map(|part| part.split_once('=').unwrap_or(("cell", part)))
        .collect()
}

/// The Attack SR over a row's top `k` % clients, ranked by Eq. 8 as
/// [`ScenarioReport::top_k`](collapois_core::scenario::ScenarioReport::top_k)
/// ranks them.
fn top_k_sr(row: &CellReport, k: f64) -> f64 {
    let clients: Vec<ClientMetrics> = row
        .client_metrics
        .iter()
        .map(|&(client_id, benign_ac, attack_sr)| ClientMetrics {
            client_id,
            benign_ac,
            attack_sr,
        })
        .collect();
    population(&top_k_percent(&clients, k)).attack_sr
}

/// Per-bin client counts over [0, 100 %], joined as `a/b/c/d/e`.
fn bins(values: impl Iterator<Item = f64>) -> String {
    let values: Vec<f64> = values.collect();
    let counts = histogram(&values, 0.0, 1.0 + 1e-9, BINS);
    counts
        .iter()
        .map(usize::to_string)
        .collect::<Vec<_>>()
        .join("/")
}

/// Renders the three tables of `rows`, which must come from one grid (every
/// cell id names the same axes).
///
/// # Errors
///
/// A row whose axes differ from the first row's.
pub fn render(rows: &[CellReport]) -> Result<String, String> {
    let names: Vec<&str> = rows
        .first()
        .map(|r| axes(&r.cell).iter().map(|&(k, _)| k).collect())
        .unwrap_or_default();
    let columns = |own: &[&str]| Table::new(&[&names[..], own].concat());
    let mut cells = columns(&[
        "compromised",
        "benign ac",
        "attack sr",
        "top-1% sr",
        "top-25% sr",
        "top-50% sr",
        "sr histogram",
        "ac histogram",
    ]);
    let mut evaluations = columns(&["round", "benign ac", "attack sr"]);
    let mut clusters = columns(&[
        "cluster",
        "clients",
        "CS_k (Eq. 9)",
        "attack sr",
        "benign ac",
    ]);
    for row in rows {
        let (keys, values): (Vec<&str>, Vec<String>) = axes(&row.cell)
            .into_iter()
            .map(|(k, v)| (k, v.to_string()))
            .unzip();
        if keys != names {
            return Err(format!(
                "cell '{}' has axes {keys:?}, unlike the first row's {names:?}",
                row.cell
            ));
        }
        let with = |own: Vec<String>| [&values[..], &own[..]].concat();
        let mut line = vec![
            row.compromised.to_string(),
            pct(row.benign_ac),
            pct(row.attack_sr),
        ];
        line.extend(TOP_K.map(|k| pct(top_k_sr(row, k))));
        line.push(bins(row.client_metrics.iter().map(|m| m.2)));
        line.push(bins(row.client_metrics.iter().map(|m| m.1)));
        cells.row(&with(line));
        for r in &row.evaluations {
            evaluations.row(&with(vec![
                r.round.to_string(),
                pct(r.benign_accuracy),
                pct(r.attack_success_rate),
            ]));
        }
        for c in &row.clusters {
            clusters.row(&with(vec![
                c.label.clone(),
                c.clients.len().to_string(),
                num(c.label_cosine, 4),
                pct(c.attack_sr),
                pct(c.benign_ac),
            ]));
        }
    }
    Ok(format!(
        "=== {} cells (histograms: clients per fifth of [0%, 100%]) ===\n{}\n\
         === evaluations ===\n{}\n=== clusters ===\n{}",
        rows.len(),
        cells.render(),
        evaluations.render(),
        clusters.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_core::scenario::{RunOptions, Scenario};
    use collapois_grid::schema::GridSpec;

    #[test]
    fn axes_come_from_the_cell_id() {
        assert_eq!(
            axes("attack=dpois+compromised_frac=0.001+variant=plain"),
            [
                ("attack", "dpois"),
                ("compromised_frac", "0.001"),
                ("variant", "plain")
            ]
        );
        assert_eq!(axes("cell"), [("cell", "cell")]);
    }

    /// The reader's top-k over a row is the run's own `top_k`, and every
    /// section prints one line per cell, evaluation point and cluster.
    #[test]
    fn report_matches_the_run_it_reads() {
        let spec = GridSpec::parse(
            "schema_version = 1\nname = \"t\"\n[base]\nclients = 12\n\
             samples_per_client = 12\ncompromised_frac = 0.3\nrounds = 4\n\
             eval_every = 2\nlocal_steps = 2\nbatch_size = 8\nsample_rate = 0.5\n\
             trojan_epochs = 2\n[axes]\nalpha = [0.1, 100.0]\n",
        )
        .unwrap();
        let mut rows = Vec::new();
        for cell in spec.cells().unwrap() {
            let run = Scenario::new(cell.spec.config.clone()).run_with(&RunOptions::default());
            let row = CellReport::from_json(&CellReport::from_run(&cell, &run).to_json()).unwrap();
            for k in TOP_K {
                assert_eq!(
                    top_k_sr(&row, k).to_bits(),
                    run.top_k(k).attack_sr.to_bits()
                );
            }
            rows.push(row);
        }
        let text = render(&rows).unwrap();
        assert!(text.starts_with("=== 2 cells"), "{text}");
        let lines_with = |needle: &str| text.lines().filter(|l| l.starts_with(needle)).count();
        let first = 1 + rows[0].evaluations.len() + rows[0].clusters.len();
        assert_eq!(lines_with("0.1 "), first, "{text}");
        assert_eq!(lines_with("alpha "), 3, "one header per section");
        let mut foreign = rows[1].clone();
        foreign.cell = "defense=krum".to_string();
        let e = render(&[rows[0].clone(), foreign]).unwrap_err();
        assert!(e.contains("defense=krum"), "{e}");
    }
}
