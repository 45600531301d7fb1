//! Fig. 3 — average angles among benign and compromised clients' gradients
//! as a function of the Dirichlet α (FEMNIST-sim).
//!
//! (a) benign clients in normal training vs CollaPois' compromised clients;
//! (b) compromised clients under DPois vs CollaPois.
//!
//! Paper shape: benign (and DPois-malicious) pairwise angles grow as α
//! shrinks — scattered gradients — while CollaPois' coordinated updates stay
//! nearly parallel at every α.

use collapois_core::analysis::pooled_mean_angles_deg;
use collapois_core::scenario::{AttackKind, FlAlgo, ScenarioConfig};
use collapois_grid::table::{num, Table};

fn main() {
    let alphas = [0.01, 0.1, 1.0, 10.0, 100.0];
    for algo in [FlAlgo::FedAvg, FlAlgo::FedDc] {
        let mut table = Table::new(&[
            "alpha",
            "benign angle (deg)",
            "collapois malicious (deg)",
            "dpois malicious (deg)",
        ]);
        for &alpha in &alphas {
            let mut collapois_cfg = ScenarioConfig::quick_image(alpha, 0.1);
            collapois_cfg.attack = AttackKind::CollaPois;
            collapois_cfg.algo = algo;
            collapois_cfg.collect_updates = true;
            collapois_cfg.rounds = collapois_cfg.rounds.min(15);
            collapois_cfg.eval_every = collapois_cfg.rounds;
            collapois_cfg.seed = 303;
            let mut dpois_cfg = collapois_cfg.clone();
            dpois_cfg.attack = AttackKind::DPois;

            let cp = collapois_bench::run_scenario(collapois_cfg);
            let dp = collapois_bench::run_scenario(dpois_cfg);
            let (benign, cp_mal) = pooled_mean_angles_deg(&cp.records, &cp.compromised);
            let (_, dp_mal) = pooled_mean_angles_deg(&dp.records, &dp.compromised);
            let fmt = |v: Option<f64>| v.map(|x| num(x, 2)).unwrap_or_else(|| "-".into());
            table.row(&[format!("{alpha}"), fmt(benign), fmt(cp_mal), fmt(dp_mal)]);
        }
        table.print(&format!(
            "Fig. 3 ({}): mean pairwise gradient angles vs alpha (FEMNIST-sim)",
            algo.name()
        ));
    }
    println!(
        "\nPaper shape: benign and DPois angles grow as alpha shrinks (non-IID scatter);\n\
         CollaPois' coordinated malicious gradients stay near 0 degrees at every alpha."
    );
}
