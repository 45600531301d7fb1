//! Fig. 4 — accuracy of the attacker's Theorem 1 estimate as a function of
//! α (FEMNIST-sim).
//!
//! The attacker estimates the benign-angle statistics `(μ_α, σ)` from the
//! first ten training rounds and plugs them into Eq. 5; the reference uses
//! the full run. The paper reports the relative error of the resulting |C|
//! bound: small (≈2.2 % at α = 0.01, ≈0.6 % at α = 100) but growing as α
//! shrinks.
//!
//! At this simulation scale the measured benign angles sit near 90° —
//! `2 − σ² − μ_α² < 0`, so Eq. 5's bound is 0 ("any coordinated set
//! succeeds") at every α, and the |C|-relative error is degenerate. The
//! table therefore reports the attacker's relative error on μ_α itself (the
//! quantity whose estimate drives the bound) next to the implied bound and
//! the Hoeffding half-width, preserving the figure's question: *how fast
//! can the attacker estimate the diversity statistics, and how does α
//! affect it?*

use collapois_core::analysis::split_updates;
use collapois_core::scenario::{AttackKind, ScenarioConfig};
use collapois_core::theory::theorem1::{estimate_angle_stats, theorem1_bound};
use collapois_grid::table::{num, pct, Table};
use collapois_stats::geometry::{angles_to_reference, mean_vector};
use collapois_stats::hoeffding;

fn main() {
    let alphas = [0.01, 0.1, 1.0, 10.0, 100.0];
    let mut table = Table::new(&[
        "alpha",
        "mu (deg, full run)",
        "mu error (first 10 rounds)",
        "sigma error",
        "implied |C| bound",
        "hoeffding eps (deg)",
    ]);
    for &alpha in &alphas {
        let mut cfg = ScenarioConfig::quick_image(alpha, 0.1);
        cfg.attack = AttackKind::CollaPois;
        cfg.collect_updates = true;
        cfg.rounds = cfg.rounds.max(30);
        cfg.eval_every = cfg.rounds;
        cfg.seed = 404;
        let n = cfg.num_clients;
        let (a, b) = (cfg.collapois.psi_low, cfg.collapois.psi_high);
        let report = collapois_bench::run_scenario(cfg);

        let mut early = Vec::new();
        let mut all = Vec::new();
        for r in &report.records {
            let Some(updates) = &r.updates else { continue };
            let (benign, malicious) = split_updates(updates, &report.compromised);
            let Some(mal_dir) = mean_vector(&malicious) else {
                continue;
            };
            let angles = angles_to_reference(&benign, &mal_dir);
            if r.round < 10 {
                early.extend(angles.iter().copied());
            }
            all.extend(angles);
        }
        if early.len() < 2 || all.len() < 2 {
            table.row(&[
                format!("{alpha}"),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
            continue;
        }
        let sample = estimate_angle_stats(&early);
        let truth = estimate_angle_stats(&all);
        let mu_err = ((sample.mu - truth.mu) / truth.mu).abs();
        let sigma_err = if truth.sigma > 1e-9 {
            ((sample.sigma - truth.sigma) / truth.sigma).abs()
        } else {
            0.0
        };
        let bound = theorem1_bound(sample.mu, sample.sigma, a, b, n);
        let eps = hoeffding::deviation(early.len(), 0.0, std::f64::consts::PI, 0.05);
        table.row(&[
            format!("{alpha}"),
            num(truth.mu.to_degrees(), 2),
            pct(mu_err),
            pct(sigma_err),
            num(bound, 2),
            num(eps.to_degrees(), 2),
        ]);
    }
    table.print("Fig. 4: attacker's Theorem 1 estimation error vs alpha (FEMNIST-sim, first 10 rounds vs full run)");
    println!(
        "\nPaper shape: the estimate from <10 rounds is within a few percent of the\n\
         full-run statistics, with the error growing as alpha shrinks. At this scale\n\
         the measured mu exceeds sqrt(2) rad, so Eq. 5's bound is 0 at every alpha\n\
         (any coordinated cohort suffices in the worst-case model)."
    );
}
