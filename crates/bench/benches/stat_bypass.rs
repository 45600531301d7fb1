//! §V "Bypassing Defenses" — the statistical battery cannot separate
//! CollaPois' malicious gradients from benign ones.
//!
//! Runs CollaPois with the stealth configuration (narrow ψ, shared clipping
//! bound) and applies the t-test (mean angle), Levene (variance),
//! Kolmogorov–Smirnov (distribution) and the 3σ rule (magnitude outliers).
//! Paper numbers: no significant difference on any test and only a ~3.5 %
//! chance a malicious gradient is flagged as an outlier.

use collapois_core::analysis::split_updates;
use collapois_core::collapois::CollaPoisConfig;
use collapois_core::scenario::{AttackKind, ScenarioConfig};
use collapois_core::stealth::stealth_battery;
use collapois_fl::aggregate::StatFilter;
use collapois_grid::table::{num, pct, Table};
use collapois_runtime::pool::WorkerPool;

fn main() {
    let mut cfg = ScenarioConfig::quick_image(0.1, 0.1);
    cfg.attack = AttackKind::CollaPois;
    cfg.collapois = CollaPoisConfig {
        psi_low: 0.95,
        psi_high: 0.99,
        clip_bound: Some(0.8),
        min_norm: None,
    };
    cfg.collect_updates = true;
    // SS IV-D: the attacker tunes the stealth window; blending is measured
    // over the active-poisoning phase before the global model has fully
    // converged onto X (after convergence every update, benign or not,
    // shrinks to noise and screening is moot).
    cfg.rounds = 16;
    cfg.eval_every = cfg.rounds;
    cfg.seed = 3001;
    let report = collapois_bench::run_scenario(cfg);

    let mut background = Vec::new();
    let mut benign = Vec::new();
    let mut malicious = Vec::new();
    for r in &report.records {
        let Some(updates) = &r.updates else { continue };
        let (b, m) = split_updates(updates, &report.compromised);
        if r.round % 2 == 0 {
            background.extend(b);
        } else {
            benign.extend(b);
            malicious.extend(m);
        }
    }
    let rep = stealth_battery(&benign, &malicious, &background).expect("battery");

    let mut table = Table::new(&["test", "statistic", "p-value", "separates?"]);
    let mut push = |name: &str, r: &collapois_stats::hypothesis::TestResult| {
        table.row(&[
            name.into(),
            num(r.statistic, 4),
            format!("{:.3e}", r.p_value),
            if r.rejects_at(0.01) {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
    };
    push("t-test (mean angle)", &rep.angle_t_test);
    push("levene (angle variance)", &rep.angle_levene);
    push("ks (angle distribution)", &rep.angle_ks);
    push("t-test (magnitude)", &rep.magnitude_t_test);
    table.print(
        "Bypassing statistical defenses: malicious vs benign gradients (CollaPois, stealth config)",
    );
    println!(
        "\n3-sigma outlier flag rate for malicious gradients: {}",
        pct(rep.three_sigma_rate)
    );
    println!("Benign angles:    {}", rep.benign_angles);
    println!("Malicious angles: {}", rep.malicious_angles);
    println!(
        "\nPaper shape: the magnitude channel blends fully (3-sigma flag rate in the\n\
         low single digits; paper: 3.5%). At this simulation scale the angle channel\n\
         remains separable once enough coordinated updates accumulate (n~15 at 60\n\
         clients) - a scale artifact discussed in EXPERIMENTS.md: the paper's\n\
         high-dimensional, 3400-client regime drowns the angle offset in noise."
    );

    // MESAS-style per-round screening: how often does the StatFilter
    // aggregator flag a CollaPois update?
    let mut filter = StatFilter::new();
    let pool = WorkerPool::new(1);
    let mut flagged_malicious = 0usize;
    let mut total_malicious = 0usize;
    for r in &report.records {
        let Some(updates) = &r.updates else { continue };
        if r.num_malicious == 0 {
            continue;
        }
        let dim = updates[0].delta.len();
        let flags = filter.flagged(updates, dim, &pool);
        for (i, u) in updates.iter().enumerate() {
            if report.compromised.contains(&u.client_id) {
                total_malicious += 1;
                if flags.contains(&i) {
                    flagged_malicious += 1;
                }
            }
        }
    }
    let rate = flagged_malicious as f64 / total_malicious.max(1) as f64;
    println!(
        "\nMESAS-style StatFilter screening: {}/{} malicious updates flagged ({}).",
        flagged_malicious,
        total_malicious,
        pct(rate)
    );
}
