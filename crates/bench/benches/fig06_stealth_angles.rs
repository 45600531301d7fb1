//! Fig. 6 — attack stealthiness: angles between malicious/benign gradients
//! and a set of sampled background gradients (FEMNIST-sim, ψ ~ U[0.95, 0.99]
//! with a shared clipping bound).
//!
//! Paper shape: compromised clients' angle statistics (mean and variance)
//! blend into the benign clients' — the two groups are "blended and
//! modestly different".

use collapois_core::analysis::split_updates;
use collapois_core::collapois::CollaPoisConfig;
use collapois_core::scenario::{AttackKind, ScenarioConfig};
use collapois_core::stealth::gradient_features;
use collapois_grid::table::{num, Table};
use collapois_stats::descriptive::Summary;

fn main() {
    let mut cfg = ScenarioConfig::quick_image(0.1, 0.1);
    cfg.attack = AttackKind::CollaPois;
    // The paper's stealth configuration: narrow psi plus clipping into the
    // benign magnitude range.
    cfg.collapois = CollaPoisConfig {
        psi_low: 0.95,
        psi_high: 0.99,
        clip_bound: Some(0.8),
        min_norm: None,
    };
    cfg.collect_updates = true;
    cfg.rounds = cfg.rounds.max(20);
    cfg.eval_every = cfg.rounds;
    cfg.seed = 606;
    let report = collapois_bench::run_scenario(cfg);

    // Background = benign updates of even rounds; measured groups come from
    // odd rounds (disjoint samples, mimicking the attacker's sampled clean
    // gradients).
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
    let bf = gradient_features(&benign, &background).expect("benign features");
    let mf = gradient_features(&malicious, &background).expect("malicious features");
    let bs = Summary::of(&bf.angles);
    let ms = Summary::of(&mf.angles);
    let bm = Summary::of(&bf.magnitudes);
    let mm = Summary::of(&mf.magnitudes);

    let mut table = Table::new(&[
        "group",
        "mean angle (deg)",
        "angle std",
        "mean |grad|",
        "|grad| std",
    ]);
    table.row(&[
        "benign".into(),
        num(bs.mean.to_degrees(), 2),
        num(bs.std.to_degrees(), 2),
        num(bm.mean, 4),
        num(bm.std, 4),
    ]);
    table.row(&[
        "compromised".into(),
        num(ms.mean.to_degrees(), 2),
        num(ms.std.to_degrees(), 2),
        num(mm.mean, 4),
        num(mm.std, 4),
    ]);
    table.print("Fig. 6: angles/magnitudes of malicious vs benign gradients against sampled background (psi~U[0.95,0.99], clipped)");
    println!(
        "\nPaper shape: the compromised group's mean angle and variance sit within the\n\
         benign group's range — malicious gradients blend into the background."
    );
}
