//! Client-level risk profiling: which clients get backdoored and why.
//!
//! Reproduces the paper's client-level analysis (Figs. 11 and 12): ranks
//! benign clients by the Eq. 8 infection score, groups them into risk
//! clusters and correlates each cluster's Attack SR with the Eq. 9
//! cumulative-label-distribution cosine to the attacker's auxiliary data.
//!
//! ```bash
//! cargo run --release --example client_risk_profile
//! ```

use collapois::core::scenario::{AttackKind, Scenario, ScenarioConfig};

fn main() {
    let mut cfg = ScenarioConfig::quick_image(0.1, 0.05);
    cfg.attack = AttackKind::CollaPois;
    cfg.rounds = 30;
    cfg.eval_every = 30;
    println!(
        "Profiling {} clients (alpha={}, {} compromised)...\n",
        cfg.num_clients,
        cfg.alpha,
        cfg.num_compromised()
    );
    let report = Scenario::new(cfg).run();

    // Cluster view (Fig. 12).
    println!(
        "{:<12} {:>8} {:>12} {:>10} {:>10}",
        "cluster", "clients", "CS_k (Eq.9)", "attack SR", "benign AC"
    );
    for c in &report.clusters {
        println!(
            "{:<12} {:>8} {:>12.4} {:>9.2}% {:>9.2}%",
            c.label,
            c.clients.len(),
            c.label_cosine,
            100.0 * c.attack_sr,
            100.0 * c.benign_ac
        );
    }

    // Per-client view (Fig. 11): the ten most and least affected clients.
    let mut sorted = report.clients;
    sorted.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
    println!("\nMost affected clients (Eq. 8 score ranking):");
    println!("{:<10} {:>10} {:>10}", "client", "benign AC", "attack SR");
    for m in sorted.iter().take(5) {
        println!(
            "{:<10} {:>9.2}% {:>9.2}%",
            m.client_id,
            100.0 * m.benign_ac,
            100.0 * m.attack_sr
        );
    }
    println!("Least affected clients:");
    for m in sorted.iter().rev().take(5) {
        println!(
            "{:<10} {:>9.2}% {:>9.2}%",
            m.client_id,
            100.0 * m.benign_ac,
            100.0 * m.attack_sr
        );
    }
    println!(
        "\nReading: clients whose label mix is closest to the compromised clients'\n\
         auxiliary data (higher CS_k) carry the highest backdoor risk."
    );
}
