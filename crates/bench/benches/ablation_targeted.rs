//! Ablation — the §VI "semi-ready" targeted variant: duty-cycled or delayed
//! activation trades attack speed for an even smaller poisoning footprint.

use collapois_core::scenario::{auxiliary_data, Scenario, ScenarioConfig};
use collapois_core::targeted::{ActivationPolicy, TargetedCollaPois};
use collapois_core::trojan::train_trojan;
use collapois_data::federated::FederatedDataset;
use collapois_fl::config::FlConfig;
use collapois_fl::metrics::population;
use collapois_fl::personalize::NoPersonalization;
use collapois_fl::server::FlServer;
use collapois_grid::table::{pct, Table};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn main() {
    let base = ScenarioConfig::quick_image(0.1, 0.05);
    let spec = base.model_spec();
    let trigger = base.build_trigger();

    // Build the shared data/trojan once so the policies are compared on
    // identical footing.
    let dataset = Scenario::new(base.clone()).generate_dataset();
    let mut rng = StdRng::seed_from_u64(base.seed ^ 0x5CE0);
    let fed = FederatedDataset::build(&mut rng, &dataset, base.num_clients, base.alpha);
    let mut ids: Vec<usize> = (0..base.num_clients).collect();
    ids.shuffle(&mut rng);
    let mut compromised: Vec<usize> = ids.into_iter().take(base.num_compromised()).collect();
    compromised.sort_unstable();
    let aux = auxiliary_data(&fed, &compromised);
    let x = train_trojan(&spec, &aux, trigger.as_ref(), &base.trojan);

    let policies = [
        ("every round", ActivationPolicy::EveryNth { period: 1 }),
        ("every 2nd", ActivationPolicy::EveryNth { period: 2 }),
        ("every 5th", ActivationPolicy::EveryNth { period: 5 }),
        (
            "after T/2",
            ActivationPolicy::After {
                start: base.rounds / 2,
            },
        ),
    ];
    let mut table = Table::new(&["activation", "rounds attacked", "benign ac", "attack sr"]);
    for (label, policy) in policies {
        let fl_cfg = FlConfig {
            model: spec.clone(),
            rounds: base.rounds,
            local_steps: base.local_steps,
            batch_size: base.batch_size,
            client_lr: base.client_lr,
            server_lr: base.server_lr,
            sample_rate: base.sample_rate,
            seed: base.seed,
            eval_every: base.eval_every,
            quantization: base.quantization,
        };
        let mut server = FlServer::new(
            fl_cfg,
            fed.clone(),
            Box::new(collapois_fl::aggregate::FedAvg::new()),
            Box::new(NoPersonalization::new()),
        );
        let mut adv = TargetedCollaPois::new(
            compromised.clone(),
            x.params.clone(),
            base.collapois,
            policy,
        );
        for _ in 0..base.rounds {
            server.run_round(Some(&mut adv));
        }
        let metrics = server.evaluate_clients(
            &spec,
            &collapois_data::poison::TriggerBackdoor(trigger.as_ref()),
            base.trojan.target_class,
            &compromised,
        );
        let pop = population(&metrics);
        table.row(&[
            label.into(),
            format!("{}", adv.attacked_rounds().len()),
            pct(pop.benign_ac),
            pct(pop.attack_sr),
        ]);
    }
    table.print("Ablation: targeted (semi-ready) activation policies (CollaPois, FEMNIST-sim)");
    println!(
        "\nReading: sparser activation lowers the poisoning footprint; the backdoor\n\
         still lands once the pull rounds accumulate (the paper's SS VI escalation)."
    );
}
