//! Fig. 14 — WaNet triggers are visually imperceptible: backdoor and
//! legitimate samples are "almost identical".
//!
//! Renders a clean sample and its warped counterpart as ASCII art and
//! reports the L∞/L2 perturbation across warp strengths, contrasted with the
//! (visible) BadNets patch and DBA patterns.

use collapois_core::scenario::IMAGE_SIDE;
use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
use collapois_data::trigger::{
    l2_perturbation, linf_perturbation, DbaTrigger, PatchTrigger, Trigger, WaNetTrigger,
};
use collapois_grid::table::{num, Table};

fn ascii(image: &[f32], side: usize) -> String {
    let ramp: &[u8] = b" .:-=+*#%@";
    let mut out = String::new();
    for y in 0..side {
        for x in 0..side {
            let v = image[y * side + x].clamp(0.0, 1.0);
            let idx = ((v * (ramp.len() - 1) as f32).round()) as usize;
            out.push(ramp[idx] as char);
            out.push(ramp[idx] as char);
        }
        out.push('\n');
    }
    out
}

fn main() {
    let side = IMAGE_SIDE;
    let ds = SyntheticImage::new(SyntheticImageConfig {
        side,
        classes: 6,
        samples: 12,
        noise: 0.02,
        max_shift: 0,
        seed: 14,
    })
    .generate();
    let clean = ds.features_of(3).to_vec();

    println!("=== Fig. 14: WaNet trigger imperceptibility (FEMNIST-sim) ===");
    println!("\nLegitimate sample:\n{}", ascii(&clean, side));
    let wanet = WaNetTrigger::new(side, 4, 3.0, 0x7716);
    let mut warped = clean.clone();
    wanet.apply(&mut warped);
    println!("Backdoor (WaNet-warped) sample:\n{}", ascii(&warped, side));

    let mut table = Table::new(&["trigger", "linf perturbation", "l2 perturbation"]);
    for strength in [0.5, 1.0, 2.0, 3.0, 5.0] {
        let t = WaNetTrigger::new(side, 4, strength, 0x7716);
        table.row(&[
            format!("wanet s={strength}"),
            num(linf_perturbation(&t, &clean) as f64, 4),
            num(l2_perturbation(&t, &clean), 4),
        ]);
    }
    let patch = PatchTrigger::badnets(side);
    table.row(&[
        "badnets patch".into(),
        num(linf_perturbation(&patch, &clean) as f64, 4),
        num(l2_perturbation(&patch, &clean), 4),
    ]);
    let dba = DbaTrigger::new(side, 2, 1.0);
    table.row(&[
        "dba composed".into(),
        num(linf_perturbation(&dba, &clean) as f64, 4),
        num(l2_perturbation(&dba, &clean), 4),
    ]);
    table.print("Perturbation magnitudes (lower = less perceptible)");
    println!(
        "\nPaper shape: WaNet's smooth geometric warp perturbs far less than pixel\n\
         patches at comparable trigger learnability — backdoor and legitimate\n\
         samples are almost identical."
    );
}
