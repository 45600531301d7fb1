//! Fig. 5 — 3D surface of Theorem 1's lower bound |C|/|N| over (μ_α, σ).
//!
//! Pure formula evaluation (Eq. 5) with the paper's ψ ~ U[0.9, 1]. The
//! paper's shape: the required fraction of compromised clients decreases
//! monotonically as either the mean angle μ_α or its spread σ grows.

use collapois_core::theory::theorem1_bound;
use collapois_grid::table::{num, Table};

fn main() {
    let (a, b) = (0.9, 1.0);
    let n = 1000usize;
    let sigmas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0];
    let mut table = Table::new(&[
        "mu (rad)",
        "sigma=0.0",
        "sigma=0.2",
        "sigma=0.4",
        "sigma=0.6",
        "sigma=0.8",
        "sigma=1.0",
    ]);
    for mu_step in 0..=12 {
        let mu = mu_step as f64 * 0.1;
        let mut row = vec![num(mu, 1)];
        for &sigma in &sigmas {
            let frac = theorem1_bound(mu, sigma, a, b, n) / n as f64;
            row.push(num(frac, 4));
        }
        table.row(&row);
    }
    table.print(
        "Fig. 5: Theorem 1 lower bound |C|/|N| as a function of (mu_alpha, sigma), psi~U[0.9,1]",
    );

    // Sanity line mirroring the paper's reading of the surface.
    let tight = theorem1_bound(0.1, 0.1, a, b, n) / n as f64;
    let loose = theorem1_bound(1.2, 0.8, a, b, n) / n as f64;
    println!(
        "\nIID-like clients (mu=0.1, sigma=0.1) need {:.1}% compromised; \
         highly non-IID (mu=1.2, sigma=0.8) need {:.1}% — scatter makes the attack cheap.",
        100.0 * tight,
        100.0 * loose
    );
}
