//! Benign client-side local training.

use crate::config::FlConfig;
use crate::scratch::ClientScratch;
use collapois_data::sample::Dataset;
use collapois_nn::optim::Sgd;
use rand::Rng;

/// An in-place update applied to the parameter arena after every local SGD
/// step.
#[derive(Debug, Clone, Copy)]
pub enum Correction<'a> {
    /// Plain local SGD.
    None,
    /// Proximal pull toward `anchor`, `θ ← θ − min(η·μ, 1)·(θ − anchor)`:
    /// the gradient step of a `μ/2·‖θ − anchor‖²` term, clamped so that a
    /// very large μ pins the iterate to the anchor instead of diverging
    /// (FedDC-style drift control, Ditto's personal model). `μ = 0` is
    /// plain local SGD.
    Prox {
        /// Proximal weight μ.
        mu: f64,
        /// The model the iterate is pulled toward.
        anchor: &'a [f32],
    },
    /// SCAFFOLD's variance-reduction step `θ ← θ − η·(c − c_i)`
    /// [Karimireddy et al., ICML 2020], with `c − c_i` (server minus client
    /// control variate) precomputed. An all-zero correction is plain local
    /// SGD.
    Control(&'a [f32]),
}

/// Reloads `scratch.model` from `start` and trains it for `cfg.local_steps`
/// minibatches through the persistent workspace, applying `correction`
/// after each step. The trained parameters stay in the model's arena
/// (`scratch.model.params()`); no heap is touched after arena warm-up.
///
/// # Panics
///
/// Panics if `data` is empty or a [`Correction::Control`] vector has the
/// wrong dimension.
pub fn local_sgd<R: Rng + ?Sized>(
    rng: &mut R,
    scratch: &mut ClientScratch,
    start: &[f32],
    data: &Dataset,
    cfg: &FlConfig,
    correction: Correction<'_>,
) {
    assert!(!data.is_empty(), "client has no training data");
    // Corrections that cannot move the iterate are skipped outright.
    let correction = match correction {
        Correction::Prox { mu, .. } if mu <= 0.0 => Correction::None,
        Correction::Control(c) => {
            assert_eq!(c.len(), start.len(), "correction dimension");
            if c.iter().any(|&v| v != 0.0) {
                correction
            } else {
                Correction::None
            }
        }
        other => other,
    };
    scratch.model.set_params(start);
    let mut opt = Sgd::new(cfg.client_lr);
    for _ in 0..cfg.local_steps {
        scratch.train_step(rng, data, cfg.batch_size, &mut opt);
        let params = scratch.model.params_mut();
        match correction {
            Correction::None => {}
            Correction::Prox { mu, anchor } => {
                let lr_mu = (cfg.client_lr * mu).min(1.0) as f32;
                for (p, &a) in params.iter_mut().zip(anchor) {
                    *p -= lr_mu * (*p - a);
                }
            }
            Correction::Control(c) => {
                let lr = cfg.client_lr as f32;
                for (p, &cv) in params.iter_mut().zip(c) {
                    *p -= lr * cv;
                }
            }
        }
    }
}

/// [`local_sgd`] from `global`, leaving the delta `θ_local − θ_global` in
/// `scratch.delta` (read straight off the parameter arena).
///
/// # Panics
///
/// As [`local_sgd`].
pub fn local_sgd_delta_into<R: Rng + ?Sized>(
    rng: &mut R,
    scratch: &mut ClientScratch,
    global: &[f32],
    data: &Dataset,
    cfg: &FlConfig,
    correction: Correction<'_>,
) {
    local_sgd(rng, scratch, global, data, cfg, correction);
    scratch.store_delta(global);
}

#[cfg(test)]
mod tests {
    use super::*;
    use collapois_nn::zoo::ModelSpec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data() -> Dataset {
        let mut ds = Dataset::empty(&[2], 2);
        for i in 0..32 {
            let c = i % 2;
            let v = if c == 0 { 0.0 } else { 1.0 };
            ds.push(&[v, 1.0 - v], c);
        }
        ds
    }

    fn setup() -> (FlConfig, ClientScratch, Vec<f32>) {
        let spec = ModelSpec::mlp(2, &[8], 2);
        let cfg = FlConfig::quick(spec.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let model = spec.build(&mut rng);
        let global = model.params().to_vec();
        (cfg, ClientScratch::for_model(&model), global)
    }

    /// The delta of one seeded local-training run.
    fn delta(
        seed: u64,
        scratch: &mut ClientScratch,
        global: &[f32],
        cfg: &FlConfig,
        correction: Correction<'_>,
    ) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        local_sgd_delta_into(&mut rng, scratch, global, &toy_data(), cfg, correction);
        scratch.delta.clone()
    }

    #[test]
    fn delta_has_param_dimension_and_moves() {
        let (cfg, mut scratch, global) = setup();
        let d = delta(1, &mut scratch, &global, &cfg, Correction::None);
        assert_eq!(d.len(), global.len());
        assert!(d.iter().any(|&v| v != 0.0), "training must move the model");
        // The trained parameters stay in the model's arena.
        let trained: Vec<f32> = global.iter().zip(&d).map(|(g, v)| g + v).collect();
        for (t, p) in trained.iter().zip(scratch.model.params()) {
            assert!((t - p).abs() < 1e-6);
        }
    }

    #[test]
    fn prox_term_shrinks_delta() {
        let (mut cfg, mut scratch, global) = setup();
        cfg.local_steps = 20;
        let free = delta(2, &mut scratch, &global, &cfg, Correction::None);
        let prox = Correction::Prox {
            mu: 50.0,
            anchor: &global,
        };
        let pulled = delta(2, &mut scratch, &global, &cfg, prox);
        let n_free = collapois_stats::geometry::l2_norm(&free);
        let n_prox = collapois_stats::geometry::l2_norm(&pulled);
        assert!(n_prox < n_free, "prox={n_prox} free={n_free}");
    }

    #[test]
    fn scratch_reuse_is_history_free() {
        let (cfg, mut scratch, global) = setup();
        let prox = Correction::Prox {
            mu: 0.5,
            anchor: &global,
        };
        let first = delta(4, &mut scratch, &global, &cfg, prox);
        // Re-run with identical RNG on the warm arena: bitwise equal.
        assert_eq!(first, delta(4, &mut scratch, &global, &cfg, prox));
        // And equal to a fresh arena.
        let (_, mut fresh, _) = setup();
        assert_eq!(first, delta(4, &mut fresh, &global, &cfg, prox));
    }

    #[test]
    fn zero_corrections_match_plain_sgd_bitwise() {
        let (cfg, mut scratch, global) = setup();
        let plain = delta(5, &mut scratch, &global, &cfg, Correction::None);
        let zeros = vec![0.0f32; global.len()];
        let control = delta(5, &mut scratch, &global, &cfg, Correction::Control(&zeros));
        assert_eq!(plain, control);
        let prox = Correction::Prox {
            mu: 0.0,
            anchor: &zeros,
        };
        assert_eq!(plain, delta(5, &mut scratch, &global, &cfg, prox));
        // A non-zero correction must steer the iterate elsewhere.
        let mut corr = zeros;
        corr[0] = 0.5;
        let steered = delta(5, &mut scratch, &global, &cfg, Correction::Control(&corr));
        assert_ne!(plain, steered);
    }

    #[test]
    #[should_panic(expected = "no training data")]
    fn rejects_empty_dataset() {
        let (cfg, mut scratch, global) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let empty = Dataset::empty(&[2], 2);
        local_sgd(
            &mut rng,
            &mut scratch,
            &global,
            &empty,
            &cfg,
            Correction::None,
        );
    }
}
