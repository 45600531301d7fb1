//! Fine-Pruning [Liu et al., RAID 2018] — prune dormant units, then
//! measure what is left of the backdoor.
//!
//! Patch-style backdoors tend to hide in units that clean data rarely
//! activates; pruning the least-activated hidden units therefore removes
//! them with little clean-accuracy cost. Warping triggers (WaNet) re-use the
//! same units as clean features, so pruning cannot separate them — the
//! evasion the paper relies on (§II-B).
//!
//! The implementation targets single-hidden-layer MLPs (the scenario
//! models): it ranks hidden units by mean ReLU activation over clean data
//! and zeroes the incoming and outgoing weights of the lowest fraction.

use collapois_data::sample::Dataset;
use collapois_nn::model::Sequential;
use collapois_nn::zoo::ModelSpec;

/// Outcome of a pruning pass.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneOutcome {
    /// Indices of the pruned hidden units.
    pub pruned_units: Vec<usize>,
    /// Mean activation of every hidden unit on the clean data (pre-pruning).
    pub activations: Vec<f64>,
    /// Model parameters after pruning.
    pub pruned_params: Vec<f32>,
}

/// Prunes the `fraction` least-activated hidden units of a
/// `ModelSpec::Mlp { hidden: [h], .. }` model.
///
/// # Panics
///
/// Panics if the spec is not a single-hidden-layer MLP, the dataset is
/// empty, or `fraction` is outside `[0, 1)`.
pub fn fine_prune(
    model: &mut Sequential,
    spec: &ModelSpec,
    clean: &Dataset,
    fraction: f64,
) -> PruneOutcome {
    assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
    assert!(!clean.is_empty(), "need clean data");
    let (input, hidden, classes) = match spec {
        ModelSpec::Mlp {
            input,
            hidden,
            classes,
        } if hidden.len() == 1 => (*input, hidden[0], *classes),
        _ => panic!("fine_prune supports single-hidden-layer MLPs"),
    };
    assert_eq!(
        clean.feature_len(),
        input,
        "dataset does not match the model input"
    );

    let params = model.params_mut();
    let w1_len = hidden * input;
    let b1_off = w1_len;
    let w2_off = b1_off + hidden;
    let b2_off = w2_off + classes * hidden;
    assert_eq!(
        params.len(),
        b2_off + classes,
        "unexpected MLP parameter layout"
    );

    // Mean ReLU activation per hidden unit on the clean data, averaged over
    // a strided sample of at most 256 points. The stride spans the whole
    // dataset: taking the *first* 256 samples instead would bias unit
    // rankings on class-ordered shards (e.g. all class-0 first), and class
    // composition is exactly what drives which units look dormant.
    let mut activations = vec![0.0f64; hidden];
    let n = clean.len().min(256);
    for s in 0..n {
        let x = clean.features_of(s * clean.len() / n);
        for j in 0..hidden {
            let row = &params[j * input..(j + 1) * input];
            let mut acc = params[b1_off + j];
            for (w, &xv) in row.iter().zip(x) {
                acc += w * xv;
            }
            // f32::max(NaN, 0.0) returns 0.0, which would disguise a unit
            // corrupted by the fault layer as a dormant one; keep the NaN
            // so the ranking below can place it deterministically.
            activations[j] += if acc.is_nan() {
                f64::NAN
            } else {
                f64::from(acc.max(0.0))
            };
        }
    }
    for a in &mut activations {
        *a /= n as f64;
    }

    // Rank ascending and prune the bottom fraction. total_cmp: the fault
    // layer can deliver non-finite params, and a NaN activation must rank
    // (above every finite value, so NaN units are pruned last), not panic.
    let mut order: Vec<usize> = (0..hidden).collect();
    order.sort_by(|&a, &b| activations[a].total_cmp(&activations[b]));
    let n_prune = ((hidden as f64) * fraction).floor() as usize;
    let pruned_units: Vec<usize> = order.into_iter().take(n_prune).collect();
    for &j in &pruned_units {
        for i in 0..input {
            params[j * input + i] = 0.0;
        }
        params[b1_off + j] = 0.0;
        for c in 0..classes {
            params[w2_off + c * hidden + j] = 0.0;
        }
    }
    PruneOutcome {
        pruned_units,
        activations,
        pruned_params: model.params().to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn clean_dataset(rng: &mut StdRng) -> Dataset {
        let mut ds = Dataset::empty(&[1, 4, 4], 2);
        for i in 0..80 {
            let class = i % 2;
            let base = if class == 0 { 0.25f32 } else { 0.75 };
            let img: Vec<f32> = (0..16)
                .map(|_| (base + rng.gen_range(-0.1..0.1f32)).clamp(0.0, 1.0))
                .collect();
            ds.push(&img, class);
        }
        ds
    }

    #[test]
    fn pruning_keeps_clean_accuracy() {
        let mut rng = StdRng::seed_from_u64(0);
        let clean = clean_dataset(&mut rng);
        let spec = ModelSpec::mlp(16, &[32], 2);
        let mut model = spec.build(&mut rng);
        crate::train_for_tests(&mut model, &clean, &mut rng, 200, 0.3);
        let (x, y) = clean.as_batch();
        let before = model.evaluate(&x, &y);
        let outcome = fine_prune(&mut model, &spec, &clean, 0.3);
        assert_eq!(outcome.pruned_units.len(), 9); // floor(32 * 0.3)
        let after = model.evaluate(&x, &y);
        assert!(
            after > before - 0.15,
            "pruning dormant units must keep accuracy: {before} -> {after}"
        );
    }

    #[test]
    fn prunes_least_activated_units() {
        let mut rng = StdRng::seed_from_u64(1);
        let clean = clean_dataset(&mut rng);
        let spec = ModelSpec::mlp(16, &[8], 2);
        let mut model = spec.build(&mut rng);
        let outcome = fine_prune(&mut model, &spec, &clean, 0.25);
        assert_eq!(outcome.pruned_units.len(), 2);
        let max_pruned = outcome
            .pruned_units
            .iter()
            .map(|&j| outcome.activations[j])
            .fold(f64::NEG_INFINITY, f64::max);
        let min_kept = (0..8)
            .filter(|j| !outcome.pruned_units.contains(j))
            .map(|j| outcome.activations[j])
            .fold(f64::INFINITY, f64::min);
        assert!(max_pruned <= min_kept + 1e-12);
    }

    #[test]
    fn pruned_units_are_dead() {
        let mut rng = StdRng::seed_from_u64(2);
        let clean = clean_dataset(&mut rng);
        let spec = ModelSpec::mlp(16, &[8], 2);
        let mut model = spec.build(&mut rng);
        let outcome = fine_prune(&mut model, &spec, &clean, 0.5);
        // The pruned rows/columns are fully zeroed.
        let params = model.params();
        for &j in &outcome.pruned_units {
            for i in 0..16 {
                assert_eq!(params[j * 16 + i], 0.0);
            }
            assert_eq!(params[8 * 16 + j], 0.0); // bias
        }
    }

    /// 384 samples, two constant per-class feature vectors. The 256-sample
    /// stride picks indices `i` with `i mod 3 != 2`, which is 128 samples
    /// of each class under BOTH a class-sorted and an interleaved layout —
    /// so the ranking must agree. The pre-fix "first 256" selection saw
    /// 192/64 vs 128/128 and ranked differently.
    fn two_class_arrangements() -> (Dataset, Dataset) {
        let class_features = |c: usize| -> Vec<f32> {
            (0..16)
                .map(|i| {
                    if c == 0 {
                        0.1 + 0.05 * i as f32
                    } else {
                        0.9 - 0.04 * i as f32
                    }
                })
                .collect()
        };
        let mut sorted = Dataset::empty(&[1, 4, 4], 2);
        for c in 0..2 {
            for _ in 0..192 {
                sorted.push(&class_features(c), c);
            }
        }
        let mut interleaved = Dataset::empty(&[1, 4, 4], 2);
        for i in 0..384 {
            interleaved.push(&class_features(i % 2), i % 2);
        }
        (sorted, interleaved)
    }

    #[test]
    fn ranking_is_invariant_to_class_ordering() {
        let (sorted, interleaved) = two_class_arrangements();
        let spec = ModelSpec::mlp(16, &[32], 2);
        let mut rng = StdRng::seed_from_u64(5);
        let reference = spec.build(&mut rng);
        let mut a = reference.clone();
        let mut b = reference;
        let out_sorted = fine_prune(&mut a, &spec, &sorted, 0.25);
        let out_interleaved = fine_prune(&mut b, &spec, &interleaved, 0.25);
        assert_eq!(
            out_sorted.pruned_units, out_interleaved.pruned_units,
            "unit ranking must not depend on sample order"
        );
        assert_eq!(out_sorted.pruned_params, out_interleaved.pruned_params);
    }

    #[test]
    fn nan_params_degrade_gracefully() {
        let mut rng = StdRng::seed_from_u64(6);
        let clean = clean_dataset(&mut rng);
        let spec = ModelSpec::mlp(16, &[8], 2);
        let mut model = spec.build(&mut rng);
        // Corrupt unit 0's incoming weights the way the fault layer can.
        model.params_mut()[..16].fill(f32::NAN);
        let outcome = fine_prune(&mut model, &spec, &clean, 0.25);
        assert_eq!(outcome.pruned_units.len(), 2, "still prunes the quota");
        assert!(
            !outcome.pruned_units.contains(&0),
            "NaN activations rank above finite ones and survive"
        );
        assert!(outcome.activations[0].is_nan());
    }

    #[test]
    #[should_panic(expected = "single-hidden-layer")]
    fn rejects_deep_models() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = ModelSpec::mlp(4, &[8, 8], 2);
        let mut model = spec.build(&mut rng);
        let clean = {
            let mut ds = Dataset::empty(&[4], 2);
            ds.push(&[0.0; 4], 0);
            ds
        };
        let _ = fine_prune(&mut model, &spec, &clean, 0.2);
    }
}
