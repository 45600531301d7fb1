//! Property-based tests (proptest) over the workspace's core invariants.

use collapois::core::theory::theorem1::theorem1_bound;
use collapois::core::theory::theorem2::theorem2_bound;
use collapois::data::partition::dirichlet_partition;
use collapois::data::sample::Dataset;
use collapois::data::trigger::{PatchTrigger, TextTrigger, Trigger, WaNetTrigger};
use collapois::fl::aggregate::{
    Aggregator, CoordinateMedian, FedAvg, Flare, Krum, NormBound, TrimmedMean,
};
use collapois::fl::update::ClientUpdate;
use collapois::nn::zoo::ModelSpec;
use collapois::stats::geometry::l2_norm;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn labelled_dataset(labels: Vec<usize>, classes: usize) -> Dataset {
    let mut ds = Dataset::empty(&[1], classes);
    for &y in &labels {
        ds.push(&[y as f32], y);
    }
    ds
}

fn updates_from(vs: &[Vec<f32>]) -> Vec<ClientUpdate> {
    vs.iter()
        .enumerate()
        .map(|(i, v)| ClientUpdate::new(i, v.clone(), 1))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dirichlet partitioning is an exact cover with no empty client, for
    /// any alpha and client count.
    #[test]
    fn partition_is_exact_cover(
        seed in 0u64..1000,
        n_clients in 2usize..20,
        alpha in 0.01f64..100.0,
        classes in 2usize..8,
    ) {
        let n_samples = n_clients * 10;
        let labels: Vec<usize> = (0..n_samples).map(|i| i % classes).collect();
        let ds = labelled_dataset(labels, classes);
        let mut rng = StdRng::seed_from_u64(seed);
        let parts = dirichlet_partition(&mut rng, &ds, n_clients, alpha);
        let mut all: Vec<usize> = parts.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n_samples).collect::<Vec<_>>());
        prop_assert!(parts.iter().all(|p| !p.is_empty()));
    }

    /// Flat parameter vectors round-trip through any MLP architecture.
    #[test]
    fn param_roundtrip(
        seed in 0u64..1000,
        input in 1usize..12,
        hidden in 1usize..16,
        classes in 2usize..6,
    ) {
        let spec = ModelSpec::mlp(input, &[hidden], classes);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = spec.build(&mut rng);
        let p = model.params();
        prop_assert_eq!(p.len(), model.param_count());
        let shifted: Vec<f32> = p.iter().map(|v| v + 0.25).collect();
        model.set_params(&shifted);
        prop_assert_eq!(model.params(), shifted);
    }

    /// FedAvg of identical updates returns that update; median and trimmed
    /// mean stay within per-coordinate bounds; Krum returns an input.
    #[test]
    fn aggregator_invariants(
        seed in 0u64..1000,
        n in 2usize..8,
        dim in 1usize..12,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let vs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let updates = updates_from(&vs);
        let mut srv_rng = StdRng::seed_from_u64(seed ^ 1);

        // Identical updates: FedAvg is the identity.
        let same = updates_from(&vec![vs[0].clone(); n]);
        let avg = FedAvg::new().aggregate(&same, dim, &mut srv_rng);
        for (a, b) in avg.iter().zip(&vs[0]) {
            prop_assert!((a - b).abs() < 1e-5);
        }

        // Median / trimmed mean bounded by min/max per coordinate.
        let med = CoordinateMedian::new().aggregate(&updates, dim, &mut srv_rng);
        let trim = TrimmedMean::new(0.2).aggregate(&updates, dim, &mut srv_rng);
        for c in 0..dim {
            let lo = vs.iter().map(|v| v[c]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(med[c] >= lo - 1e-5 && med[c] <= hi + 1e-5);
            prop_assert!(trim[c] >= lo - 1e-5 && trim[c] <= hi + 1e-5);
        }

        // Krum selects one of the inputs.
        let krum = Krum::new(1).aggregate(&updates, dim, &mut srv_rng);
        prop_assert!(vs.iter().any(|v| v == &krum));

        // NormBound output never exceeds the bound.
        let nb = NormBound::new(1.0).aggregate(&updates, dim, &mut srv_rng);
        prop_assert!(l2_norm(&nb) <= 1.0 + 1e-5);

        // FLARE trust weights form a convex combination: output within the
        // per-coordinate hull.
        let fl = Flare::new(4.0).aggregate(&updates, dim, &mut srv_rng);
        for c in 0..dim {
            let lo = vs.iter().map(|v| v[c]).fold(f32::INFINITY, f32::min);
            let hi = vs.iter().map(|v| v[c]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(fl[c] >= lo - 1e-4 && fl[c] <= hi + 1e-4);
        }
    }

    /// Triggers are deterministic and label-preservingly bounded: WaNet
    /// keeps pixels in [0,1] for in-range inputs; the patch sets exactly its
    /// area; the text trigger is idempotent in direction.
    #[test]
    fn trigger_invariants(
        seed in 0u64..1000,
        side in 6usize..20,
        strength in 0.5f64..4.0,
    ) {
        let img: Vec<f32> = (0..side * side)
            .map(|i| ((i * 37 + seed as usize) % 100) as f32 / 100.0)
            .collect();
        let wanet = WaNetTrigger::new(side, 4, strength, seed);
        let mut a = img.clone();
        let mut b = img.clone();
        wanet.apply(&mut a);
        wanet.apply(&mut b);
        prop_assert_eq!(&a, &b); // deterministic
        prop_assert!(a.iter().all(|&v| (-1e-4..=1.0 + 1e-4).contains(&(v as f64))));

        let patch = PatchTrigger::badnets(side);
        let mut p = img.clone();
        patch.apply(&mut p);
        let changed = p.iter().zip(&img).filter(|(x, y)| x != y).count();
        prop_assert!(changed <= 9);

        let text = TextTrigger::new(side, 2.0, 0.5, seed);
        let mut t1 = vec![0.1f32; side];
        let mut t2 = vec![0.9f32; side];
        text.apply(&mut t1);
        text.apply(&mut t2);
        // Strong blend makes different inputs align.
        let cs = collapois::stats::geometry::cosine_similarity(&t1, &t2).unwrap();
        prop_assert!(cs > 0.0, "cs={cs}");
    }

    /// Theorem 1: the bound lies in [0, N] and is monotone non-increasing in
    /// both mu and sigma over the valid domain.
    #[test]
    fn theorem1_domain_and_monotonicity(
        mu in 0.0f64..1.4,
        sigma in 0.0f64..1.0,
        n in 10usize..10_000,
    ) {
        let b = theorem1_bound(mu, sigma, 0.9, 1.0, n);
        prop_assert!((0.0..=n as f64).contains(&b));
        let b_mu = theorem1_bound(mu + 0.05, sigma, 0.9, 1.0, n);
        let b_sig = theorem1_bound(mu, sigma + 0.05, 0.9, 1.0, n);
        prop_assert!(b_mu <= b + 1e-9);
        prop_assert!(b_sig <= b + 1e-9);
    }

    /// Theorem 2: the bound is non-negative and increases as `a` decreases.
    #[test]
    fn theorem2_bound_properties(
        norm in 0.0f64..10.0,
        a in 0.05f64..1.0,
        zeta in 0.0f64..5.0,
    ) {
        let b = theorem2_bound(norm, a, zeta);
        prop_assert!(b >= zeta - 1e-12);
        let tighter = theorem2_bound(norm, (a + 1.0) / 2.0, zeta);
        prop_assert!(tighter <= b + 1e-12);
    }
}

/// Strategies landed with the semantic-backdoor / SCAFFOLD / fine-pruning
/// grid arms: the control-variate bookkeeping and the region-membership
/// ASR metric each carry an exact invariant worth fuzzing.
mod backdoor_arms {
    use super::*;
    use collapois::data::poison::BackdoorEval;
    use collapois::data::semantic::SemanticRegion;
    use collapois::fl::config::FlConfig;
    use collapois::fl::personalize::{Personalization, Scaffold};
    use collapois::fl::scratch::ClientScratch;
    use rand::seq::SliceRandom;
    use rand::Rng;

    fn client_data(rng: &mut StdRng, n: usize, classes: usize) -> Dataset {
        let mut ds = Dataset::empty(&[4], classes);
        for i in 0..n {
            let f: Vec<f32> = (0..4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            ds.push(&f, i % classes);
        }
        ds
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// SCAFFOLD's bookkeeping invariant: after any number of full
        /// participation rounds, the server control variate equals the mean
        /// of the client variates — equivalently Σ_i (c_i − c) ≈ 0.
        #[test]
        fn scaffold_control_variates_sum_to_zero(
            seed in 0u64..500,
            n_clients in 2usize..5,
            rounds in 1usize..4,
        ) {
            let spec = ModelSpec::mlp(4, &[6], 2);
            let cfg = FlConfig::quick(spec.clone());
            let mut rng = StdRng::seed_from_u64(seed);
            let model = spec.build(&mut rng);
            let global = model.params();
            let mut scratch = ClientScratch::for_model(&model);
            let data: Vec<Dataset> = (0..n_clients)
                .map(|_| client_data(&mut rng, 24, 2))
                .collect();
            let mut s = Scaffold::new();
            s.init(n_clients, global.len());
            for _ in 0..rounds {
                for cid in 0..n_clients {
                    let out = s.local_train(cid, &global, &data[cid], &cfg, &mut scratch, &mut rng);
                    s.commit(cid, out.commit);
                }
            }
            for k in 0..global.len() {
                let residual: f32 = (0..n_clients)
                    .map(|cid| s.client_control(cid).map_or(0.0, |v| v[k]) - s.server_control()[k])
                    .sum();
                prop_assert!(
                    residual.abs() < 1e-3,
                    "coordinate {k}: sum of (c_i - c) = {residual}"
                );
            }
        }

        /// The semantic backdoor's Attack SR is permutation-invariant: the
        /// region predicate is pure in each sample's features, so shuffling
        /// the eval dataset changes neither the eval-set size nor the
        /// success ratio computed from it.
        #[test]
        fn semantic_asr_is_permutation_invariant(
            seed in 0u64..500,
            n in 20usize..80,
            member_fraction in 0.2f64..0.9,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let ds = client_data(&mut rng, n, 3);
            let region = SemanticRegion::fit(&ds, 1, 0, member_fraction, seed ^ 0xABCD);
            let spec = ModelSpec::mlp(4, &[6], 3);
            let model = spec.build(&mut rng);
            let asr = |d: &Dataset| -> (usize, f64) {
                let eval = region.eval_set(d);
                if eval.is_empty() {
                    return (0, 0.0);
                }
                let (x, _) = eval.as_batch();
                let preds = model.predict(&x);
                let hits = preds.iter().filter(|&&p| p == region.target_class()).count();
                (eval.len(), hits as f64 / preds.len() as f64)
            };
            let mut perm: Vec<usize> = (0..ds.len()).collect();
            perm.shuffle(&mut rng);
            let shuffled = ds.subset(&perm);
            let (len_a, sr_a) = asr(&ds);
            let (len_b, sr_b) = asr(&shuffled);
            prop_assert_eq!(len_a, len_b, "eval-set size must not depend on order");
            prop_assert_eq!(sr_a.to_bits(), sr_b.to_bits(), "ASR must be bitwise order-free");
        }
    }
}
