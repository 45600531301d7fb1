//! Property-based tests for the NN substrate.

use collapois_nn::layer::{Conv2d, Dense, MaxPool2d, ReLU};
use collapois_nn::loss::{cross_entropy, softmax};
use collapois_nn::optim::{Optimizer, Sgd};
use collapois_nn::tensor::Tensor;
use collapois_nn::zoo::ModelSpec;
use collapois_nn::Sequential;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense layers map [n, in] to [n, out] for arbitrary sizes, and the
    /// gradient buffer always matches the parameter count.
    #[test]
    fn dense_shape_contract(
        seed in 0u64..1000,
        n in 1usize..6,
        input in 1usize..16,
        output in 1usize..16,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = Sequential::new().push(Box::new(Dense::new(&mut rng, input, output)));
        let x = Tensor::zeros(&[n, input]);
        let y = model.forward(&x);
        prop_assert_eq!(y.shape(), &[n, output]);
        let (gx, _) = model.input_gradient(&x, &vec![0; n]);
        prop_assert_eq!(gx.shape(), &[n, input]);
        prop_assert_eq!(model.grads().len(), input * output + output);
    }

    /// Conv output follows the valid-padding formula for arbitrary
    /// geometries.
    #[test]
    fn conv_output_geometry(
        seed in 0u64..1000,
        n in 1usize..3,
        cin in 1usize..4,
        cout in 1usize..4,
        k in 1usize..5,
        extra in 0usize..6,
    ) {
        let side = k + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let conv = Sequential::new().push(Box::new(Conv2d::new(&mut rng, cin, cout, k)));
        let x = Tensor::zeros(&[n, cin, side, side]);
        let y = conv.forward(&x);
        let o = side - k + 1;
        prop_assert_eq!(y.shape(), &[n, cout, o, o]);
    }

    /// Max pooling never invents values: every output element equals some
    /// input element, and output dims divide correctly.
    #[test]
    fn pool_selects_existing_values(
        xs in prop::collection::vec(-5.0f32..5.0, 36..=36),
    ) {
        let pool = Sequential::new().push(Box::new(MaxPool2d::new(2)));
        let x = Tensor::from_vec(xs.clone(), &[1, 1, 6, 6]);
        let y = pool.forward(&x);
        prop_assert_eq!(y.shape(), &[1, 1, 3, 3]);
        for &v in y.data() {
            prop_assert!(xs.contains(&v));
        }
    }

    /// ReLU output is non-negative and idempotent.
    #[test]
    fn relu_non_negative_idempotent(xs in prop::collection::vec(-5.0f32..5.0, 1..32)) {
        let relu = Sequential::new().push(Box::new(ReLU::new()));
        let n = xs.len();
        let x = Tensor::from_vec(xs, &[1, n]);
        let once = relu.forward(&x);
        prop_assert!(once.data().iter().all(|&v| v >= 0.0));
        let twice = relu.forward(&once);
        prop_assert_eq!(once.data(), twice.data());
    }

    /// Softmax rows are probability vectors and cross-entropy is
    /// non-negative, for arbitrary logits.
    #[test]
    fn loss_invariants(
        logits in prop::collection::vec(-20.0f32..20.0, 6..=6),
    ) {
        let t = Tensor::from_vec(logits, &[2, 3]);
        let p = softmax(&t);
        for i in 0..2 {
            let s: f32 = p.row(i).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
            prop_assert!(p.row(i).iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
        let out = cross_entropy(&t, &[0, 2]);
        prop_assert!(out.loss >= 0.0);
        prop_assert!(out.correct <= 2);
        // Gradient rows sum to ~0 (softmax minus one-hot property).
        for i in 0..2 {
            let s: f32 = out.grad.row(i).iter().sum();
            prop_assert!(s.abs() < 1e-5, "row {i} grad sum {s}");
        }
    }

    /// An SGD step with zero gradient (and no decay) leaves parameters
    /// unchanged; a step against the gradient direction reduces a quadratic.
    #[test]
    fn sgd_step_properties(p0 in -5.0f32..5.0, lr in 0.001f64..0.5) {
        let mut opt = Sgd::new(lr);
        let mut params = vec![p0];
        opt.step(&mut params, &[0.0]);
        prop_assert_eq!(params[0], p0);
        // Quadratic f(p) = p², grad = 2p: one step shrinks |p| when lr < 1.
        let mut params = vec![p0];
        opt.step(&mut params, &[2.0 * p0]);
        prop_assert!(params[0].abs() <= p0.abs() + 1e-6);
    }

    /// Model params are invariant under a save/load roundtrip for every
    /// LeNet geometry that builds.
    #[test]
    fn lenet_roundtrip(seed in 0u64..100, side in 16usize..29) {
        let spec = ModelSpec::lenet(side, 10);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut model = spec.build(&mut rng);
        let p = model.params().to_vec();
        model.set_params(&p);
        prop_assert_eq!(model.params(), &p[..]);
    }
}
