//! Criterion micro-benchmarks for the hot paths.
//!
//! * Aggregation rules at realistic update dimensions — the per-round server
//!   cost of every defense.
//! * NN forward/backward — the per-step client cost.
//! * Attack-update generation: CollaPois' `ψ(X − θ)` vs DPois' local
//!   training — the paper's *Efficiency* claim (CollaPois needs no local
//!   training at all).
//! * Dirichlet partitioning throughput.

use collapois_core::baselines::{DPois, LocalTrainConfig};
use collapois_core::collapois::{CollaPois, CollaPoisConfig};
use collapois_data::partition::dirichlet_partition;
use collapois_data::synthetic::{SyntheticImage, SyntheticImageConfig};
use collapois_data::trigger::PatchTrigger;
use collapois_fl::aggregate::{
    Aggregator, CoordinateMedian, DpAggregator, FedAvg, Flare, Krum, NormBound, RobustLearningRate,
    SignSgd, TrimmedMean,
};
use collapois_fl::server::Adversary;
use collapois_fl::update::ClientUpdate;
use collapois_nn::loss::Loss;
use collapois_nn::optim::Sgd;
use collapois_nn::tensor::Tensor;
use collapois_nn::workspace::Workspace;
use collapois_nn::zoo::ModelSpec;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn make_updates(n: usize, dim: usize, seed: u64) -> Vec<ClientUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let delta: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
            ClientUpdate::new(i, delta, 32)
        })
        .collect()
}

fn bench_aggregators(c: &mut Criterion) {
    let dim = 10_000;
    let updates = make_updates(20, dim, 1);
    let mut group = c.benchmark_group("aggregate_20x10k");
    let mut cases: Vec<(&str, Box<dyn Aggregator>)> = vec![
        ("fedavg", Box::new(FedAvg::new())),
        ("krum", Box::new(Krum::new(2))),
        ("median", Box::new(CoordinateMedian::new())),
        ("trimmed_mean", Box::new(TrimmedMean::new(0.2))),
        ("norm_bound", Box::new(NormBound::new(1.0))),
        ("dp", Box::new(DpAggregator::new(1.0, 0.3))),
        ("rlr", Box::new(RobustLearningRate::new(5))),
        ("signsgd", Box::new(SignSgd::new(0.01))),
        ("flare", Box::new(Flare::new(4.0))),
    ];
    for (name, agg) in &mut cases {
        group.bench_function(name, |b| {
            let mut rng = StdRng::seed_from_u64(7);
            b.iter(|| black_box(agg.aggregate(black_box(&updates), dim, &mut rng)));
        });
    }
    group.finish();
}

fn bench_nn_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let mlp = ModelSpec::mlp(144, &[48], 6);
    let mut mlp_model = mlp.build(&mut rng);
    let lenet = ModelSpec::lenet(28, 10);
    let mut lenet_model = lenet.build(&mut rng);
    let x_mlp = Tensor::from_vec(vec![0.3; 16 * 144], &[16, 144]);
    let x_img = Tensor::from_vec(vec![0.3; 4 * 28 * 28], &[4, 1, 28, 28]);
    let labels_mlp: Vec<usize> = (0..16).map(|i| i % 6).collect();
    let labels_img: Vec<usize> = (0..4).map(|i| i % 10).collect();
    let mut group = c.benchmark_group("nn_train_batch");
    group.bench_function("mlp_144_48_6_b16", |b| {
        let mut opt = Sgd::new(0.05);
        let mut ws = Workspace::new();
        let loss = Loss::CrossEntropy(&labels_mlp);
        b.iter(|| black_box(mlp_model.train_batch_ws(&x_mlp, loss, &mut opt, &mut ws)));
    });
    group.bench_function("lenet28_b4", |b| {
        let mut opt = Sgd::new(0.05);
        let mut ws = Workspace::new();
        let loss = Loss::CrossEntropy(&labels_img);
        b.iter(|| black_box(lenet_model.train_batch_ws(&x_img, loss, &mut opt, &mut ws)));
    });
    group.finish();
}

fn bench_attack_cost(c: &mut Criterion) {
    // The Efficiency claim: CollaPois' per-round client cost is a single
    // vector operation; DPois must run K local training steps.
    let spec = ModelSpec::mlp(144, &[48], 6);
    let mut rng = StdRng::seed_from_u64(3);
    let global = spec.build(&mut rng).params().to_vec();
    let trojan = spec.build(&mut rng).params().to_vec();
    let data = SyntheticImage::new(SyntheticImageConfig {
        side: 12,
        classes: 6,
        samples: 64,
        ..Default::default()
    })
    .generate();
    let trigger = PatchTrigger::badnets(12);

    let mut group = c.benchmark_group("attack_update_cost");
    group.bench_function("collapois_craft", |b| {
        let mut adv = CollaPois::new(vec![0], trojan.clone(), CollaPoisConfig::paper());
        let mut rng = StdRng::seed_from_u64(4);
        b.iter(|| black_box(adv.craft_update(0, &global, 0, &mut rng)));
    });
    group.bench_function("dpois_local_training", |b| {
        let mut adv = DPois::new(
            vec![0],
            std::slice::from_ref(&data),
            &trigger,
            0,
            0.5,
            &spec,
            LocalTrainConfig::default(),
            5,
        );
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| black_box(adv.craft_update(0, &global, 0, &mut rng)));
    });
    group.finish();
}

fn bench_partition(c: &mut Criterion) {
    let ds = SyntheticImage::new(SyntheticImageConfig {
        side: 8,
        classes: 10,
        samples: 5_000,
        ..Default::default()
    })
    .generate();
    c.bench_function("dirichlet_partition_5k_100c", |b| {
        b.iter_batched(
            || StdRng::seed_from_u64(6),
            |mut rng| black_box(dirichlet_partition(&mut rng, &ds, 100, 0.5)),
            BatchSize::SmallInput,
        );
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_aggregators, bench_nn_ops, bench_attack_cost, bench_partition
}
criterion_main!(benches);
