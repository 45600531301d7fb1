//! Micro-benchmarks of the blocked kernels against the naive reference
//! oracle (`collapois_nn::kernels::{blocked, reference}`) and of the
//! explicit-SIMD tier against blocked (`kernels::simd`; on hosts without
//! AVX2 the simd rows delegate to blocked, so they read as parity).
//!
//! These back the kernel-layer PRs' acceptance numbers: the blocked matmul
//! must beat the reference by ≥2× at 256×256×256 and the Krum pairwise
//! squared-distance matrix by ≥1.5× at 20 clients × 10k parameters; the
//! SIMD tier must beat blocked by ≥2× on at least one of matmul, axpy or
//! krum_pairwise on an AVX2 host, and on an AVX2 host its register-tiled
//! matmuls must beat blocked at each of the MLP's batch-16 training shapes
//! (`dense_mlp_b16`: forward, weight gradient, input gradient) without
//! slowing the 256³ `simd` row. The quant group measures the f16/int8
//! client-update codec round-trip bandwidth, and the trimmed-mean group
//! the column-block sort against the one-coordinate reference.

use collapois_fl::quant::Quantization;
use collapois_nn::kernels::{blocked, reference, simd, SortingNetwork, BLOCK};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn randvec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_matmul(c: &mut Criterion) {
    let (m, k, n) = (256, 256, 256);
    let mut rng = StdRng::seed_from_u64(1);
    let a = randvec(&mut rng, m * k);
    let b = randvec(&mut rng, k * n);
    let mut out = vec![0.0f32; m * n];

    let mut group = c.benchmark_group("matmul_256x256x256");
    group.bench_function("blocked", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            blocked::matmul(black_box(&a), black_box(&b), &mut out, m, k, n);
            black_box(&out);
        });
    });
    group.bench_function("simd", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            simd::matmul(black_box(&a), black_box(&b), &mut out, m, k, n);
            black_box(&out);
        });
    });
    group.bench_function("reference", |bch| {
        bch.iter(|| {
            out.fill(0.0);
            reference::matmul(black_box(&a), black_box(&b), &mut out, m, k, n);
            black_box(&out);
        });
    });
    group.finish();
}

fn bench_dense_mlp(c: &mut Criterion) {
    // The dense MLP's (144 → 48 → 10) largest training matmuls at batch 16:
    // the first layer's forward `x · Wᵀ`, its weight gradient `gᵀ · x`, and
    // the output layer's input gradient `g · W`.
    let (batch, input, hidden, classes) = (16, 144, 48, 10);
    let mut rng = StdRng::seed_from_u64(6);
    let x = randvec(&mut rng, batch * input);
    let w1 = randvec(&mut rng, hidden * input);
    let g1 = randvec(&mut rng, batch * hidden);
    let g2 = randvec(&mut rng, batch * classes);
    let w2 = randvec(&mut rng, classes * hidden);
    let mut h = vec![0.0f32; batch * hidden];
    let mut dw = vec![0.0f32; hidden * input];
    let mut dx = vec![0.0f32; batch * hidden];

    type Matmul = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
    let tiers: [(&str, Matmul, Matmul, Matmul); 2] = [
        (
            "simd",
            simd::matmul_transb,
            simd::matmul_transa_acc,
            simd::matmul,
        ),
        (
            "blocked",
            blocked::matmul_transb,
            blocked::matmul_transa_acc,
            blocked::matmul,
        ),
    ];
    let mut group = c.benchmark_group("dense_mlp_b16");
    for (tier, transb, transa_acc, matmul) in tiers {
        group.bench_function(&format!("forward_16x144x48/{tier}"), |bch| {
            bch.iter(|| {
                transb(black_box(&x), black_box(&w1), &mut h, batch, input, hidden);
                black_box(&h);
            });
        });
        group.bench_function(&format!("weight_grad_48x144/{tier}"), |bch| {
            bch.iter(|| {
                // A fresh accumulation per call, as after `zero_grad`.
                dw.fill(0.0);
                transa_acc(black_box(&g1), black_box(&x), &mut dw, batch, hidden, input);
                black_box(&dw);
            });
        });
        group.bench_function(&format!("input_grad_16x10x48/{tier}"), |bch| {
            bch.iter(|| {
                matmul(
                    black_box(&g2),
                    black_box(&w2),
                    &mut dx,
                    batch,
                    classes,
                    hidden,
                );
                black_box(&dx);
            });
        });
    }
    group.finish();
}

fn bench_krum_pairwise(c: &mut Criterion) {
    // 20 clients × 10k parameters: the server-side Krum distance matrix.
    let (clients, dim) = (20, 10_000);
    let mut rng = StdRng::seed_from_u64(2);
    let vs: Vec<Vec<f32>> = (0..clients).map(|_| randvec(&mut rng, dim)).collect();
    let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();

    let mut group = c.benchmark_group("krum_pairwise_20x10k");
    group.bench_function("blocked", |bch| {
        bch.iter(|| black_box(blocked::pairwise_sq_distances(black_box(&refs))));
    });
    group.bench_function("simd", |bch| {
        bch.iter(|| black_box(simd::pairwise_sq_distances(black_box(&refs))));
    });
    group.bench_function("reference", |bch| {
        bch.iter(|| black_box(reference::pairwise_sq_distances(black_box(&refs))));
    });
    group.finish();
}

fn bench_axpy(c: &mut Criterion) {
    // The element-wise update applied once per client per merge in the
    // pooled tree-reduction aggregators: y += alpha * x over a
    // full-model-sized vector.
    let dim = 100_000;
    let mut rng = StdRng::seed_from_u64(4);
    let x = randvec(&mut rng, dim);
    let mut y = randvec(&mut rng, dim);

    let mut group = c.benchmark_group("axpy_100k");
    group.bench_function("blocked", |bch| {
        bch.iter(|| {
            blocked::axpy(&mut y, black_box(1.000001f32), black_box(&x));
            black_box(&y);
        });
    });
    group.bench_function("simd", |bch| {
        bch.iter(|| {
            simd::axpy(&mut y, black_box(1.000001f32), black_box(&x));
            black_box(&y);
        });
    });
    group.finish();
}

fn bench_quant_roundtrip(c: &mut Criterion) {
    // Transport-codec bandwidth: one encode/decode round-trip of a
    // full-model-sized client delta, as the server applies it per
    // accepted update.
    let dim = 100_000;
    let mut rng = StdRng::seed_from_u64(5);
    let delta = randvec(&mut rng, dim);
    let mut buf = delta.clone();

    let mut group = c.benchmark_group("quant_roundtrip_100k");
    for codec in [Quantization::F16, Quantization::Int8] {
        group.bench_function(codec.name(), |bch| {
            bch.iter(|| {
                buf.copy_from_slice(&delta);
                codec.roundtrip_inplace(black_box(&mut buf));
                black_box(&buf);
            });
        });
    }
    group.finish();
}

fn bench_trimmed_mean(c: &mut Criterion) {
    // Coordinate-wise trimming at β = 0.2 over a model-sized dimension, as
    // `TrimmedMean` runs it: 15 updates is a FEMNIST-sim round, 64 the
    // `cohort.toml` round. The column-block sort copies 8 coordinates of
    // every update into rows and sorts their columns with one network; the
    // reference gathers and sorts one coordinate at a time.
    let dim = 7_156;
    for clients in [15usize, 64] {
        let trim = clients / 5;
        let mut rng = StdRng::seed_from_u64(3);
        let updates: Vec<Vec<f32>> = (0..clients).map(|_| randvec(&mut rng, dim)).collect();

        let name = format!("trimmed_mean_{clients}x{dim}");
        let mut group = c.benchmark_group(&name);
        let mut network = SortingNetwork::new();
        let mut rows = vec![[0.0f32; BLOCK]; clients];
        group.bench_function("column_block", |bch| {
            bch.iter(|| {
                network.build(clients);
                let mut acc = 0.0f32;
                for start in (0..dim).step_by(BLOCK) {
                    let width = BLOCK.min(dim - start);
                    for (row, u) in rows.iter_mut().zip(&updates) {
                        row[..width].copy_from_slice(&u[start..start + width]);
                    }
                    let means = network.trimmed_mean_columns(&mut rows, trim);
                    acc += means[..width].iter().sum::<f32>();
                }
                black_box(acc)
            });
        });
        let mut scratch = vec![0.0f32; clients];
        group.bench_function("reference", |bch| {
            bch.iter(|| {
                let mut acc = 0.0f32;
                for j in 0..dim {
                    for (v, u) in scratch.iter_mut().zip(&updates) {
                        *v = u[j];
                    }
                    acc += reference::trimmed_mean_inplace(&mut scratch, trim);
                }
                black_box(acc)
            });
        });
        group.finish();
    }
}

criterion_group!(
    benches,
    bench_matmul,
    bench_dense_mlp,
    bench_krum_pairwise,
    bench_axpy,
    bench_quant_roundtrip,
    bench_trimmed_mean
);
criterion_main!(benches);
