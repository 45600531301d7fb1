//! The traced pass, which gives the per-layer numbers.
//!
//! Each scheduled cell runs twice: through the [`replica`] with its timing
//! shims, then untraced through `Scenario::run_with`. The two digests must
//! agree, and the ratio of their wall times is the tracing overhead.

use crate::check::Verdicts;
use crate::host::Host;
use crate::replica::{self, Layers};
use crate::stats;
use crate::untraced::{self, panic_message};
use crate::Metric;
use collapois_grid::schema::GridCell;
use collapois_nn::kernels;
use collapois_nn::zoo::ModelSpec;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// What the traced pass measured. A failing cell makes the run incorrect,
/// so its partial numbers are not kept apart.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer totals of the traced cells.
    pub layers: Layers,
    /// Wall time of the untraced re-runs.
    pub untraced_wall_s: f64,
}

/// Runs the workload's schedule through the replica and `run_with` in
/// turn until `seconds` of wall time and at least one cell.
pub fn run(
    cells: &[GridCell],
    seconds: f64,
    workers: usize,
    tmp: &Path,
    verdicts: &mut Verdicts,
) -> Traced {
    let trace_path = tmp.join("traced.jsonl");
    let mut out = Traced::default();
    let start = Instant::now();
    for (n, cell) in untraced::schedule(cells).enumerate() {
        if n >= 1 && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let traced = catch_unwind(AssertUnwindSafe(|| {
            replica::run_cell(cell, workers, &trace_path, &mut out.layers)
        }))
        .map_err(|p| format!("replica panicked: {}", panic_message(p.as_ref())));
        let plain = untraced::run_cell(cell, workers, &trace_path);
        if let Ok(p) = &plain {
            out.untraced_wall_s += p.wall_s;
        }
        let digest = match (traced, plain) {
            (Ok(t), Ok(p)) if t == p.digest => Ok(t),
            (Ok(t), Ok(p)) => Err(format!(
                "replica digest {t:x?} differs from run_with {:x?}",
                p.digest
            )),
            (Err(e), _) | (_, Err(e)) => Err(e),
        };
        verdicts.record(cell.index, digest);
    }
    out
}

/// Median per-call time in microseconds of `f`, over 7 batches of enough
/// calls to last about a millisecond.
fn time_us(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        if t.elapsed().as_secs_f64() > 1e-3 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let per_call: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / f64::from(reps)
        })
        .collect();
    stats::median(&per_call)
}

/// Kernels and shard rendering timed in isolation at the workload's shapes.
#[derive(Debug)]
pub struct Probes {
    /// `ShardSpec::generate_client`, mean over 256 fixed ids.
    pub shard_render_us: f64,
    /// `kernels::matmul_transb` at the first dense layer's forward shape.
    pub matmul_us: f64,
    /// `kernels::softmax_xent` at the output layer's shape.
    pub softmax_xent_us: f64,
    /// `kernels::pairwise_sq_distances` over 128 model-sized vectors.
    pub krum_pairwise_ms: f64,
}

impl Probes {
    /// Times the probes for `cell`'s model and data.
    pub fn run(cell: &GridCell) -> Self {
        let cfg = &cell.spec.config;
        let spec = cfg.model_spec();
        let (input, hidden, classes) = match &spec {
            ModelSpec::Mlp {
                input,
                hidden,
                classes,
            } => (
                *input,
                hidden.first().copied().unwrap_or(*classes),
                *classes,
            ),
            other => panic!("every workload trains an MLP, not {other:?}"),
        };
        let batch = cfg.batch_size;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut random =
            |len: usize| -> Vec<f32> { (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect() };

        let shards = cfg.shard_spec();
        let ids: Vec<usize> = (0..256).map(|i| i * 7919 % cfg.num_clients).collect();
        let shard_render_us = time_us(|| {
            for &id in &ids {
                black_box(shards.generate_client(black_box(id)));
            }
        }) / ids.len() as f64;

        let (x, w) = (random(batch * input), random(hidden * input));
        let mut h = vec![0.0f32; batch * hidden];
        let matmul_us = time_us(|| {
            kernels::matmul_transb(black_box(&x), black_box(&w), &mut h, batch, input, hidden)
        });

        let logits = random(batch * classes);
        let labels: Vec<usize> = (0..batch).map(|i| i % classes).collect();
        let mut grad = vec![0.0f32; batch * classes];
        let softmax_xent_us = time_us(|| {
            black_box(kernels::softmax_xent(
                black_box(&logits),
                &labels,
                batch,
                classes,
                &mut grad,
            ));
        });

        let dim = spec
            .build(&mut StdRng::seed_from_u64(cfg.seed))
            .params()
            .len();
        let vectors: Vec<Vec<f32>> = (0..128).map(|_| random(dim)).collect();
        let refs: Vec<&[f32]> = vectors.iter().map(Vec::as_slice).collect();
        let krum_pairwise_ms = time_us(|| {
            black_box(kernels::pairwise_sq_distances(black_box(&refs)));
        }) / 1e3;

        Self {
            shard_render_us,
            matmul_us,
            softmax_xent_us,
            krum_pairwise_ms,
        }
    }
}

/// The per-layer metrics of a traced run.
pub fn metrics(t: &Traced, probes: &Probes, host: &Host, workers: usize) -> Vec<Metric> {
    let l = &t.layers;
    let cells = l.cells.max(1) as f64;
    let rounds = l.rounds.max(1) as f64;
    let p = &l.profile;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let cell = |name, v: f64, unit| {
        Metric::new(name, v / cells, unit, format!("mean of {} cells", l.cells))
    };
    let round = |name, v: f64, unit| {
        Metric::new(
            name,
            v / rounds,
            unit,
            format!("mean of {} rounds", l.rounds),
        )
    };
    let round_ms = stats::sorted(l.round_ms.clone());
    let round_pct = |name, p| {
        let v = if round_ms.is_empty() {
            0.0
        } else {
            stats::percentile(&round_ms, p)
        };
        Metric::new(name, v, "ms", format!("n={}", round_ms.len()))
    };
    let train_ns = stats::sorted(l.train_ns.iter().map(|&ns| ns as f64).collect());
    let train_us_p50 = if train_ns.is_empty() {
        0.0
    } else {
        stats::percentile(&train_ns, 50.0) / 1e3
    };
    let lookups = l.shard_hits + l.shard_misses;
    let sim_self_ms = p.train_ms + p.commit_ms + p.aggregate_ms;
    let sim_loop_s = if l.sim_arrivals > 0 {
        l.loop_s - sim_self_ms / 1e3
    } else {
        0.0
    };
    let round_self_s = l.loop_s - (p.train_ms + p.aggregate_ms + l.craft_ms) / 1e3;
    vec![
        cell("cell.pre_loop_s", l.pre_loop_s, "s/cell"),
        cell("cell.closing_s", l.closing_s, "s/cell"),
        cell("data.build_s", l.data_build_s, "s/cell"),
        Metric::new(
            "data.shard_hit_ratio",
            ratio(l.shard_hits as f64, lookups as f64),
            "ratio",
            format!("{lookups} lookups"),
        ),
        cell("data.shard_misses", l.shard_misses as f64, "count/cell"),
        cell(
            "data.shard_evictions",
            l.shard_evictions as f64,
            "count/cell",
        ),
        Metric::new(
            "data.shard_render_us",
            probes.shard_render_us,
            "us",
            "generate_client, 256 ids".to_string(),
        ),
        cell(
            "data.resident_mb",
            l.resident_bytes as f64 / (1 << 20) as f64,
            "MB",
        ),
        cell("core.trojan_s", l.trojan_s, "s/cell"),
        cell("core.aux_s", l.aux_s, "s/cell"),
        cell("core.adversary_build_s", l.adversary_build_s, "s/cell"),
        round("core.craft_ms", l.craft_ms, "ms/round"),
        round("core.craft_calls", l.craft_calls as f64, "count/round"),
        round("fl.local_train_ms", l.train_ms, "ms/round"),
        round("fl.local_train_calls", l.train_calls as f64, "count/round"),
        Metric::new(
            "fl.local_train_us_p50",
            train_us_p50,
            "us",
            format!("n={}", train_ns.len()),
        ),
        Metric::new(
            "fl.lane_util",
            ratio(l.train_ms, workers as f64 * p.train_ms),
            "ratio",
            format!("{workers} lanes"),
        ),
        round("fl.aggregate_ms", l.agg_ms, "ms/round"),
        round("fl.aggregate_calls", l.agg_calls as f64, "count/round"),
        round("fl.round_self_ms", round_self_s * 1e3, "ms/round"),
        round_pct("fl.round_ms_p50", 50.0),
        round_pct("fl.round_ms_p90", 90.0),
        cell("fl.eval_s", l.eval_s, "s/cell"),
        cell("fl.eval_calls", l.eval_calls as f64, "count/cell"),
        cell("fl.cluster_s", l.cluster_s, "s/cell"),
        Metric::new(
            "nn.train_gflops",
            ratio(l.train_flops, l.train_ms * 1e6),
            "GFLOP/s",
            "analytic, per lane".to_string(),
        ),
        Metric::new(
            "nn.matmul_us",
            probes.matmul_us,
            "us",
            "first dense layer forward".to_string(),
        ),
        Metric::new(
            "nn.softmax_xent_us",
            probes.softmax_xent_us,
            "us",
            "output layer".to_string(),
        ),
        Metric::new(
            "nn.krum_pairwise_ms",
            probes.krum_pairwise_ms,
            "ms",
            "128 model-sized vectors".to_string(),
        ),
        round("runtime.pool_dispatch_ms", p.dispatch_ms, "ms/round"),
        round("runtime.pool_barrier_ms", p.barrier_ms, "ms/round"),
        round("runtime.pool_steals", p.steals as f64, "count/round"),
        cell("runtime.sim_loop_s", sim_loop_s, "s/cell"),
        cell("runtime.sim_events", l.sim_events as f64, "count/cell"),
        Metric::new(
            "runtime.sim_admit_ratio",
            ratio(l.sim_completions as f64, l.sim_arrivals as f64),
            "ratio",
            format!("{} arrivals", l.sim_arrivals),
        ),
        cell("runtime.trace_events", l.trace_events as f64, "count/cell"),
        cell("runtime.trace_hash_s", l.trace_hash_s, "s/cell"),
        Metric::new(
            "host.calibration_ms",
            host.calibration_ms,
            "ms",
            "median of 5 at start-up".to_string(),
        ),
        Metric::new(
            "trace_overhead",
            ratio(l.wall_s, t.untraced_wall_s) - 1.0,
            "ratio",
            format!(
                "traced {:.3} s / untraced {:.3} s",
                l.wall_s, t.untraced_wall_s
            ),
        ),
    ]
}
