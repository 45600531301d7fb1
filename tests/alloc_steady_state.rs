//! Proves the zero-allocation steady-state contract of the training hot
//! paths: after warm-up has grown every arena to its working size, further
//! passes perform **zero** heap allocations — both for a single client's
//! local-training inner loop and for the pooled multi-worker fan-out the
//! server's round loop uses, and for the averaging, voting and coordinate
//! aggregation rules at two round sizes — and the Trojan's central
//! training makes the same number of allocations however many epochs it
//! runs.
//!
//! The test installs a counting `#[global_allocator]` (the same mechanism as
//! the `bench-alloc` feature of the `rounds_throughput` benchmark) and runs
//! with `harness = false`: the libtest harness spawns worker threads whose
//! own bookkeeping allocations would pollute the process-global counters and
//! make the zero assertion flaky. With no harness, the only threads are the
//! ones the worker pool owns — and those must not allocate in steady state
//! either, which is exactly the contract under test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation routed through the global allocator.
struct CountingAlloc;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use collapois_core::trojan::{train_trojan, TrojanConfig};
use collapois_data::sample::Dataset;
use collapois_data::trigger::PatchTrigger;
use collapois_fl::aggregate::{
    CoordinateMedian, Crfl, DpAggregator, FedAvg, NormBound, RobustLearningRate, SignSgd,
    TrimmedMean, UserLevelDp,
};
use collapois_fl::client::{local_sgd_delta_into, Correction};
use collapois_fl::config::FlConfig;
use collapois_fl::monitor::ShiftDetector;
use collapois_fl::update::ClientUpdate;
use collapois_fl::{Aggregator, ClientScratch};
use collapois_nn::zoo::ModelSpec;
use collapois_runtime::pool::{WorkerArenas, WorkerPool};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn toy_data() -> Dataset {
    let mut ds = Dataset::empty(&[8], 4);
    for i in 0..64 {
        let c = i % 4;
        let mut row = [0.0f32; 8];
        row[c] = 1.0;
        row[c + 4] = 0.5;
        ds.push(&row, c);
    }
    ds
}

fn assert_zero(label: &str, counts: (u64, u64)) {
    let (count, bytes) = counts;
    assert_eq!(
        count, 0,
        "steady-state {label} performed {count} allocations ({bytes} bytes)"
    );
    println!("alloc_steady_state: {label} ok");
}

/// Runs `f` and returns (allocations, bytes) it performed.
fn counting<F: FnMut()>(mut f: F) -> (u64, u64) {
    let count_before = ALLOC_COUNT.load(Ordering::SeqCst);
    let bytes_before = ALLOC_BYTES.load(Ordering::SeqCst);
    f();
    let count_after = ALLOC_COUNT.load(Ordering::SeqCst);
    let bytes_after = ALLOC_BYTES.load(Ordering::SeqCst);
    (count_after - count_before, bytes_after - bytes_before)
}

/// One client's local-training inner loop: after one warm-up pass has grown
/// the [`ClientScratch`] arena, repeated passes must not touch the allocator.
fn serial_training_inner_loop() {
    let spec = ModelSpec::mlp(8, &[16, 8], 4);
    let mut cfg = FlConfig::quick(spec.clone());
    cfg.local_steps = 4;
    cfg.batch_size = 16;
    let mut rng = StdRng::seed_from_u64(7);
    let model = spec.build(&mut rng);
    let global = model.params().to_vec();
    let data = toy_data();
    let prox = Correction::Prox {
        mu: 0.01,
        anchor: &global,
    };
    let mut scratch = ClientScratch::for_model(&model);

    // Warm-up: grows every arena buffer (workspace activations, gradient
    // ping-pong, parameter views, minibatch tensors, delta) to working size.
    let mut train_rng = StdRng::seed_from_u64(11);
    local_sgd_delta_into(&mut train_rng, &mut scratch, &global, &data, &cfg, prox);

    let counts = counting(|| {
        for round in 0..8u64 {
            let mut train_rng = StdRng::seed_from_u64(100 + round);
            local_sgd_delta_into(&mut train_rng, &mut scratch, &global, &data, &cfg, prox);
        }
    });
    assert_zero("serial training", counts);
}

/// The server's multi-worker fan-out shape at `workers = 4`: recycled
/// `(client, delta)` jobs dispatched through `map_with_arena_into` with one
/// persistent [`ClientScratch`] per lane. Once the job/outcome buffers and
/// every lane arena are at size, whole dispatch-train-barrier passes must
/// perform zero allocations on *any* thread — dispatcher or helper lane.
fn pooled_fanout_at_four_workers() {
    const CLIENTS: usize = 12;
    let spec = ModelSpec::mlp(8, &[16, 8], 4);
    let mut cfg = FlConfig::quick(spec.clone());
    cfg.local_steps = 2;
    cfg.batch_size = 16;
    let mut rng = StdRng::seed_from_u64(7);
    let model = spec.build(&mut rng);
    let global = model.params().to_vec();
    let data = toy_data();
    let prox = Correction::Prox {
        mu: 0.01,
        anchor: &global,
    };

    let pool = WorkerPool::new(4);
    let mut arenas: WorkerArenas<ClientScratch> = WorkerArenas::new();
    let mut jobs: Vec<(usize, Vec<f32>)> = (0..CLIENTS).map(|cid| (cid, Vec::new())).collect();
    let mut out: Vec<(usize, Vec<f32>)> = Vec::new();

    let pass = |arenas: &mut WorkerArenas<ClientScratch>,
                jobs: &mut Vec<(usize, Vec<f32>)>,
                out: &mut Vec<(usize, Vec<f32>)>| {
        pool.map_with_arena_into(
            arenas,
            jobs,
            out,
            || ClientScratch::for_model(&model),
            |_, (cid, buf), scratch| {
                scratch.delta = buf;
                let mut train_rng = StdRng::seed_from_u64(200 + cid as u64);
                local_sgd_delta_into(&mut train_rng, scratch, &global, &data, &cfg, prox);
                (cid, std::mem::take(&mut scratch.delta))
            },
        );
        // Outputs carry the delta buffers; swapping hands them back as the
        // next pass's jobs, so capacity is recycled end to end.
        std::mem::swap(jobs, out);
    };

    // Warm-up: lane arenas are built on first dispatch, delta buffers grow
    // to model size, and the outcome vector reaches its high-water mark.
    // A second pass settles any lazily-grown per-lane state.
    pass(&mut arenas, &mut jobs, &mut out);
    pass(&mut arenas, &mut jobs, &mut out);

    // Work-stealing makes lane participation schedule-dependent: on a
    // loaded host the dispatcher can steal every job, leaving a helper
    // thread's scratch — and its 128 KiB thread-local kernel pack buffer —
    // cold until some later (counted) pass. The pinned warm-up dispatch
    // trains once on every lane's own thread, so steady state is
    // schedule-independent.
    pool.warm_lanes(
        &mut arenas,
        || ClientScratch::for_model(&model),
        |_, scratch| {
            let mut train_rng = StdRng::seed_from_u64(300);
            local_sgd_delta_into(&mut train_rng, scratch, &global, &data, &cfg, prox);
        },
    );

    let counts = counting(|| {
        for _ in 0..8 {
            pass(&mut arenas, &mut jobs, &mut out);
        }
    });
    assert_zero("workers=4 fan-out", counts);
}

/// The shift detector's `observe` call, which runs inside the round loop
/// when monitoring is enabled: once the ring buffers, the previous-model
/// copy and the median/MAD sort scratch are at size, alert-free rounds must
/// not touch the allocator.
fn monitor_observe_steady_state() {
    const DIM: usize = 512;
    let mut det = ShiftDetector::default_paper();
    let mut global = vec![0.0f32; DIM];

    // Warm-up: first observation clones the model, later ones fill the
    // displacement/utility rings past the window and size the sort scratch.
    for t in 0..10u32 {
        for (i, g) in global.iter_mut().enumerate() {
            *g = 1.0 / (t as f32 + 1.0) + 0.003 * ((i % 5) as f32);
        }
        det.observe(Some(&global), Some(0.5 + 0.01 * t as f64));
    }

    let counts = counting(|| {
        for t in 10..40u32 {
            for (i, g) in global.iter_mut().enumerate() {
                *g = 1.0 / (t as f32 + 1.0) + 0.003 * ((i % 5) as f32);
            }
            let alert = det.observe(Some(&global), Some(0.5 + 0.01 * t as f64));
            assert!(alert.is_none(), "smooth series must not alert");
        }
    });
    assert_zero("monitor observe", counts);
}

/// The averaging and voting rules run allocation-free once warm: a
/// one-lane `aggregate_into` (the trait default, which runs the rule's one
/// body on a pool that holds no thread) takes its mean through the rule's
/// persistent reduction scratch, clipping inside the tree's leaves, and
/// draws its noise through a block on the stack; RLR and SignSGD count
/// votes into a persistent buffer, and the coordinate rules rebuild their
/// sorting network in place and fill persistent lane rows. Rounds vary in
/// size, so the counted calls alternate 15 and 13 updates after a warm-up
/// at 15. A noisy CRFL `post_process` must not touch the allocator either,
/// over a dimension that is no multiple of the noise block.
fn aggregation_steady_state() {
    const DIM: usize = 1000;
    let updates: Vec<ClientUpdate> = (0..15)
        .map(|i| {
            let delta = (0..DIM).map(|j| ((i * 7 + j) as f32).sin()).collect();
            ClientUpdate::new(i, delta, 10)
        })
        .collect();
    let mut out = vec![0.0f32; DIM];
    let mut rng = StdRng::seed_from_u64(5);

    let rules: [(&str, Box<dyn Aggregator>); 9] = [
        ("FedAvg", Box::new(FedAvg::new())),
        (
            "noisy NormBound",
            Box::new(NormBound::new(1.0).with_noise(0.01)),
        ),
        ("noisy DP", Box::new(DpAggregator::new(1.0, 0.3))),
        ("user-DP", Box::new(UserLevelDp::new(1.0, 0.05))),
        ("CRFL", Box::new(Crfl::new(5.0, 0.01))),
        ("RLR", Box::new(RobustLearningRate::new(2))),
        ("SignSGD", Box::new(SignSgd::new(0.01))),
        ("median", Box::new(CoordinateMedian::new())),
        ("trimmed mean", Box::new(TrimmedMean::new(0.2))),
    ];
    for (label, mut rule) in rules {
        // Warm-up: grows the reduction tree's partial-accumulator matrix,
        // the vote buffer, or the sorting network and lane rows.
        rule.aggregate_into(&updates, &mut out, &mut rng);
        let counts = counting(|| {
            for round in 0..8 {
                let n = if round % 2 == 0 { 15 } else { 13 };
                rule.aggregate_into(&updates[..n], &mut out, &mut rng);
            }
        });
        assert_zero(&format!("{label} aggregate_into"), counts);
    }

    let mut crfl = Crfl::new(5.0, 0.01);
    let counts = counting(|| {
        for _ in 0..8 {
            crfl.post_process(&mut out, &mut rng);
        }
    });
    assert_zero("noisy CRFL post_process", counts);
}

/// The Trojan's central training loop (Eq. 1) runs on the same workspace
/// step: once one run has warmed the thread-local kernel buffers, a run of
/// 4 epochs must allocate exactly as often as a run of 2 — nothing per
/// step.
fn trojan_allocations_do_not_grow_with_epochs() {
    let mut aux = Dataset::empty(&[1, 4, 4], 4);
    for i in 0..48 {
        let c = i % 4;
        let row: Vec<f32> = (0..16).map(|p| ((p + c) % 4) as f32 * 0.25).collect();
        aux.push(&row, c);
    }
    let trigger = PatchTrigger::badnets(4);
    let spec = ModelSpec::mlp(16, &[12], 4);
    let run = |epochs: usize| {
        let cfg = TrojanConfig {
            epochs,
            batch_size: 8,
            ..TrojanConfig::default()
        };
        counting(|| {
            train_trojan(&spec, &aux, &trigger, &cfg);
        })
    };
    run(1);
    let (two, _) = run(2);
    let (four, _) = run(4);
    assert_eq!(
        two, four,
        "train_trojan allocated {two} times at 2 epochs but {four} at 4"
    );
    println!("alloc_steady_state: trojan training ok");
}

fn main() {
    serial_training_inner_loop();
    pooled_fanout_at_four_workers();
    monitor_observe_steady_state();
    aggregation_steady_state();
    trojan_allocations_do_not_grow_with_epochs();
}
