//! End-to-end round-loop throughput benchmark (`harness = false`).
//!
//! Runs the CollaPois round loop at worker counts 1/2/4/8 over four
//! scenarios — 64 clients (the paper's client-level sweep size), 256
//! clients (enough sampled clients per round that the parallel fan-out has
//! real work), a faulted 64-client cohort (20% dropout plus straggler
//! shedding and in-flight corruption, exercising the degradation paths the
//! fault plan adds to the round loop), and 4096 clients at a 64-client
//! per-round fan-out (paper-scale cohort: binomial sampling and lazy
//! shard residency on the hot path) — measures steady-state rounds/sec
//! from the per-round
//! `elapsed_ms` of the structured run trace (setup — data generation,
//! Trojan training — is excluded by construction), and emits
//! `BENCH_rounds.json` to seed the perf trajectory. Each row carries its
//! `scaling_efficiency` = (rps_w / rps_1) / w, and the file records the
//! host's `available_parallelism` so flat scaling measured on a small
//! machine is not mistaken for a regression.
//!
//! With the `bench-alloc` feature a counting `#[global_allocator]` is
//! installed and the per-round heap traffic is derived from the marginal
//! byte count between an `R`-round and a `2R`-round run of the identical
//! scenario (the setup allocations cancel).
//!
//! Usage (all flags optional):
//!
//! ```text
//! cargo bench --bench rounds_throughput -- \
//!     [--rounds N] [--out PATH] [--check BASELINE.json]
//! ```
//!
//! `--check` compares the `clients64` workers=1 rounds/sec against the
//! same row of a previously committed `BENCH_rounds.json`, looked up by
//! scenario name through the runtime's JSON codec, and exits non-zero on
//! a >20% regression; on hosts with at least 4 cores it additionally
//! enforces a workers=4 scaling-efficiency floor on the fresh measurement —
//! the CI guard-rails once a baseline exists. Skip messages always state
//! the host's parallelism so a skipped check is attributable to the
//! machine it ran on.
//!
//! Baselines are host-shaped: the emitted file records `host_parallelism`,
//! and a run on a single-core host refuses to overwrite a baseline
//! measured on a multi-core host (its scaling rows would silently degrade
//! to noise). Pass `--force` to overwrite anyway.

use collapois_bench::baseline_rounds_per_sec;
use collapois_core::scenario::{AttackKind, DefenseKind, RunOptions, Scenario, ScenarioConfig};
use collapois_nn::kernels;
use collapois_runtime::fault::FaultPlan;
use collapois_runtime::json::{self, Value};
use collapois_runtime::trace::{read_trace, TraceEvent};
use std::path::{Path, PathBuf};

#[cfg(feature = "bench-alloc")]
mod counting_alloc {
    //! Byte-counting global allocator, enabled by the `bench-alloc` feature.
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static BYTES: AtomicU64 = AtomicU64::new(0);
    pub static COUNT: AtomicU64 = AtomicU64::new(0);

    pub struct Counting;

    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            COUNT.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            COUNT.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static ALLOC: Counting = Counting;

    pub fn bytes_now() -> u64 {
        BYTES.load(Ordering::Relaxed)
    }
}

/// The worker counts every scenario sweeps.
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Minimum acceptable workers=4 scaling efficiency, enforced by `--check`
/// on hosts that actually have 4 cores.
const EFFICIENCY_FLOOR_W4: f64 = 0.5;

/// The scenario whose workers=1 rounds/sec `--check` compares.
const CHECKED_SCENARIO: &str = "clients64";

/// One benchmark scenario: `clients` clients, 5% compromised, CollaPois
/// attack, plain FedAvg — the steady-state configuration the paper's
/// client-level sweeps (Figs. 10–13) spend their round budget on.
fn bench_cfg(name: &'static str, clients: usize, rounds: usize) -> (&'static str, ScenarioConfig) {
    let mut cfg = ScenarioConfig::quick_image(1.0, 0.05);
    cfg.num_clients = clients;
    cfg.samples_per_client = 30;
    cfg.rounds = rounds;
    // Evaluate only once at the end: this benchmark times the round loop,
    // not the metrics pass.
    cfg.eval_every = rounds;
    cfg.sample_rate = 0.25;
    cfg.attack = AttackKind::CollaPois;
    cfg.defense = DefenseKind::None;
    cfg.trojan.epochs = 4;
    (name, cfg)
}

/// The faulted scenario's plan: the acceptance dropout rate plus straggler
/// shedding and a little in-flight corruption, so every client-level
/// degradation path is on the measured hot path.
fn faulted_plan() -> FaultPlan {
    FaultPlan {
        dropout: 0.2,
        straggler: 0.1,
        straggler_mean_ms: 5.0,
        deadline_ms: 10.0,
        corrupt: 0.05,
        ..FaultPlan::none()
    }
}

/// Per-round wall-clock samples of one scenario run, read back from the
/// structured trace (ms per completed round, in round order).
fn round_times_ms(
    cfg: &ScenarioConfig,
    fault: FaultPlan,
    workers: usize,
    trace_path: &PathBuf,
) -> Vec<f64> {
    let _ = std::fs::remove_file(trace_path);
    Scenario::new(cfg.clone()).run_with(&RunOptions {
        workers,
        trace_path: Some(trace_path.clone()),
        fault,
        ..RunOptions::default()
    });
    let events = read_trace(trace_path).expect("trace readable");
    let _ = std::fs::remove_file(trace_path);
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RoundCompleted { elapsed_ms, .. } => Some(*elapsed_ms),
            _ => None,
        })
        .collect()
}

/// Marginal heap bytes per round: run the identical scenario at `r` and
/// `2r` rounds and divide the byte-count difference by the extra rounds.
#[cfg(feature = "bench-alloc")]
fn bytes_per_round(cfg: &ScenarioConfig, fault: FaultPlan, workers: usize) -> u64 {
    let run = |rounds: usize| -> u64 {
        let mut c = cfg.clone();
        c.rounds = rounds;
        c.eval_every = rounds;
        let before = counting_alloc::bytes_now();
        Scenario::new(c).run_with(&RunOptions {
            workers,
            fault,
            ..RunOptions::default()
        });
        counting_alloc::bytes_now() - before
    };
    let r = cfg.rounds.max(2);
    let short = run(r);
    let long = run(2 * r);
    long.saturating_sub(short) / r as u64
}

struct WorkerResult {
    workers: usize,
    rounds_per_sec: f64,
    mean_round_ms: f64,
    scaling_efficiency: f64,
    bytes_alloc_per_round: Option<u64>,
}

struct ScenarioResult {
    name: &'static str,
    clients: usize,
    /// Per-round client sampling rate (the 4096-client scenario thins it).
    sample_rate: f64,
    /// Human-readable fault-plan summary (`"none"` for clean scenarios).
    faults: &'static str,
    results: Vec<WorkerResult>,
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn emit_json(rounds: usize, scenarios: &[ScenarioResult], out: &PathBuf) {
    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"rounds_throughput\",\n");
    body.push_str(&format!(
        "  \"alloc_counted\": {},\n",
        cfg!(feature = "bench-alloc")
    ));
    body.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        host_parallelism()
    ));
    body.push_str(&format!(
        "  \"cpu_features\": \"{}\",\n",
        kernels::cpu_features()
    ));
    body.push_str(&format!(
        "  \"kernel_tier\": \"{}\",\n",
        kernels::active_tier().name()
    ));
    body.push_str("  \"scenarios\": [\n");
    for (si, sc) in scenarios.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"compromised_frac\": 0.05, \"attack\": \"collapois\", \"defense\": \"none\", \"faults\": \"{}\", \"rounds\": {rounds}, \"sample_rate\": {}, \"results\": [\n",
            sc.name, sc.clients, sc.faults, sc.sample_rate
        ));
        for (i, r) in sc.results.iter().enumerate() {
            let bytes = match r.bytes_alloc_per_round {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            };
            body.push_str(&format!(
                "      {{\"workers\": {}, \"rounds_per_sec\": {:.3}, \"mean_round_ms\": {:.3}, \"scaling_efficiency\": {:.3}, \"bytes_alloc_per_round\": {}}}{}\n",
                r.workers,
                r.rounds_per_sec,
                r.mean_round_ms,
                r.scaling_efficiency,
                bytes,
                if i + 1 < sc.results.len() { "," } else { "" }
            ));
        }
        body.push_str(&format!(
            "    ]}}{}\n",
            if si + 1 < scenarios.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(out, &body).unwrap_or_else(|e| panic!("cannot write {out:?}: {e}"));
    println!("wrote {}", out.display());
}

/// Parses a previously emitted `BENCH_rounds.json`; `None` when there is
/// no file to read.
fn read_baseline(path: &Path) -> Option<Value> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut rounds = 20usize;
    let mut out = PathBuf::from("BENCH_rounds.json");
    let mut check: Option<PathBuf> = None;
    let mut force = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--rounds" => {
                i += 1;
                rounds = args[i].parse().expect("--rounds takes an integer");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            "--check" => {
                i += 1;
                check = Some(PathBuf::from(&args[i]));
            }
            "--force" => force = true,
            // `cargo bench` passes --bench through to the target.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }
    let rounds = rounds.max(2);

    // A single-core run must not clobber a baseline measured with real
    // parallelism: its scaling rows would replace signal with noise.
    if !force {
        // The legacy layout predates `host_parallelism`: no guard then.
        let prev_cores =
            read_baseline(&out).and_then(|b| b.get_int::<usize>("host_parallelism").ok());
        if let Some(prev_cores) = prev_cores {
            let cores = host_parallelism();
            if prev_cores > 1 && cores == 1 {
                eprintln!(
                    "refusing to overwrite {}: committed baseline was measured with \
                     host_parallelism={prev_cores}, this host has {cores} core(s). \
                     Re-run on a comparable machine or pass --force.",
                    out.display()
                );
                std::process::exit(1);
            }
        }
    }

    let trace_path = std::env::temp_dir().join(format!(
        "collapois-rounds-throughput-{}.jsonl",
        std::process::id()
    ));

    let mut scenarios = Vec::new();
    let (c64, cfg64) = bench_cfg("clients64", 64, rounds);
    let (c256, cfg256) = bench_cfg("clients256", 256, rounds);
    let (c64f, cfg64f) = bench_cfg("clients64-faulted", 64, rounds);
    // Paper-scale cohort: 4096 clients crosses the lazy-materialization
    // threshold, so shards render on first touch under the LRU budget and
    // per-round sampling goes through the binomial fast path. The sample
    // rate is thinned to a 64-client per-round fan-out so the row measures
    // cohort-scale bookkeeping, not 16x more batch arithmetic.
    let (c4096, mut cfg4096) = bench_cfg("clients4096", 4096, rounds);
    cfg4096.sample_rate = 64.0 / 4096.0;
    for (name, cfg, fault, faults) in [
        (c64, cfg64, FaultPlan::none(), "none"),
        (c256, cfg256, FaultPlan::none(), "none"),
        (
            c64f,
            cfg64f,
            faulted_plan(),
            "dropout=0.2 straggler=0.1@5ms/10ms corrupt=0.05",
        ),
        (c4096, cfg4096, FaultPlan::none(), "none"),
    ] {
        println!(
            "scenario {name}: {} clients (faults: {faults})",
            cfg.num_clients
        );
        let mut results: Vec<WorkerResult> = Vec::new();
        for workers in WORKER_COUNTS {
            let times = round_times_ms(&cfg, fault, workers, &trace_path);
            assert_eq!(times.len(), rounds, "trace must hold one entry per round");
            // Drop the first round: it pays one-off warm-up costs (arena
            // growth, kernel scratch, lazily-sized buffers).
            let steady = &times[1.min(times.len() - 1)..];
            let mean_ms: f64 = steady.iter().sum::<f64>() / steady.len() as f64;
            let rps = 1e3 / mean_ms;
            let rps_1 = results.first().map(|r| r.rounds_per_sec).unwrap_or(rps);
            let efficiency = (rps / rps_1) / workers as f64;
            #[cfg(feature = "bench-alloc")]
            let bytes = Some(bytes_per_round(&cfg, fault, workers));
            #[cfg(not(feature = "bench-alloc"))]
            let bytes = None;
            println!(
                "  workers={workers}: {rps:.2} rounds/sec (mean {mean_ms:.2} ms/round, \
                 efficiency {efficiency:.2}{})",
                match bytes {
                    Some(b) => format!(", {b} bytes allocated/round"),
                    None => String::new(),
                }
            );
            results.push(WorkerResult {
                workers,
                rounds_per_sec: rps,
                mean_round_ms: mean_ms,
                scaling_efficiency: efficiency,
                bytes_alloc_per_round: bytes,
            });
        }
        scenarios.push(ScenarioResult {
            name,
            clients: cfg.num_clients,
            sample_rate: cfg.sample_rate,
            faults,
            results,
        });
    }

    emit_json(rounds, &scenarios, &out);

    if let Some(baseline_path) = check {
        match read_baseline(&baseline_path) {
            Some(doc) => {
                let base =
                    baseline_rounds_per_sec(&doc, CHECKED_SCENARIO, 1).unwrap_or_else(|| {
                        panic!(
                            "{} has no {CHECKED_SCENARIO} workers=1 row",
                            baseline_path.display()
                        )
                    });
                let now = scenarios
                    .iter()
                    .find(|sc| sc.name == CHECKED_SCENARIO)
                    .and_then(|sc| sc.results.iter().find(|r| r.workers == 1))
                    .expect("the checked scenario runs at workers=1")
                    .rounds_per_sec;
                let floor = 0.8 * base;
                println!(
                    "baseline check: {CHECKED_SCENARIO} workers=1 {now:.2} rounds/sec vs \
                     committed {base:.2} (floor {floor:.2})"
                );
                assert!(
                    now >= floor,
                    "rounds/sec regressed >20% against the committed baseline: \
                     {now:.2} < 0.8 * {base:.2}"
                );
            }
            None => println!(
                "no baseline at {} — skipping regression check (host_parallelism={})",
                baseline_path.display(),
                host_parallelism()
            ),
        }
        let cores = host_parallelism();
        if cores >= 4 {
            for sc in &scenarios {
                let w4 = sc
                    .results
                    .iter()
                    .find(|r| r.workers == 4)
                    .expect("workers=4 row");
                println!(
                    "scaling check ({}): workers=4 efficiency {:.2} (floor {EFFICIENCY_FLOOR_W4})",
                    sc.name, w4.scaling_efficiency
                );
                assert!(
                    w4.scaling_efficiency >= EFFICIENCY_FLOOR_W4,
                    "{}: workers=4 scaling efficiency {:.2} below the {EFFICIENCY_FLOOR_W4} floor",
                    sc.name,
                    w4.scaling_efficiency
                );
            }
        } else {
            println!(
                "scaling check skipped: host_parallelism={cores}, need >= 4 for a \
                 meaningful workers=4 efficiency"
            );
        }
    }
}
