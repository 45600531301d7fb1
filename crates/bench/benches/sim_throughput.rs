//! Discrete-event simulator throughput benchmark (`harness = false`).
//!
//! Drives the buffered-async (FedBuff) execution mode over a
//! 100,000-virtual-client population on the [`SyntheticSim`] handler —
//! every determinism-relevant moving part (event queue, availability
//! churn, version store, staleness-weighted merge, worker fan-out) without
//! a resident per-client dataset — and reports, per worker count:
//!
//! * `virtual_clients_per_sec` — client arrivals processed per wall second
//!   (the population-scale number: how fast the simulator admits, turns
//!   away and schedules virtual clients);
//! * `events_per_sec` — total simulator events per wall second (arrivals,
//!   churn flips, completions, flush deadlines);
//! * `flushes_per_sec` and the final virtual time reached.
//!
//! The trace runs in hashing mode (O(1) memory, every event still made
//! canonical and folded), and the run asserts the scale invariants the
//! simulator is designed around: live model snapshots stay within the
//! concurrency cap, and every worker count produces bitwise identical
//! final parameters and the same event-sequence hash.
//!
//! Emits `BENCH_sim.json`. Usage (all flags optional):
//!
//! ```text
//! cargo bench --bench sim_throughput -- \
//!     [--clients N] [--flushes F] [--dim D] [--out PATH]
//! ```

use collapois_fl::sim::SyntheticSim;
use collapois_nn::kernels;
use collapois_runtime::checkpoint::{fnv1a_extend, FNV_OFFSET};
use collapois_runtime::fault::FaultPlan;
use collapois_runtime::sim::{ArrivalProcess, ChurnPlan, SimDriver, SimPlan};
use collapois_runtime::trace::TraceLog;
use std::path::PathBuf;
use std::time::Instant;

/// The worker counts the sweep covers (the merge fan-out is the only
/// parallel section; the event loop itself is serial by design).
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Run seed (arbitrary, fixed: the point is bitwise reproducibility).
const SEED: u64 = 2025;

struct WorkerRow {
    workers: usize,
    wall_s: f64,
    virtual_clients_per_sec: f64,
    events_per_sec: f64,
    flushes_per_sec: f64,
    final_vtime_ms: f64,
    param_hash: u64,
    event_hash: (u64, u64),
}

/// FNV-1a over the parameter bit patterns (the golden-fixture idiom).
fn fnv1a_params(params: &[f32]) -> u64 {
    params.iter().fold(FNV_OFFSET, |h, v| {
        fnv1a_extend(h, &v.to_bits().to_le_bytes())
    })
}

fn plan(num_clients: usize) -> SimPlan {
    SimPlan {
        num_clients,
        arrival: ArrivalProcess::Poisson { mean_ms: 200.0 },
        train_mean_ms: 30.0,
        buffer_k: 64,
        // A quarter of the population cycles offline: churn flips are part
        // of the measured event stream.
        churn: Some(ChurnPlan {
            mean_up_ms: 600.0,
            mean_down_ms: 200.0,
        }),
        max_concurrency: 256,
        ..SimPlan::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut clients = 100_000usize;
    let mut flushes = 100u64;
    let mut dim = 512usize;
    let mut out = PathBuf::from("BENCH_sim.json");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                clients = args[i].parse().expect("--clients takes an integer");
            }
            "--flushes" => {
                i += 1;
                flushes = args[i].parse().expect("--flushes takes an integer");
            }
            "--dim" => {
                i += 1;
                dim = args[i].parse().expect("--dim takes an integer");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            // `cargo bench` passes --bench through to the target.
            "--bench" => {}
            other => panic!("unknown argument {other:?}"),
        }
        i += 1;
    }

    println!(
        "sim throughput: {clients} virtual clients, {flushes} flushes, dim {dim}, \
         buffer K=64, concurrency 256, churn 600/200 ms"
    );
    let mut rows: Vec<WorkerRow> = Vec::new();
    for workers in WORKER_COUNTS {
        let p = plan(clients);
        let cap = p.max_concurrency;
        let mut handler = SyntheticSim::new(dim, SEED, workers, 0.5);
        let mut trace = TraceLog::hashing();
        let mut driver = SimDriver::new(p, SEED, FaultPlan::none()).expect("valid plan");
        let start = Instant::now();
        let summary = driver.run(&mut handler, &mut trace, flushes);
        let wall_s = start.elapsed().as_secs_f64();
        assert!(
            summary.reached_target,
            "plan must sustain {flushes} flushes"
        );
        assert!(
            handler.versions().peak_live() <= cap,
            "snapshot memory must stay within the concurrency cap"
        );
        let row = WorkerRow {
            workers,
            wall_s,
            virtual_clients_per_sec: summary.arrivals as f64 / wall_s,
            events_per_sec: summary.events as f64 / wall_s,
            flushes_per_sec: summary.flushes as f64 / wall_s,
            final_vtime_ms: summary.final_vtime as f64 / 1e3,
            param_hash: fnv1a_params(handler.params()),
            event_hash: trace.event_hash().expect("hashing mode"),
        };
        println!(
            "  workers={workers}: {:.0} virtual-clients/sec, {:.0} events/sec, \
             {:.1} flushes/sec ({:.2}s wall, virtual {:.0} ms)",
            row.virtual_clients_per_sec,
            row.events_per_sec,
            row.flushes_per_sec,
            row.wall_s,
            row.final_vtime_ms
        );
        rows.push(row);
    }

    // Bitwise determinism across the sweep: same params, same events.
    let first = &rows[0];
    for r in &rows[1..] {
        assert_eq!(
            r.param_hash, first.param_hash,
            "final params diverged at workers={}",
            r.workers
        );
        assert_eq!(
            r.event_hash, first.event_hash,
            "event sequence diverged at workers={}",
            r.workers
        );
    }
    println!(
        "determinism: all worker counts agree (params 0x{:016x}, events 0x{:016x}/{})",
        first.param_hash, first.event_hash.0, first.event_hash.1
    );

    let mut body = String::from("{\n");
    body.push_str("  \"bench\": \"sim_throughput\",\n");
    body.push_str(&format!(
        "  \"host_parallelism\": {},\n",
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    ));
    body.push_str(&format!(
        "  \"cpu_features\": \"{}\",\n",
        kernels::cpu_features()
    ));
    body.push_str(&format!(
        "  \"kernel_tier\": \"{}\",\n",
        kernels::active_tier().name()
    ));
    body.push_str(&format!(
        "  \"virtual_clients\": {clients},\n  \"flushes\": {flushes},\n  \"dim\": {dim},\n"
    ));
    body.push_str(&format!(
        "  \"param_hash\": \"{:016x}\",\n  \"event_hash\": \"{:016x}\",\n  \"event_count\": {},\n",
        first.param_hash, first.event_hash.0, first.event_hash.1
    ));
    body.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        body.push_str(&format!(
            "    {{\"workers\": {}, \"virtual_clients_per_sec\": {:.1}, \"events_per_sec\": {:.1}, \"flushes_per_sec\": {:.2}, \"wall_s\": {:.3}, \"final_vtime_ms\": {:.1}}}{}\n",
            r.workers,
            r.virtual_clients_per_sec,
            r.events_per_sec,
            r.flushes_per_sec,
            r.wall_s,
            r.final_vtime_ms,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    body.push_str("  ]\n}\n");
    std::fs::write(&out, &body).unwrap_or_else(|e| panic!("cannot write {out:?}: {e}"));
    println!("wrote {}", out.display());
}
