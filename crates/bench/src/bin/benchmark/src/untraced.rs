//! The untraced measured pass, which gives every end-to-end number.
//!
//! Each cell runs through the product entry point, `Scenario::run_with`,
//! with the options the grid runner gives it, timed from outside. The run
//! trace is mirrored to a JSONL file and streamed back after the timed
//! region for the per-round `elapsed_ms` and the `RunCompleted` loop time.

use crate::check::Verdicts;
use crate::stats::{self, params_hash, CellDigest};
use crate::workloads::run_options;
use crate::Metric;
use collapois_core::scenario::Scenario;
use collapois_grid::schema::GridCell;
use collapois_runtime::trace::TraceEvent;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Cells per run at the least, so set-up is measured several times.
pub const MIN_CELLS: usize = 3;

/// One executed cell, as seen from outside.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// Wall time of the `run_with` call.
    pub wall_s: f64,
    /// `RunCompleted.elapsed_ms`: first round to `finish_run`, including
    /// in-loop evaluation.
    pub loop_s: f64,
    /// `(round, elapsed_ms)` of every round or flush.
    pub rounds: Vec<(usize, f64)>,
    /// Clients served: sampled clients summed over rounds, or client
    /// arrivals in sim mode.
    pub clients: u64,
    /// What the cell must reproduce.
    pub digest: CellDigest,
}

impl CellRun {
    /// Time outside the round loop: set-up before the first round plus the
    /// closing pass (final evaluation, cluster analysis, event hashing).
    pub fn setup_s(&self) -> f64 {
        self.wall_s - self.loop_s
    }
}

/// The message of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Runs one cell exactly as the grid runner does, plus a trace mirror at
/// `trace_path`, and checks that it completed.
pub fn run_cell(cell: &GridCell, workers: usize, trace_path: &Path) -> Result<CellRun, String> {
    let opts = run_options(cell, workers, Some(trace_path.to_path_buf()));
    let scenario = Scenario::new(cell.spec.config.clone());
    let start = Instant::now();
    let report = catch_unwind(AssertUnwindSafe(|| scenario.run_with(&opts)));
    let wall_s = start.elapsed().as_secs_f64();
    let report = report.map_err(|p| format!("panicked: {}", panic_message(p.as_ref())))?;
    let scan = scan_trace(trace_path);
    let _ = std::fs::remove_file(trace_path);
    let scan = scan?;

    let rounds = cell.spec.config.rounds;
    let (executed, loop_ms) = scan
        .run_completed
        .ok_or("trace has no run_completed event")?;
    if executed != rounds || scan.rounds.len() != rounds {
        return Err(format!(
            "{executed} rounds executed, {} traced, {rounds} configured",
            scan.rounds.len()
        ));
    }
    if !report.final_global.iter().all(|v| v.is_finite()) {
        return Err("final parameters are not finite".to_string());
    }
    Ok(CellRun {
        wall_s,
        loop_s: loop_ms / 1e3,
        rounds: scan.rounds,
        clients: if cell.spec.sim_enabled {
            scan.arrivals
        } else {
            scan.sampled
        },
        digest: CellDigest {
            event_hash: report.event_hash,
            event_count: report.event_count,
            params_hash: params_hash(&report.final_global),
        },
    })
}

#[derive(Debug, Default)]
struct TraceScan {
    rounds: Vec<(usize, f64)>,
    sampled: u64,
    arrivals: u64,
    run_completed: Option<(usize, f64)>,
}

/// Streams a trace file line by line, so reading it back holds one event
/// at a time and leaves the peak RSS to the run itself.
fn scan_trace(path: &Path) -> Result<TraceScan, String> {
    let file = File::open(path).map_err(|e| format!("cannot open trace: {e}"))?;
    let mut scan = TraceScan::default();
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| format!("cannot read trace: {e}"))?;
        let event =
            TraceEvent::from_json(&line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
        match event {
            TraceEvent::RoundStarted { sampled, .. } => scan.sampled += sampled.len() as u64,
            TraceEvent::RoundCompleted {
                round, elapsed_ms, ..
            } => scan.rounds.push((round, elapsed_ms)),
            TraceEvent::ClientArrived { .. } => scan.arrivals += 1,
            TraceEvent::RunCompleted {
                rounds_executed,
                elapsed_ms,
            } => scan.run_completed = Some((rounds_executed, elapsed_ms)),
            _ => {}
        }
    }
    Ok(scan)
}

/// Step through a grid's cells: coprime with the paper grid's 168 cells,
/// so the schedule visits every cell once and a run cut short by its time
/// box has still sampled every axis evenly.
const GRID_STRIDE: usize = 67;

/// The cells a time-boxed run visits: each cell of a grid once, in steps
/// of [`GRID_STRIDE`]; a single cell over and over.
pub fn schedule(cells: &[GridCell]) -> impl Iterator<Item = &GridCell> {
    let n = cells.len();
    let (stride, limit) = if n > 1 {
        (GRID_STRIDE, n)
    } else {
        (1, usize::MAX)
    };
    (0..limit).map(move |i| &cells[i * stride % n])
}

/// Runs the workload's [`schedule`] until `seconds` of cell wall time and
/// at least [`MIN_CELLS`] cells have run. Returns the passing cells.
pub fn run(
    cells: &[GridCell],
    seconds: f64,
    workers: usize,
    tmp: &Path,
    verdicts: &mut Verdicts,
) -> Vec<CellRun> {
    let trace_path = tmp.join("untraced.jsonl");
    let mut runs = Vec::new();
    let mut measured = 0.0;
    for (n, cell) in schedule(cells).enumerate() {
        if n >= MIN_CELLS && measured >= seconds {
            break;
        }
        let start = Instant::now();
        let outcome = run_cell(cell, workers, &trace_path);
        measured += outcome
            .as_ref()
            .map_or_else(|_| start.elapsed().as_secs_f64(), |r| r.wall_s);
        let digest = outcome.as_ref().map(|r| r.digest).map_err(Clone::clone);
        if verdicts.record(cell.index, digest) {
            runs.push(outcome.expect("recorded as passing"));
        }
    }
    runs
}

/// The end-to-end metrics of a non-empty set of cells.
pub fn metrics(runs: &[CellRun], peak_rss_mb: f64) -> Vec<Metric> {
    let cells = runs.len();
    let setups: Vec<f64> = runs.iter().map(CellRun::setup_s).collect();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    let steady: Vec<f64> = runs
        .iter()
        .flat_map(|r| stats::steady_window(&r.rounds))
        .collect();
    let steady_s = steady.iter().sum::<f64>() / 1e3;
    let loop_s: f64 = runs.iter().map(|r| r.loop_s).sum();
    let clients: u64 = runs.iter().map(|r| r.clients).sum();
    let n = steady.len();
    vec![
        Metric::new(
            "setup_s",
            stats::median(&setups),
            "s",
            format!("median of {cells} cells"),
        ),
        Metric::new(
            "cell_s_p50",
            stats::median(&walls),
            "s",
            format!("n={cells}"),
        ),
        Metric::new(
            "rounds_per_s",
            n as f64 / steady_s,
            "1/s",
            format!("{n} rounds after round 0"),
        ),
        Metric::new(
            "clients_per_s",
            clients as f64 / loop_s,
            "1/s",
            format!("{clients} clients"),
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB", "VmHWM".to_string()),
    ]
}
