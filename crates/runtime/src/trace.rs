//! Structured run traces: one JSON object per line (JSONL).
//!
//! Every run emits a stream of [`TraceEvent`]s — run lifecycle, per-round
//! results, drift alerts, checkpoint saves. The trace is the canonical
//! record of a run: round summaries consumed by scenario reports and bench
//! figures are rebuilt from these events, so what lands on disk and what
//! the in-process consumers see are the same data by construction.
//!
//! Serialization goes through [`crate::json`]: a fixed schema per variant,
//! tagged by an `"event"` field and written member by member, read back by
//! the same codec's parser (`trace` CLI inspection, resume tooling, tests).
//! Integer fields (`run_seed`, `config_hash`, …) round-trip exactly.
//!
//! Wall-clock fields (`elapsed_ms`) are the only nondeterministic content;
//! [`TraceEvent::normalized`] zeroes them so two traces can be compared
//! bit-for-bit in determinism tests.

use crate::json::{self, err, Obj, Value};
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

/// One line of a run trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Emitted once when the round loop starts (or resumes).
    RunStarted {
        /// Seed all RNG streams derive from.
        run_seed: u64,
        /// Hash of the run config.
        config_hash: u64,
        /// Total client population.
        num_clients: usize,
        /// Rounds the run will execute in total.
        rounds: usize,
        /// Worker threads used for client fan-out.
        workers: usize,
        /// Aggregation rule in effect.
        aggregator: String,
        /// Round a checkpoint resumed from, if any.
        resumed_from: Option<u32>,
    },
    /// Client sampling outcome at the top of a round.
    RoundStarted {
        /// Round index.
        round: usize,
        /// Sampled client ids, ascending.
        sampled: Vec<usize>,
        /// Subset of `sampled` under adversary control, ascending.
        compromised: Vec<usize>,
    },
    /// Aggregated results at the bottom of a round.
    RoundCompleted {
        /// Round index.
        round: usize,
        /// Aggregation rule applied this round.
        aggregator: String,
        /// Number of malicious updates submitted.
        num_malicious: usize,
        /// L2 norms of benign client updates, in sampled order.
        benign_norms: Vec<f64>,
        /// L2 norms of malicious client updates, in sampled order.
        malicious_norms: Vec<f64>,
        /// L2 norm of the aggregated (post-defense) global delta.
        agg_delta_norm: f64,
        /// Wall-clock time for the round, milliseconds.
        elapsed_ms: f64,
    },
    /// A monitor flagged anomalous global-model drift.
    ShiftAlert {
        /// Round the alert fired.
        round: usize,
        /// Observed displacement/utility value.
        observed: f64,
        /// Robust baseline (median) of the series.
        baseline_median: f64,
        /// Robust z-score of the observation.
        z_score: f64,
    },
    /// A snapshot was written.
    CheckpointSaved {
        /// Next round to execute when resuming from this snapshot.
        round: usize,
        /// Path the snapshot was written to.
        path: String,
    },
    /// A fault-plan decision removed a sampled client from the round's
    /// cohort (injected dropout, or a straggler shed by the deadline).
    ClientDropped {
        /// Round index.
        round: usize,
        /// The client removed from the cohort.
        client: usize,
        /// `"dropout"` or `"straggler"`.
        cause: String,
        /// Deterministic virtual delay for stragglers, in ms (0 for
        /// dropouts).
        delay_ms: f64,
    },
    /// The server rejected a client's update before aggregation
    /// (non-finite values — injected corruption or divergent training).
    UpdateRejected {
        /// Round index.
        round: usize,
        /// The client whose update was rejected.
        client: usize,
        /// `"injected_corruption"` or `"non_finite"`.
        reason: String,
    },
    /// A checkpoint-write attempt failed (injected or a real I/O error).
    CheckpointWriteFailed {
        /// Round the snapshot was for.
        round: usize,
        /// 1-based attempt number.
        attempt: usize,
        /// The error the attempt surfaced.
        error: String,
        /// Whether this was the final attempt (the snapshot was skipped).
        gave_up: bool,
    },
    /// Emitted once when the round loop finishes.
    RunCompleted {
        /// Rounds executed by this process (excludes resumed-over rounds).
        rounds_executed: usize,
        /// Total wall-clock time, milliseconds.
        elapsed_ms: f64,
    },
    /// Sim mode: a virtual client fetched the global model and started
    /// training.
    ClientArrived {
        /// Virtual time, integer microseconds (bitwise replay-stable).
        vtime_us: u64,
        /// Virtual client id.
        client: usize,
        /// Global model version the client fetched.
        version: u64,
    },
    /// Sim mode: an arrival was turned away without training.
    ClientUnavailable {
        /// Virtual time, integer microseconds.
        vtime_us: u64,
        /// Virtual client id.
        client: usize,
        /// `"offline"` (churn), `"busy"` (still training) or
        /// `"capacity"` (concurrency cap).
        reason: String,
    },
    /// Sim mode: the buffered-async aggregator merged its buffer.
    BufferFlushed {
        /// Virtual time, integer microseconds.
        vtime_us: u64,
        /// 0-based flush index (the sim analogue of a round).
        flush: u64,
        /// Completions merged.
        size: usize,
        /// Mean staleness (flushes elapsed since fetch) over the buffer.
        mean_staleness: f64,
        /// `"buffer_full"` (K reached) or `"deadline"`.
        cause: String,
    },
}

impl TraceEvent {
    /// The `"event"` tag this variant serializes under.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::RunStarted { .. } => "run_started",
            Self::RoundStarted { .. } => "round_started",
            Self::RoundCompleted { .. } => "round_completed",
            Self::ShiftAlert { .. } => "shift_alert",
            Self::CheckpointSaved { .. } => "checkpoint_saved",
            Self::ClientDropped { .. } => "client_dropped",
            Self::UpdateRejected { .. } => "update_rejected",
            Self::CheckpointWriteFailed { .. } => "checkpoint_write_failed",
            Self::RunCompleted { .. } => "run_completed",
            Self::ClientArrived { .. } => "client_arrived",
            Self::ClientUnavailable { .. } => "client_unavailable",
            Self::BufferFlushed { .. } => "buffer_flushed",
        }
    }

    /// A copy with all wall-clock fields zeroed, for bit-exact comparison
    /// of traces from runs that differ only in scheduling.
    pub fn normalized(&self) -> Self {
        let mut e = self.clone();
        match &mut e {
            Self::RoundCompleted { elapsed_ms, .. } | Self::RunCompleted { elapsed_ms, .. } => {
                *elapsed_ms = 0.0
            }
            _ => {}
        }
        e
    }

    /// A copy with wall-clock *and* host-shape fields zeroed: everything
    /// [`TraceEvent::normalized`] removes plus the `workers` count in
    /// `RunStarted`. What remains is the deterministic payload of the run —
    /// identical for any worker count — so canonical digests can pin a
    /// run's event sequence across host shapes (the grid conformance
    /// harness compares these across workers).
    pub fn canonical(&self) -> Self {
        let mut e = self.normalized();
        if let Self::RunStarted { workers, .. } = &mut e {
            *workers = 0;
        }
        e
    }

    /// Serializes to a single JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        let o = Obj::new(&mut s).str("event", self.kind());
        match self {
            Self::RunStarted {
                run_seed,
                config_hash,
                num_clients,
                rounds,
                workers,
                aggregator,
                resumed_from,
            } => {
                let o = o
                    .int("run_seed", *run_seed)
                    .int("config_hash", *config_hash)
                    .int("num_clients", *num_clients)
                    .int("rounds", *rounds)
                    .int("workers", *workers)
                    .str("aggregator", aggregator);
                match resumed_from {
                    Some(r) => o.int("resumed_from", *r),
                    None => o.null("resumed_from"),
                }
            }
            Self::RoundStarted {
                round,
                sampled,
                compromised,
            } => o
                .int("round", *round)
                .ints("sampled", sampled)
                .ints("compromised", compromised),
            Self::RoundCompleted {
                round,
                aggregator,
                num_malicious,
                benign_norms,
                malicious_norms,
                agg_delta_norm,
                elapsed_ms,
            } => o
                .int("round", *round)
                .str("aggregator", aggregator)
                .int("num_malicious", *num_malicious)
                .nums("benign_norms", benign_norms)
                .nums("malicious_norms", malicious_norms)
                .num("agg_delta_norm", *agg_delta_norm)
                .num("elapsed_ms", *elapsed_ms),
            Self::ShiftAlert {
                round,
                observed,
                baseline_median,
                z_score,
            } => o
                .int("round", *round)
                .num("observed", *observed)
                .num("baseline_median", *baseline_median)
                .num("z_score", *z_score),
            Self::CheckpointSaved { round, path } => o.int("round", *round).str("path", path),
            Self::ClientDropped {
                round,
                client,
                cause,
                delay_ms,
            } => o
                .int("round", *round)
                .int("client", *client)
                .str("cause", cause)
                .num("delay_ms", *delay_ms),
            Self::UpdateRejected {
                round,
                client,
                reason,
            } => o
                .int("round", *round)
                .int("client", *client)
                .str("reason", reason),
            Self::CheckpointWriteFailed {
                round,
                attempt,
                error,
                gave_up,
            } => o
                .int("round", *round)
                .int("attempt", *attempt)
                .str("error", error)
                .bool("gave_up", *gave_up),
            Self::RunCompleted {
                rounds_executed,
                elapsed_ms,
            } => o
                .int("rounds_executed", *rounds_executed)
                .num("elapsed_ms", *elapsed_ms),
            Self::ClientArrived {
                vtime_us,
                client,
                version,
            } => o
                .int("vtime_us", *vtime_us)
                .int("client", *client)
                .int("version", *version),
            Self::ClientUnavailable {
                vtime_us,
                client,
                reason,
            } => o
                .int("vtime_us", *vtime_us)
                .int("client", *client)
                .str("reason", reason),
            Self::BufferFlushed {
                vtime_us,
                flush,
                size,
                mean_staleness,
                cause,
            } => o
                .int("vtime_us", *vtime_us)
                .int("flush", *flush)
                .int("size", *size)
                .num("mean_staleness", *mean_staleness)
                .str("cause", cause),
        }
        .finish();
        s
    }

    /// Parses one JSON trace line.
    pub fn from_json(line: &str) -> Result<Self, TraceError> {
        let obj = json::parse(line)?;
        if obj.as_object().is_none() {
            return Err(err("line is not an object"));
        }
        Ok(match obj.get_str("event")? {
            "run_started" => Self::RunStarted {
                run_seed: obj.get_int("run_seed")?,
                config_hash: obj.get_int("config_hash")?,
                num_clients: obj.get_int("num_clients")?,
                rounds: obj.get_int("rounds")?,
                workers: obj.get_int("workers")?,
                aggregator: obj.get_str("aggregator")?.to_string(),
                resumed_from: match obj.get("resumed_from")? {
                    Value::Null => None,
                    v => Some(
                        v.as_u64()
                            .and_then(|r| u32::try_from(r).ok())
                            .ok_or_else(|| err("resumed_from must be an integer or null"))?,
                    ),
                },
            },
            "round_started" => Self::RoundStarted {
                round: obj.get_int("round")?,
                sampled: obj.get_ints("sampled")?,
                compromised: obj.get_ints("compromised")?,
            },
            "round_completed" => Self::RoundCompleted {
                round: obj.get_int("round")?,
                aggregator: obj.get_str("aggregator")?.to_string(),
                num_malicious: obj.get_int("num_malicious")?,
                benign_norms: obj.get_f64s("benign_norms")?,
                malicious_norms: obj.get_f64s("malicious_norms")?,
                agg_delta_norm: obj.get_f64("agg_delta_norm")?,
                elapsed_ms: obj.get_f64("elapsed_ms")?,
            },
            "shift_alert" => Self::ShiftAlert {
                round: obj.get_int("round")?,
                observed: obj.get_f64("observed")?,
                baseline_median: obj.get_f64("baseline_median")?,
                z_score: obj.get_f64("z_score")?,
            },
            "checkpoint_saved" => Self::CheckpointSaved {
                round: obj.get_int("round")?,
                path: obj.get_str("path")?.to_string(),
            },
            "client_dropped" => Self::ClientDropped {
                round: obj.get_int("round")?,
                client: obj.get_int("client")?,
                cause: obj.get_str("cause")?.to_string(),
                delay_ms: obj.get_f64("delay_ms")?,
            },
            "update_rejected" => Self::UpdateRejected {
                round: obj.get_int("round")?,
                client: obj.get_int("client")?,
                reason: obj.get_str("reason")?.to_string(),
            },
            "checkpoint_write_failed" => Self::CheckpointWriteFailed {
                round: obj.get_int("round")?,
                attempt: obj.get_int("attempt")?,
                error: obj.get_str("error")?.to_string(),
                gave_up: obj.get_bool("gave_up")?,
            },
            "run_completed" => Self::RunCompleted {
                rounds_executed: obj.get_int("rounds_executed")?,
                elapsed_ms: obj.get_f64("elapsed_ms")?,
            },
            "client_arrived" => Self::ClientArrived {
                vtime_us: obj.get_int("vtime_us")?,
                client: obj.get_int("client")?,
                version: obj.get_int("version")?,
            },
            "client_unavailable" => Self::ClientUnavailable {
                vtime_us: obj.get_int("vtime_us")?,
                client: obj.get_int("client")?,
                reason: obj.get_str("reason")?.to_string(),
            },
            "buffer_flushed" => Self::BufferFlushed {
                vtime_us: obj.get_int("vtime_us")?,
                flush: obj.get_int("flush")?,
                size: obj.get_int("size")?,
                mean_staleness: obj.get_f64("mean_staleness")?,
                cause: obj.get_str("cause")?.to_string(),
            },
            other => return Err(err(format!("unknown event kind {other:?}"))),
        })
    }
}

/// In-memory trace with an optional JSONL file mirror.
///
/// Events are always retained in memory (so round summaries can be rebuilt
/// from the trace without re-reading the file); when a sink path is set,
/// each event is additionally appended to the file as it is pushed.
///
/// The exception is [`TraceLog::hashing`] mode, built for million-event
/// simulation runs: instead of retaining events it folds each one's
/// *normalized* JSON line into a running FNV-1a hash, so a whole event
/// sequence can be pinned against a golden fixture in O(1) memory.
#[derive(Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
    writer: Option<BufWriter<fs::File>>,
    hasher: Option<EventHasher>,
}

/// Running FNV-1a over normalized event JSON lines (one `\n` terminator
/// per line, matching a hash over the equivalent JSONL file).
#[derive(Debug, Clone, Copy)]
struct EventHasher {
    state: u64,
    count: u64,
}

impl EventHasher {
    fn new() -> Self {
        Self {
            state: 0xcbf2_9ce4_8422_2325,
            count: 0,
        }
    }

    fn fold(&mut self, line: &str) {
        for b in line.as_bytes().iter().chain(std::iter::once(&b'\n')) {
            self.state ^= *b as u64;
            self.state = self.state.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }
}

impl TraceLog {
    /// A memory-only trace.
    pub fn in_memory() -> Self {
        Self::default()
    }

    /// A trace mirrored to a JSONL file (truncates any existing file).
    pub fn to_file(path: &Path) -> std::io::Result<Self> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        Ok(Self {
            events: Vec::new(),
            writer: Some(BufWriter::new(fs::File::create(path)?)),
            hasher: None,
        })
    }

    /// A hash-only trace: events are normalized (wall-clock fields
    /// zeroed), serialized, folded into a running FNV-1a and then
    /// discarded. [`TraceLog::events`] stays empty; read the digest with
    /// [`TraceLog::event_hash`]. This is the constructor for
    /// million-event simulations, where retaining the trace would defeat
    /// the bounded-memory guarantee.
    pub fn hashing() -> Self {
        Self {
            events: Vec::new(),
            writer: None,
            hasher: Some(EventHasher::new()),
        }
    }

    /// Appends an event (and writes it through to the file sink, if any).
    pub fn push(&mut self, event: TraceEvent) {
        if let Some(h) = &mut self.hasher {
            h.fold(&event.normalized().to_json());
            return;
        }
        if let Some(w) = &mut self.writer {
            // Trace output is advisory; a full disk should not kill the
            // run, so sink errors drop the mirror and keep the memory log.
            let line = event.to_json();
            if writeln!(w, "{line}").is_err() {
                self.writer = None;
            }
        }
        self.events.push(event);
    }

    /// All events pushed so far (always empty in hashing mode).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// `(fnv1a hash, event count)` of the normalized event sequence.
    /// `None` unless this log was built with [`TraceLog::hashing`].
    pub fn event_hash(&self) -> Option<(u64, u64)> {
        self.hasher.map(|h| (h.state, h.count))
    }

    /// Flushes the file sink (no-op for memory-only traces).
    pub fn flush(&mut self) {
        if let Some(w) = &mut self.writer {
            let _ = w.flush();
        }
    }
}

/// FNV-1a of an event sequence exactly as [`TraceLog::hashing`] computes
/// it — normalize, serialize, fold with a `\n` terminator per line — so
/// retained traces and hash-only traces can be cross-checked.
pub fn hash_events(events: &[TraceEvent]) -> (u64, u64) {
    let mut h = EventHasher::new();
    for e in events {
        h.fold(&e.normalized().to_json());
    }
    (h.state, h.count)
}

/// `(fnv1a hash, event count)` over [`TraceEvent::canonical`] JSON lines:
/// the worker-count-invariant digest of a run's event sequence. Two runs
/// of the same configuration at any worker counts must produce the same
/// canonical hash; the grid harness pins these against golden fixtures.
pub fn hash_canonical_events(events: &[TraceEvent]) -> (u64, u64) {
    let mut h = EventHasher::new();
    for e in events {
        h.fold(&e.canonical().to_json());
    }
    (h.state, h.count)
}

impl Drop for TraceLog {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Reads a JSONL trace file back into events.
///
/// Blank lines are skipped; any malformed line aborts with its line number.
pub fn read_trace(path: &Path) -> Result<Vec<TraceEvent>, TraceError> {
    let text = fs::read_to_string(path)
        .map_err(|e| err(format!("cannot read {}: {e}", path.display())))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = TraceEvent::from_json(line).map_err(|e| err(format!("line {}: {e}", i + 1)))?;
        events.push(event);
    }
    Ok(events)
}

/// A malformed trace line or an unreadable trace file.
pub type TraceError = json::Error;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_log_matches_hash_of_retained_events() {
        let events = sample_events();
        let mut retained = TraceLog::in_memory();
        let mut hashed = TraceLog::hashing();
        for e in &events {
            retained.push(e.clone());
            hashed.push(e.clone());
        }
        assert!(hashed.events().is_empty(), "hashing mode retains nothing");
        assert_eq!(hashed.event_hash(), Some(hash_events(retained.events())));
        assert_eq!(retained.event_hash(), None);
        let (h, n) = hashed.event_hash().unwrap();
        assert_eq!(n, events.len() as u64);
        assert_ne!(h, EventHasher::new().state, "events must perturb the hash");
    }

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                run_seed: u64::MAX,
                config_hash: 0xc221_6479_740c_b604,
                num_clients: 16,
                rounds: 5,
                workers: 4,
                aggregator: "trimmed_mean".into(),
                resumed_from: None,
            },
            TraceEvent::RoundStarted {
                round: 0,
                sampled: vec![1, 4, 9],
                compromised: vec![4],
            },
            TraceEvent::RoundCompleted {
                round: 0,
                aggregator: "trimmed_mean".into(),
                num_malicious: 1,
                benign_norms: vec![0.5, 1.25],
                malicious_norms: vec![3.0],
                agg_delta_norm: 0.75,
                elapsed_ms: 12.5,
            },
            TraceEvent::ShiftAlert {
                round: 3,
                observed: 9.5,
                baseline_median: 1.0,
                z_score: 6.1,
            },
            TraceEvent::CheckpointSaved {
                round: 4,
                path: "/tmp/weird \"dir\"\\round-000004.ckpt".into(),
            },
            TraceEvent::ClientDropped {
                round: 2,
                client: 9,
                cause: "straggler".into(),
                delay_ms: 17.25,
            },
            TraceEvent::ClientDropped {
                round: 2,
                client: 4,
                cause: "dropout".into(),
                delay_ms: 0.0,
            },
            TraceEvent::UpdateRejected {
                round: 3,
                client: 1,
                reason: "injected_corruption".into(),
            },
            TraceEvent::CheckpointWriteFailed {
                round: 4,
                attempt: 2,
                error: "injected checkpoint-write fault".into(),
                gave_up: false,
            },
            TraceEvent::CheckpointWriteFailed {
                round: 4,
                attempt: 3,
                error: "disk on fire".into(),
                gave_up: true,
            },
            TraceEvent::ClientArrived {
                vtime_us: 1_250_500,
                client: 7,
                version: 3,
            },
            TraceEvent::ClientUnavailable {
                vtime_us: 1_251_000,
                client: 8,
                reason: "capacity".into(),
            },
            TraceEvent::BufferFlushed {
                vtime_us: 2_000_750,
                flush: 4,
                size: 16,
                mean_staleness: 1.5,
                cause: "buffer_full".into(),
            },
            TraceEvent::RunCompleted {
                rounds_executed: 5,
                elapsed_ms: 88.125,
            },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            let back = TraceEvent::from_json(&line)
                .unwrap_or_else(|e| panic!("parse failed for {line}: {e}"));
            assert_eq!(back, event);
        }
    }

    #[test]
    fn escaping_survives_hostile_strings() {
        let event = TraceEvent::CheckpointSaved {
            round: 1,
            path: "quote\" slash\\ newline\n tab\t ctrl\u{1} unicode é".into(),
        };
        assert_eq!(TraceEvent::from_json(&event.to_json()).unwrap(), event);
    }

    #[test]
    fn normalized_zeroes_wall_clock_only() {
        let events = sample_events();
        for e in &events {
            let n = e.normalized();
            match (&n, e) {
                (
                    TraceEvent::RoundCompleted {
                        elapsed_ms,
                        benign_norms,
                        ..
                    },
                    TraceEvent::RoundCompleted {
                        benign_norms: orig, ..
                    },
                ) => {
                    assert_eq!(*elapsed_ms, 0.0);
                    assert_eq!(benign_norms, orig);
                }
                (TraceEvent::RunCompleted { elapsed_ms, .. }, _) => {
                    assert_eq!(*elapsed_ms, 0.0)
                }
                _ => assert_eq!(&n, e),
            }
        }
    }

    #[test]
    fn canonical_zeroes_workers_and_wall_clock() {
        for e in sample_events() {
            let c = e.canonical();
            match (&c, &e) {
                (TraceEvent::RunStarted { workers, .. }, _) => assert_eq!(*workers, 0),
                (TraceEvent::RoundCompleted { elapsed_ms, .. }, _)
                | (TraceEvent::RunCompleted { elapsed_ms, .. }, _) => assert_eq!(*elapsed_ms, 0.0),
                _ => assert_eq!(&c, &e),
            }
        }
        // Same events at different worker counts hash identically.
        let at = |workers: usize| {
            let mut events = sample_events();
            if let TraceEvent::RunStarted { workers: w, .. } = &mut events[0] {
                *w = workers;
            }
            hash_canonical_events(&events)
        };
        assert_eq!(at(1), at(8));
        assert_ne!(hash_events(&sample_events()), (EventHasher::new().state, 0));
    }

    #[test]
    fn malformed_lines_error_not_panic() {
        for bad in [
            "",
            "{",
            "[1,2",
            "{\"event\":\"nope\"}",
            "{\"event\":\"round_started\"}",
            "{\"event\":\"round_started\",\"round\":-1,\"sampled\":[],\"compromised\":[]}",
            "{\"event\":\"round_completed\",\"round\":0,\"aggregator\":3}",
            "not json at all",
            "{\"event\":\"run_completed\",\"rounds_executed\":1,\"elapsed_ms\":\"x\"}",
            "{\"event\":\"client_dropped\",\"round\":0,\"client\":1,\"cause\":7,\"delay_ms\":0.0}",
            "{\"event\":\"update_rejected\",\"round\":0,\"reason\":\"non_finite\"}",
            "{\"event\":\"checkpoint_write_failed\",\"round\":0,\"attempt\":1,\"error\":\"e\",\"gave_up\":\"yes\"}",
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn trace_log_mirrors_to_file() {
        let dir = std::env::temp_dir().join(format!("collapois-trace-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("run.jsonl");
        let events = sample_events();
        {
            let mut log = TraceLog::to_file(&path).unwrap();
            for e in &events {
                log.push(e.clone());
            }
            assert_eq!(log.events(), &events[..]);
        }
        let back = read_trace(&path).unwrap();
        assert_eq!(back, events);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nonfinite_norms_serialize_as_null_and_fail_loudly_on_read() {
        let event = TraceEvent::RoundCompleted {
            round: 0,
            aggregator: "mean".into(),
            num_malicious: 0,
            benign_norms: vec![f64::NAN],
            malicious_norms: vec![],
            agg_delta_norm: 1.0,
            elapsed_ms: 0.0,
        };
        let line = event.to_json();
        assert!(line.contains("null"));
        assert!(TraceEvent::from_json(&line).is_err());
    }
}
