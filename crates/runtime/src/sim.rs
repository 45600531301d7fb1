//! Deterministic discrete-event simulation core.
//!
//! Virtual time is decoupled from wall time: each virtual client is a
//! handful of events — arrival, train-complete, availability flip — on a
//! priority queue, not a thread. One machine can therefore push million-
//! client schedules through the event loop while training only the
//! (bounded) set of clients that are actually in flight.
//!
//! Determinism rests on three pillars:
//!
//! 1. **Pure per-draw streams.** Every random quantity (inter-arrival gap,
//!    virtual train duration, churn interval) is drawn from
//!    `seed::sim_rng(run_seed, stream_key(index, purpose), client)` — a
//!    pure function of the draw's position in that client's own schedule.
//!    Nothing depends on event-loop order or worker count, so the full
//!    virtual schedule is fixed the moment the seed is.
//! 2. **Total event order.** The queue breaks virtual-time ties by a
//!    monotonically increasing sequence number assigned at push time.
//!    Because pushes happen in a deterministic serial order, `(time, seq)`
//!    is a total, replay-stable order.
//! 3. **Serial loop, parallel leaves.** The event loop itself is serial;
//!    only the handler's flush work (training, aggregation) fans out over
//!    a `WorkerPool`, whose fixed-shape kernels are already bitwise
//!    worker-count-invariant.
//!
//! Fault injection composes: the driver consults the run's [`FaultPlan`]
//! once per (client, arrival), keyed by the arrival index, so dropout /
//! straggler / corruption verdicts are as schedule-independent as the
//! draws above. See `DESIGN.md` §11.

use crate::fault::{ClientFault, FaultPlan};
use crate::seed;
use crate::trace::{TraceEvent, TraceLog};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time, in integer microseconds since simulation start.
///
/// Integer ticks (not `f64` milliseconds) are what make event timestamps
/// safely comparable and serializable with no rounding ambiguity.
pub type Ticks = u64;

/// Ticks per virtual millisecond.
pub const TICKS_PER_MS: u64 = 1_000;

/// Converts a (finite, non-negative) millisecond quantity to ticks,
/// rounding to the nearest microsecond.
pub fn ms_to_ticks(ms: f64) -> Ticks {
    debug_assert!(ms.is_finite() && ms >= 0.0);
    (ms * TICKS_PER_MS as f64).round() as Ticks
}

/// Purposes within the [`seed::Domain::Sim`] stream. The discriminants are
/// part of the replay-compatibility contract: reordering them changes
/// every simulated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u64)]
pub enum SimStream {
    /// Inter-arrival gaps (Poisson arrivals).
    Arrival = 0,
    /// Virtual training durations.
    Train = 1,
    /// Availability churn intervals.
    Churn = 2,
}

/// Width reserved for [`SimStream`] purposes inside a stream key. Extra
/// headroom so new purposes can be appended without renumbering.
const STREAM_WIDTH: u64 = 8;

/// Packs a per-client draw index and purpose into the `round` coordinate
/// of [`seed::mix`], giving every draw its own independent stream.
pub fn stream_key(index: u64, purpose: SimStream) -> u64 {
    index
        .wrapping_mul(STREAM_WIDTH)
        .wrapping_add(purpose as u64)
}

/// Draws `Exp(mean_ms)` via inversion; pure in `(rng state, mean_ms)`.
fn draw_exp_ms(rng: &mut StdRng, mean_ms: f64) -> f64 {
    let u: f64 = rng.gen_range(0.0..1.0);
    -mean_ms * (1.0 - u).ln()
}

/// One exponential draw from the dedicated sim stream for `(client,
/// purpose, index)`.
fn sim_exp_ms(run_seed: u64, client: usize, purpose: SimStream, index: u64, mean_ms: f64) -> f64 {
    let mut rng = seed::sim_rng(run_seed, stream_key(index, purpose), client as u64);
    draw_exp_ms(&mut rng, mean_ms)
}

// ---------------------------------------------------------------------------
// Event queue
// ---------------------------------------------------------------------------

/// A pending event: ordered by `(time, seq)` ascending.
#[derive(Debug, Clone)]
struct Entry<E> {
    time: Ticks,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest
        // (smallest time, then smallest seq) entry on top.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority event queue with a deterministic total order.
///
/// Ties in virtual time are broken by the push-time sequence number, so
/// two events can never be popped in different orders across replays: the
/// pop order is a pure function of the push order, and the push order is
/// serial and deterministic.
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `event` at virtual time `time`; returns its sequence
    /// number (the tie-break key).
    pub fn push(&mut self, time: Ticks, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        seq
    }

    /// Pops the earliest event in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(Ticks, u64, E)> {
        self.heap.pop().map(|e| (e.time, e.seq, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Plans
// ---------------------------------------------------------------------------

/// Per-client availability churn: alternating `Exp(mean_up_ms)` available
/// and `Exp(mean_down_ms)` unavailable periods. Clients start available.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Mean length of an available period, in virtual ms.
    pub mean_up_ms: f64,
    /// Mean length of an unavailable period, in virtual ms.
    pub mean_down_ms: f64,
}

/// Full configuration of a buffered-async simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPlan {
    /// Virtual client population.
    pub num_clients: usize,
    /// Mean inter-arrival gap per client, in virtual ms: every client
    /// arrives repeatedly with `Exp(arrival_mean_ms)` gaps (Poisson
    /// arrivals), drawn from its own sim stream.
    pub arrival_mean_ms: f64,
    /// Mean virtual training duration, in ms (exponential; 0 = instant).
    pub train_mean_ms: f64,
    /// Optional availability churn; `None` means always available.
    pub churn: Option<ChurnPlan>,
    /// Buffer size K: a flush fires as soon as K completions are buffered.
    pub buffer_k: usize,
    /// Virtual flush deadline in ms: a flush also fires when the oldest
    /// buffered completion has waited this long. `0` means no deadline —
    /// the buffer only flushes on K (mirrors `FaultPlan::deadline_ms`).
    pub flush_deadline_ms: f64,
    /// Staleness decay `a` for FedBuff weights `(1 + s)^-a`.
    pub staleness_decay: f64,
    /// Maximum clients training concurrently; arrivals beyond it are
    /// turned away (bounding snapshot memory). `0` means unbounded.
    pub max_concurrency: usize,
    /// Hard cap on processed events (runaway guard for degenerate plans,
    /// e.g. 100% dropout, where no flush can ever fire). `0` = unlimited.
    pub event_cap: u64,
}

impl Default for SimPlan {
    fn default() -> Self {
        Self {
            num_clients: 100,
            arrival_mean_ms: 50.0,
            train_mean_ms: 20.0,
            churn: None,
            buffer_k: 8,
            flush_deadline_ms: 0.0,
            staleness_decay: 0.5,
            max_concurrency: 64,
            event_cap: 0,
        }
    }
}

impl SimPlan {
    /// Validates parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_clients == 0 {
            return Err("sim num_clients must be positive".into());
        }
        let mean_ms = self.arrival_mean_ms;
        if !mean_ms.is_finite() || mean_ms <= 0.0 {
            return Err(format!("sim arrival mean {mean_ms} must be finite and > 0"));
        }
        if !self.train_mean_ms.is_finite() || self.train_mean_ms < 0.0 {
            return Err(format!(
                "sim train mean {} must be finite and >= 0",
                self.train_mean_ms
            ));
        }
        if let Some(churn) = &self.churn {
            for (name, v) in [("up", churn.mean_up_ms), ("down", churn.mean_down_ms)] {
                if !v.is_finite() || v <= 0.0 {
                    return Err(format!(
                        "sim churn mean_{name}_ms {v} must be finite and > 0"
                    ));
                }
            }
        }
        if self.buffer_k == 0 {
            return Err("sim buffer_k must be positive".into());
        }
        if !self.flush_deadline_ms.is_finite() || self.flush_deadline_ms < 0.0 {
            return Err(format!(
                "sim flush deadline {} must be finite and >= 0 (0 = none)",
                self.flush_deadline_ms
            ));
        }
        if !self.staleness_decay.is_finite() || self.staleness_decay < 0.0 {
            return Err(format!(
                "sim staleness decay {} must be finite and >= 0",
                self.staleness_decay
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Events the driver schedules for itself.
#[derive(Debug, Clone)]
enum SimEvent {
    /// A client shows up willing to train.
    Arrival { client: usize },
    /// A client's availability period ends (up→down or down→up).
    AvailabilityFlip { client: usize },
    /// A client's virtual training run finishes.
    TrainComplete {
        client: usize,
        arrival_index: u64,
        fetched_version: u64,
        corrupt: bool,
    },
    /// The flush deadline armed with this id fires (stale ids ignored).
    FlushDeadline { armed: u64 },
}

/// One buffered training completion, handed to the handler at flush time.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Virtual client id.
    pub client: usize,
    /// Which of this client's arrivals produced the completion (also the
    /// round key for its training RNG stream).
    pub arrival_index: u64,
    /// Global model version the client fetched when it started.
    pub fetched_version: u64,
    /// `flush-time version - fetched_version`: how many flushes landed
    /// while the client was training.
    pub staleness: u64,
    /// Fault injection corrupted this update in flight.
    pub corrupt: bool,
    /// Virtual completion time.
    pub completed_at: Ticks,
}

/// What the simulation plugs into: model fetches and buffer flushes.
///
/// The driver is serial and owns all scheduling; implementations may fan
/// flush work out over a `WorkerPool` (the buffered set is fixed before
/// `flush` is called, so parallelism cannot reorder anything observable).
pub trait SimHandler {
    /// A client fetched the current global model (version `version`) and
    /// started training. Implementations typically retain a snapshot.
    fn on_fetch(&mut self, client: usize, version: u64);

    /// The buffer flushed: merge `buffer` into the global model. Called
    /// with the flush index (0-based), the virtual time, and the trace
    /// sink (for e.g. `update_rejected` events).
    fn flush(&mut self, flush_index: u64, now: Ticks, buffer: &[Completion], trace: &mut TraceLog);
}

/// Aggregate counters for one simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimSummary {
    /// Flushes performed.
    pub flushes: u64,
    /// Events processed (arrivals + completions + flips + deadlines).
    pub events: u64,
    /// Client arrivals processed.
    pub arrivals: u64,
    /// Training runs completed (buffered).
    pub completions: u64,
    /// Arrivals lost to injected dropout.
    pub dropped: u64,
    /// Arrivals turned away because the client was offline.
    pub turned_away_offline: u64,
    /// Arrivals turned away because the client was still training.
    pub turned_away_busy: u64,
    /// Arrivals turned away at the concurrency cap.
    pub turned_away_capacity: u64,
    /// Virtual time at the end of the run.
    pub final_vtime: Ticks,
    /// Whether the target flush count was reached (false: the event queue
    /// drained or the event cap tripped first).
    pub reached_target: bool,
}

/// Per-client simulation state: a few machine words, never a thread.
#[derive(Debug, Clone, Copy, Default)]
struct ClientState {
    available: bool,
    busy: bool,
    /// Arrivals started so far (= next arrival draw index).
    arrivals: u64,
    /// Churn intervals drawn so far.
    churn_draws: u64,
}

/// The serial discrete-event loop: owns the clock, the queue, per-client
/// state and the completion buffer; delegates model work to a
/// [`SimHandler`].
pub struct SimDriver {
    plan: SimPlan,
    run_seed: u64,
    fault: FaultPlan,
    queue: EventQueue<SimEvent>,
    now: Ticks,
    version: u64,
    clients: Vec<ClientState>,
    in_flight: usize,
    buffer: Vec<Completion>,
    /// Id of the currently armed flush deadline (stale ids are ignored).
    armed_deadline: u64,
    next_deadline_id: u64,
    summary: SimSummary,
}

impl SimDriver {
    /// Builds a driver and seeds the initial event schedule. Fails if the
    /// plan is invalid.
    pub fn new(plan: SimPlan, run_seed: u64, fault: FaultPlan) -> Result<Self, String> {
        plan.validate()?;
        fault.validate()?;
        let num_clients = plan.num_clients;
        let mut driver = Self {
            plan,
            run_seed,
            fault,
            queue: EventQueue::new(),
            now: 0,
            version: 0,
            clients: vec![
                ClientState {
                    available: true,
                    ..ClientState::default()
                };
                num_clients
            ],
            in_flight: 0,
            buffer: Vec::new(),
            armed_deadline: 0,
            next_deadline_id: 0,
            summary: SimSummary::default(),
        };
        driver.seed_schedule();
        Ok(driver)
    }

    /// Seeds first arrivals and churn flips in fixed client order, so
    /// sequence numbers (the tie-break) are deterministic.
    fn seed_schedule(&mut self) {
        let mean_ms = self.plan.arrival_mean_ms;
        for c in 0..self.plan.num_clients {
            let gap = sim_exp_ms(self.run_seed, c, SimStream::Arrival, 0, mean_ms);
            self.queue
                .push(ms_to_ticks(gap), SimEvent::Arrival { client: c });
        }
        if let Some(churn) = self.plan.churn {
            for c in 0..self.plan.num_clients {
                let up = sim_exp_ms(self.run_seed, c, SimStream::Churn, 0, churn.mean_up_ms);
                self.clients[c].churn_draws = 1;
                self.queue
                    .push(ms_to_ticks(up), SimEvent::AvailabilityFlip { client: c });
            }
        }
        self.arm_deadline();
    }

    /// Arms a fresh flush deadline (if the plan has one), invalidating any
    /// previously armed one.
    fn arm_deadline(&mut self) {
        if self.plan.flush_deadline_ms <= 0.0 {
            return;
        }
        self.next_deadline_id += 1;
        self.armed_deadline = self.next_deadline_id;
        let at = self.now + ms_to_ticks(self.plan.flush_deadline_ms);
        self.queue.push(
            at,
            SimEvent::FlushDeadline {
                armed: self.armed_deadline,
            },
        );
    }

    fn flush(&mut self, cause: &str, handler: &mut dyn SimHandler, trace: &mut TraceLog) {
        // Staleness is resolved at flush time: how many flushes landed
        // after each buffered client fetched its snapshot.
        let version = self.version;
        let mut staleness_sum = 0u64;
        for c in &mut self.buffer {
            c.staleness = version - c.fetched_version;
            staleness_sum += c.staleness;
        }
        let size = self.buffer.len();
        let mean_staleness = if size == 0 {
            0.0
        } else {
            staleness_sum as f64 / size as f64
        };
        let flush_index = self.summary.flushes;
        handler.flush(flush_index, self.now, &self.buffer, trace);
        trace.push(TraceEvent::BufferFlushed {
            vtime_us: self.now,
            flush: flush_index,
            size,
            mean_staleness,
            cause: cause.to_string(),
        });
        self.buffer.clear();
        self.version += 1;
        self.summary.flushes += 1;
        self.arm_deadline();
    }

    fn on_arrival(&mut self, client: usize, handler: &mut dyn SimHandler, trace: &mut TraceLog) {
        self.summary.arrivals += 1;
        let arrival_index = self.clients[client].arrivals;
        self.clients[client].arrivals += 1;

        // Arrivals re-schedule themselves; the gap is drawn from the stream
        // for this client's *next* arrival index, independent of anything
        // the event loop has done so far.
        let gap = sim_exp_ms(
            self.run_seed,
            client,
            SimStream::Arrival,
            arrival_index + 1,
            self.plan.arrival_mean_ms,
        );
        self.queue
            .push(self.now + ms_to_ticks(gap), SimEvent::Arrival { client });

        let turned_away = if !self.clients[client].available {
            self.summary.turned_away_offline += 1;
            Some("offline")
        } else if self.clients[client].busy {
            self.summary.turned_away_busy += 1;
            Some("busy")
        } else if self.plan.max_concurrency > 0 && self.in_flight >= self.plan.max_concurrency {
            self.summary.turned_away_capacity += 1;
            Some("capacity")
        } else {
            None
        };
        if let Some(reason) = turned_away {
            trace.push(TraceEvent::ClientUnavailable {
                vtime_us: self.now,
                client,
                reason: reason.to_string(),
            });
            return;
        }

        // Fault verdict for this (client, arrival), keyed by the arrival
        // index — the sim analogue of the synchronous loop's round key.
        let mut extra_delay_ms = 0.0;
        let mut corrupt = false;
        match self
            .fault
            .client_fault(self.run_seed, arrival_index, client)
        {
            ClientFault::Dropout => {
                self.summary.dropped += 1;
                trace.push(TraceEvent::ClientDropped {
                    round: self.summary.flushes as usize,
                    client,
                    cause: "dropout".to_string(),
                    delay_ms: 0.0,
                });
                return;
            }
            // The flush deadline — not the synchronous round deadline —
            // governs shedding in buffered-async mode, so `shed` is
            // ignored here: a straggler just lands later (and staler).
            ClientFault::Straggler { delay_ms, .. } => extra_delay_ms = delay_ms,
            ClientFault::Corrupt => corrupt = true,
            ClientFault::None => {}
        }

        handler.on_fetch(client, self.version);
        trace.push(TraceEvent::ClientArrived {
            vtime_us: self.now,
            client,
            version: self.version,
        });
        self.clients[client].busy = true;
        self.in_flight += 1;
        let train_ms = if self.plan.train_mean_ms > 0.0 {
            sim_exp_ms(
                self.run_seed,
                client,
                SimStream::Train,
                arrival_index,
                self.plan.train_mean_ms,
            )
        } else {
            0.0
        };
        self.queue.push(
            self.now + ms_to_ticks(train_ms + extra_delay_ms),
            SimEvent::TrainComplete {
                client,
                arrival_index,
                fetched_version: self.version,
                corrupt,
            },
        );
    }

    /// Runs the event loop until `target_flushes` flushes have fired, the
    /// queue drains, or the plan's event cap trips.
    pub fn run(
        &mut self,
        handler: &mut dyn SimHandler,
        trace: &mut TraceLog,
        target_flushes: u64,
    ) -> SimSummary {
        while self.summary.flushes < target_flushes {
            if self.plan.event_cap > 0 && self.summary.events >= self.plan.event_cap {
                break;
            }
            let Some((time, _seq, event)) = self.queue.pop() else {
                break;
            };
            debug_assert!(time >= self.now, "virtual time must be monotone");
            self.now = time;
            self.summary.events += 1;
            match event {
                SimEvent::Arrival { client } => self.on_arrival(client, handler, trace),
                SimEvent::AvailabilityFlip { client } => {
                    let state = &mut self.clients[client];
                    state.available = !state.available;
                    let churn = self.plan.churn.expect("flip without churn plan");
                    let mean = if state.available {
                        churn.mean_up_ms
                    } else {
                        churn.mean_down_ms
                    };
                    let idx = state.churn_draws;
                    state.churn_draws += 1;
                    let gap = sim_exp_ms(self.run_seed, client, SimStream::Churn, idx, mean);
                    self.queue.push(
                        self.now + ms_to_ticks(gap),
                        SimEvent::AvailabilityFlip { client },
                    );
                }
                SimEvent::TrainComplete {
                    client,
                    arrival_index,
                    fetched_version,
                    corrupt,
                } => {
                    self.clients[client].busy = false;
                    self.in_flight -= 1;
                    self.summary.completions += 1;
                    self.buffer.push(Completion {
                        client,
                        arrival_index,
                        fetched_version,
                        staleness: 0, // resolved at flush time
                        corrupt,
                        completed_at: self.now,
                    });
                    if self.buffer.len() >= self.plan.buffer_k {
                        self.flush("buffer_full", handler, trace);
                    }
                }
                SimEvent::FlushDeadline { armed } => {
                    if armed != self.armed_deadline {
                        continue; // superseded by a later flush
                    }
                    if self.buffer.is_empty() {
                        self.arm_deadline(); // nothing to flush; re-arm
                    } else {
                        self.flush("deadline", handler, trace);
                    }
                }
            }
        }
        self.summary.final_vtime = self.now;
        self.summary.reached_target = self.summary.flushes >= target_flushes;
        self.summary
    }

    /// Counters so far (final after [`SimDriver::run`] returns).
    pub fn summary(&self) -> SimSummary {
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Handler that records flush shapes and fetch/release balance.
    #[derive(Default)]
    struct Recorder {
        fetches: usize,
        flush_sizes: Vec<usize>,
        staleness: Vec<u64>,
    }

    impl SimHandler for Recorder {
        fn on_fetch(&mut self, _client: usize, _version: u64) {
            self.fetches += 1;
        }
        fn flush(&mut self, _i: u64, _now: Ticks, buffer: &[Completion], _trace: &mut TraceLog) {
            self.flush_sizes.push(buffer.len());
            self.staleness.extend(buffer.iter().map(|c| c.staleness));
        }
    }

    fn quick_plan() -> SimPlan {
        SimPlan {
            num_clients: 20,
            arrival_mean_ms: 10.0,
            train_mean_ms: 25.0,
            buffer_k: 4,
            ..SimPlan::default()
        }
    }

    #[test]
    fn queue_orders_by_time_then_sequence() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a1");
        q.push(20, "b");
        q.push(10, "a2"); // same time as a1, pushed later
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order.iter().map(|(_, _, e)| *e).collect::<Vec<_>>(),
            ["a1", "a2", "b", "c"],
            "ties must break by push order"
        );
        assert!(order.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn same_seed_replays_identical_event_sequences() {
        let run = || {
            let mut trace = TraceLog::in_memory();
            let mut rec = Recorder::default();
            let mut driver = SimDriver::new(quick_plan(), 42, FaultPlan::none()).unwrap();
            let summary = driver.run(&mut rec, &mut trace, 10);
            let lines: Vec<String> = trace.events().iter().map(|e| e.to_json()).collect();
            (summary, rec.flush_sizes, lines)
        };
        let (s1, f1, t1) = run();
        let (s2, f2, t2) = run();
        assert_eq!(s1, s2);
        assert_eq!(f1, f2);
        assert_eq!(t1, t2, "replay must be bitwise identical");
        assert!(s1.reached_target);
        assert_eq!(f1.len(), 10);
        assert!(f1.iter().all(|&n| n == 4), "K-triggered flushes carry K");
    }

    #[test]
    fn different_seeds_diverge() {
        let run = |seed| {
            let mut trace = TraceLog::in_memory();
            let mut rec = Recorder::default();
            let mut driver = SimDriver::new(quick_plan(), seed, FaultPlan::none()).unwrap();
            driver.run(&mut rec, &mut trace, 5);
            trace
                .events()
                .iter()
                .map(|e| e.to_json())
                .collect::<Vec<_>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn virtual_time_is_monotone_in_trace() {
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut plan = quick_plan();
        plan.flush_deadline_ms = 40.0;
        plan.churn = Some(ChurnPlan {
            mean_up_ms: 200.0,
            mean_down_ms: 50.0,
        });
        let mut driver = SimDriver::new(plan, 7, FaultPlan::none()).unwrap();
        driver.run(&mut rec, &mut trace, 20);
        let mut last = 0u64;
        let mut stamped = 0;
        for e in trace.events() {
            let t = match e {
                TraceEvent::ClientArrived { vtime_us, .. }
                | TraceEvent::ClientUnavailable { vtime_us, .. }
                | TraceEvent::BufferFlushed { vtime_us, .. } => *vtime_us,
                _ => continue,
            };
            assert!(t >= last, "virtual time went backwards: {t} < {last}");
            last = t;
            stamped += 1;
        }
        assert!(stamped > 20, "expected a meaningful event stream");
    }

    #[test]
    fn zero_flush_deadline_means_no_deadline() {
        // Mirrors the FaultPlan convention: 0 disables the deadline
        // rather than configuring an instantly-expiring one.
        let mut plan = quick_plan();
        plan.flush_deadline_ms = 0.0;
        plan.buffer_k = 1000; // K unreachable in 200 events
        plan.event_cap = 200;
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 3, FaultPlan::none()).unwrap();
        let summary = driver.run(&mut rec, &mut trace, 1);
        assert_eq!(summary.flushes, 0, "no deadline and K unreached: no flush");
        assert!(!summary.reached_target);
        assert!(trace.events().iter().all(|e| e.kind() != "buffer_flushed"));
    }

    #[test]
    fn deadline_flushes_partial_buffers() {
        let mut plan = quick_plan();
        plan.buffer_k = 1000;
        plan.flush_deadline_ms = 30.0;
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 5, FaultPlan::none()).unwrap();
        let summary = driver.run(&mut rec, &mut trace, 5);
        assert!(summary.reached_target);
        assert!(rec.flush_sizes.iter().all(|&n| n > 0 && n < 1000));
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::BufferFlushed { cause, .. } if cause == "deadline"
        )));
    }

    #[test]
    fn churn_turns_clients_away_while_offline() {
        let mut plan = quick_plan();
        plan.churn = Some(ChurnPlan {
            mean_up_ms: 5.0,
            mean_down_ms: 500.0, // mostly offline
        });
        plan.event_cap = 2000;
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 9, FaultPlan::none()).unwrap();
        let summary = driver.run(&mut rec, &mut trace, 50);
        assert!(summary.turned_away_offline > 0);
        assert!(trace.events().iter().any(|e| matches!(
            e,
            TraceEvent::ClientUnavailable { reason, .. } if reason == "offline"
        )));
    }

    #[test]
    fn concurrency_cap_bounds_in_flight_training() {
        let mut plan = quick_plan();
        plan.max_concurrency = 2;
        plan.train_mean_ms = 1000.0; // long training: cap binds quickly
        plan.event_cap = 500;
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 13, FaultPlan::none()).unwrap();
        let summary = driver.run(&mut rec, &mut trace, 100);
        assert!(summary.turned_away_capacity > 0);
        assert!(rec.fetches <= summary.arrivals as usize);
    }

    #[test]
    fn dropout_faults_compose_without_completions() {
        let fault = FaultPlan {
            dropout: 1.0,
            ..FaultPlan::default()
        };
        let mut plan = quick_plan();
        plan.event_cap = 300;
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 17, fault).unwrap();
        let summary = driver.run(&mut rec, &mut trace, 1);
        assert_eq!(summary.completions, 0);
        assert_eq!(summary.dropped, summary.arrivals);
        assert!(!summary.reached_target, "event cap must stop the loop");
        assert_eq!(rec.fetches, 0);
    }

    #[test]
    fn staleness_counts_flushes_during_training() {
        // Long training across short flush cycles must yield staleness > 0.
        let plan = SimPlan {
            num_clients: 40,
            arrival_mean_ms: 5.0,
            train_mean_ms: 120.0,
            buffer_k: 3,
            max_concurrency: 0,
            ..SimPlan::default()
        };
        let mut trace = TraceLog::in_memory();
        let mut rec = Recorder::default();
        let mut driver = SimDriver::new(plan, 23, FaultPlan::none()).unwrap();
        driver.run(&mut rec, &mut trace, 12);
        assert!(rec.staleness.iter().any(|&s| s > 0));
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let bad = |f: fn(&mut SimPlan)| {
            let mut p = SimPlan::default();
            f(&mut p);
            SimDriver::new(p, 0, FaultPlan::none()).is_err()
        };
        assert!(bad(|p| p.num_clients = 0));
        assert!(bad(|p| p.buffer_k = 0));
        assert!(bad(|p| p.arrival_mean_ms = 0.0));
        assert!(bad(|p| p.flush_deadline_ms = f64::NAN));
        assert!(bad(|p| p.staleness_decay = -1.0));
        assert!(bad(|p| {
            p.churn = Some(ChurnPlan {
                mean_up_ms: 0.0,
                mean_down_ms: 1.0,
            })
        }));
    }
}
