//! collapois-runtime: deterministic round-execution engine.
//!
//! Owns the mechanics of executing federated rounds so that `collapois-fl`
//! can focus on the learning semantics:
//!
//! - [`seed`]: per-(run, round, client) RNG stream derivation. Every client
//!   trains off its own deterministically derived `StdRng`, so results are
//!   bit-identical regardless of execution order or worker count.
//! - [`pool`]: a scoped worker pool that fans independent jobs over threads
//!   and returns results in input order.
//! - [`checkpoint`]: versioned binary snapshots of run state for
//!   kill-and-resume semantics.
//! - [`trace`]: structured JSONL run traces (one event per line) that both
//!   humans and downstream tooling consume.
//! - [`json`]: the workspace's one JSON codec, an ordered-key object writer
//!   and a parser that keeps integers exact, shared by traces, grid reports
//!   and bench baselines.
//! - [`fault`]: deterministic fault injection (dropout, stragglers, update
//!   corruption, checkpoint-write failures) whose schedules derive from the
//!   same seed machinery and are therefore worker-count-invariant.
//! - [`sim`]: a deterministic discrete-event simulator — virtual clock,
//!   priority event queue with `(time, seq)` tie-breaking, Poisson or
//!   trace-driven arrivals, availability churn — where each virtual client
//!   is an event, not a thread, enabling million-client schedules with
//!   bitwise-stable replays.

pub mod checkpoint;
pub mod fault;
pub mod json;
pub mod pool;
pub mod seed;
pub mod sim;
pub mod trace;
