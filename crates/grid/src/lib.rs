//! Declarative scenario matrix for the CollaPois reproduction.
//!
//! This crate turns the attack/defense evaluation space into *data*: a
//! versioned TOML scenario file declares a base configuration, cross-
//! product axes and named variants ([`schema`]); the grid runner
//! ([`runner`]) expands the matrix in deterministic order and executes
//! each cell through the existing scenario engine, emitting one
//! comparable JSONL row per cell ([`report`]) with accuracy, attack
//! success rate, per-client metrics, fault counters and — crucially — the
//! run's canonical trace-event hash. Two invocations of the same grid at
//! *any* worker count produce byte-identical reports, which is what lets
//! CI pin the whole attack/defense conformance surface with a handful of
//! golden hash fixtures, and lets a killed grid resume by skipping every
//! cell whose row already matches. `collapois report` reads a report back
//! ([`CellReport::from_json`](report::CellReport::from_json)) and prints
//! its figure tables through the shared [`table`] printer.
//!
//! ```no_run
//! use collapois_grid::runner::{run_grid, GridRunOptions};
//! use collapois_grid::schema::GridSpec;
//!
//! let text = std::fs::read_to_string("scenarios/smoke.toml").unwrap();
//! let spec = GridSpec::parse(&text).unwrap();
//! let outcome = run_grid(
//!     &spec,
//!     std::path::Path::new("smoke.report.jsonl"),
//!     &GridRunOptions::default(),
//!     |cell, status| println!("{:?} {}", status, cell.id),
//! )
//! .unwrap();
//! assert!(outcome.complete());
//! ```

#![warn(missing_docs)]

pub mod report;
pub mod runner;
pub mod schema;
pub mod table;
pub mod toml;
