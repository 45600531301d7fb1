//! The resumable grid runner.
//!
//! Cells execute strictly in expansion order through the existing scenario
//! engine. One JSONL row is appended (and flushed) per completed cell, so
//! a killed run loses at most the in-flight cell. On restart the runner
//! re-reads the report file and keeps the longest prefix of lines that
//! match the expected cells (same id, same `config_hash`, same row layout
//! [`ROW_VERSION`]); a torn final line, a stale row from an edited scenario
//! file or an older build, or any out-of-order row truncates the file back
//! to the end of the valid prefix before execution continues. Because
//! every cell is deterministic, the concatenation of a killed-and-resumed
//! run is byte-identical to an uninterrupted one — a property the
//! conformance tests assert directly.

use crate::report::{CellReport, ROW_VERSION};
use crate::schema::{GridCell, GridSpec};
use collapois_core::scenario::{RunOptions, Scenario, ScenarioReport};
use collapois_runtime::json::{self, Obj};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Execution options for one `run_grid` invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GridRunOptions {
    /// Worker threads per cell (`0` = the scenario file's `[run] workers`,
    /// which itself defaults to sequential).
    pub workers: usize,
    /// Ignore any existing report: truncate and rerun every cell.
    pub fresh: bool,
    /// Execute at most this many cells this invocation (`0` = all
    /// remaining). Skipped (already-complete) cells do not count.
    pub limit: usize,
}

/// What happened to one cell (progress callback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// A valid row already existed; the cell was not rerun.
    Skipped,
    /// The cell executed and its row was appended.
    Executed,
}

/// Summary of one `run_grid` invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridOutcome {
    /// Cells in the grid.
    pub total: usize,
    /// Cells skipped via resume.
    pub skipped: usize,
    /// Cells executed this invocation.
    pub executed: usize,
    /// Cells still missing (hit `limit`).
    pub remaining: usize,
    /// Where the JSONL report lives.
    pub report_path: PathBuf,
}

impl GridOutcome {
    /// Whether every cell now has a row.
    pub fn complete(&self) -> bool {
        self.remaining == 0
    }
}

/// Splits existing report text into the longest valid prefix.
///
/// Returns `(byte_len, line_count)` of the prefix to keep: complete lines,
/// in expansion order, each matching its expected cell id and config hash
/// and written in this build's row layout.
fn valid_prefix(existing: &str, cells: &[GridCell]) -> (usize, usize) {
    let mut offset = 0usize;
    let mut kept = 0usize;
    for cell in cells {
        let rest = &existing[offset..];
        let Some(nl) = rest.find('\n') else {
            break; // torn or absent line: truncate here
        };
        let row = json::parse(&rest[..nl]).unwrap_or(json::Value::Null);
        let hash = format!("{:#018x}", cell.config_hash);
        if row.get_str("cell") != Ok(&cell.id)
            || row.get_str("config_hash") != Ok(&hash)
            || row.get_int("schema_version") != Ok(ROW_VERSION)
        {
            break; // malformed, stale, old-layout or foreign row: rerun from here
        }
        offset += nl + 1;
        kept += 1;
    }
    (offset, kept)
}

/// Where the wall-clock profile sidecar for a report lives.
///
/// `smoke.jsonl` → `smoke.profile.jsonl`. The sidecar is rewritten from
/// scratch on every invocation and never read back: it carries timing
/// counters (dispatch/barrier milliseconds, steal tallies, shard
/// residency), which are machine-dependent and must stay out of the
/// resume-matched, byte-identity-checked main report.
pub fn profile_sidecar_path(out_path: &Path) -> PathBuf {
    out_path.with_extension("profile.jsonl")
}

/// One sidecar line: the timing-dependent counters for an executed cell.
fn profile_row(cell: &GridCell, report: &ScenarioReport) -> String {
    let p = &report.profile;
    let mut row = String::new();
    let o = Obj::new(&mut row)
        .str("cell", &cell.id)
        .num("train_ms", p.train_ms)
        .num("commit_ms", p.commit_ms)
        .num("aggregate_ms", p.aggregate_ms)
        .num("eval_ms", p.eval_ms)
        .num("dispatch_ms", p.dispatch_ms)
        .num("barrier_ms", p.barrier_ms)
        .int("steals", p.steals)
        .int("stolen_items", p.stolen_items);
    match &report.shard_stats {
        Some(s) => o
            .int("shard_resident_bytes", s.resident_bytes)
            .int("shard_budget_bytes", s.budget_bytes)
            .int("shard_hits", s.hits)
            .int("shard_misses", s.misses)
            .int("shard_evictions", s.evictions),
        None => o,
    }
    .finish();
    row
}

/// Runs (or resumes) a grid, appending one report row per executed cell.
///
/// `progress` fires once per cell in order, after the cell is skipped or
/// its row is durably written. A profile sidecar (see
/// [`profile_sidecar_path`]) is truncated at the start of each invocation
/// and receives one timing row per *executed* cell.
///
/// # Errors
///
/// I/O errors on the report file. Scenario execution itself panics on
/// invalid configurations — which [`GridSpec::parse`] has already ruled
/// out.
pub fn run_grid(
    spec: &GridSpec,
    out_path: &Path,
    opts: &GridRunOptions,
    mut progress: impl FnMut(&GridCell, CellStatus),
) -> io::Result<GridOutcome> {
    let cells = spec
        .cells()
        .expect("GridSpec::parse validated the expansion");
    let workers = if opts.workers > 0 {
        opts.workers
    } else {
        spec.default_workers
    };

    // Resume: find how much of the existing report is still valid.
    let (keep_bytes, keep_lines) = if opts.fresh {
        (0, 0)
    } else {
        match File::open(out_path) {
            Ok(mut f) => {
                let mut existing = String::new();
                f.read_to_string(&mut existing)?;
                valid_prefix(&existing, &cells)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (0, 0),
            Err(e) => return Err(e),
        }
    };

    // Keep the valid prefix: open without truncation, then cut the tail.
    let mut file = OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(out_path)?;
    file.set_len(keep_bytes as u64)?;
    file.seek(SeekFrom::Start(keep_bytes as u64))?;

    // Timing sidecar: truncated every invocation, never resume-matched.
    let mut profile_file = File::create(profile_sidecar_path(out_path))?;

    let mut executed = 0usize;
    let mut position = 0usize; // cells with a row so far
    for cell in &cells {
        if position < keep_lines {
            position += 1;
            progress(cell, CellStatus::Skipped);
            continue;
        }
        if opts.limit > 0 && executed >= opts.limit {
            break;
        }
        let run_opts = RunOptions {
            workers,
            fault: cell.spec.fault,
            sim: cell.spec.sim_enabled.then_some(cell.spec.sim),
            ..RunOptions::default()
        };
        let report = Scenario::new(cell.spec.config.clone()).run_with(&run_opts);
        let row = CellReport::from_run(cell, &report);
        file.write_all(row.to_json().as_bytes())?;
        file.write_all(b"\n")?;
        // Flush per cell: a kill loses at most the in-flight cell.
        file.flush()?;
        file.sync_data()?;
        profile_file.write_all(profile_row(cell, &report).as_bytes())?;
        profile_file.write_all(b"\n")?;
        profile_file.flush()?;
        executed += 1;
        position += 1;
        progress(cell, CellStatus::Executed);
    }

    Ok(GridOutcome {
        total: cells.len(),
        skipped: keep_lines,
        executed,
        remaining: cells.len() - position,
        report_path: out_path.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_spec() -> GridSpec {
        GridSpec::parse(
            r#"
schema_version = 1
name = "runner-unit"

[base]
clients = 8
samples_per_client = 12
alpha = 1.0
compromised_frac = 0.5
rounds = 2
eval_every = 2
local_steps = 2
batch_size = 8
sample_rate = 0.5
trojan_epochs = 2
attack = "dpois"

[axes]
defense = ["none", "median"]
"#,
        )
        .unwrap()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("collapois-grid-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn runs_all_cells_and_resumes_as_noop() {
        let spec = fast_spec();
        let out = tmp("full.jsonl");
        let _ = std::fs::remove_file(&out);
        let o1 = run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!((o1.total, o1.executed, o1.skipped), (2, 2, 0));
        assert!(o1.complete());
        let text1 = std::fs::read_to_string(&out).unwrap();
        assert_eq!(text1.lines().count(), 2);

        // Second invocation: everything skips, bytes untouched.
        let mut statuses = Vec::new();
        let o2 = run_grid(&spec, &out, &GridRunOptions::default(), |_, s| {
            statuses.push(s)
        })
        .unwrap();
        assert_eq!((o2.executed, o2.skipped), (0, 2));
        assert_eq!(statuses, vec![CellStatus::Skipped; 2]);
        assert_eq!(std::fs::read_to_string(&out).unwrap(), text1);
    }

    #[test]
    fn profile_sidecar_tracks_executed_cells_only() {
        let spec = fast_spec();
        let out = tmp("sidecar.jsonl");
        let _ = std::fs::remove_file(&out);
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        let side = profile_sidecar_path(&out);
        assert_eq!(side, tmp("sidecar.profile.jsonl"));
        let text = std::fs::read_to_string(&side).unwrap();
        assert_eq!(text.lines().count(), 2);
        for (line, cell) in text.lines().zip(spec.cells().unwrap()) {
            let row = json::parse(line).unwrap();
            assert_eq!(row.get_str("cell").unwrap(), cell.id);
            assert!(row.get_f64("dispatch_ms").is_ok());
            assert!(row.get_int::<u64>("steals").is_ok());
        }
        // A resume that skips everything leaves an empty sidecar: the
        // file reflects only what this invocation measured.
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!(std::fs::read_to_string(&side).unwrap(), "");
    }

    #[test]
    fn limit_stops_early_and_resume_completes() {
        let spec = fast_spec();
        let out = tmp("limited.jsonl");
        let _ = std::fs::remove_file(&out);
        let o1 = run_grid(
            &spec,
            &out,
            &GridRunOptions {
                limit: 1,
                ..GridRunOptions::default()
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!((o1.executed, o1.remaining), (1, 1));
        assert!(!o1.complete());
        let o2 = run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!((o2.skipped, o2.executed, o2.remaining), (1, 1, 0));
    }

    #[test]
    fn torn_line_is_truncated_and_rerun() {
        let spec = fast_spec();
        let out = tmp("torn.jsonl");
        let _ = std::fs::remove_file(&out);
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        let full = std::fs::read_to_string(&out).unwrap();
        // Tear the second line mid-way (simulated kill during write).
        let first_nl = full.find('\n').unwrap();
        let torn = &full[..first_nl + 1 + 20];
        std::fs::write(&out, torn).unwrap();
        let o = run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!((o.skipped, o.executed), (1, 1));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), full);
    }

    #[test]
    fn stale_rows_from_an_edited_grid_are_replaced() {
        let spec = fast_spec();
        let out = tmp("stale.jsonl");
        let _ = std::fs::remove_file(&out);
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        // Same axes, different base setting: cell ids match but hashes
        // don't, so nothing may be skipped.
        let edited = GridSpec::parse(
            &fast_spec_text()
                .replace("rounds = 2", "rounds = 3")
                .replace("eval_every = 2", "eval_every = 3"),
        )
        .unwrap();
        let o = run_grid(&edited, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!((o.skipped, o.executed), (0, 2));
    }

    #[test]
    fn rows_of_an_older_layout_are_rerun() {
        let spec = fast_spec();
        let out = tmp("old-layout.jsonl");
        let _ = std::fs::remove_file(&out);
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        let full = std::fs::read_to_string(&out).unwrap();
        // The same cells under the version-1 layout: the row version alone
        // must stop resume from appending new-layout rows after them.
        let v2 = format!(r#""schema_version":{ROW_VERSION},"#);
        assert_eq!(full.matches(&v2).count(), 2);
        std::fs::write(&out, full.replacen(&v2, r#""schema_version":1,"#, 1)).unwrap();
        let o = run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        assert_eq!((o.skipped, o.executed), (0, 2));
        assert_eq!(std::fs::read_to_string(&out).unwrap(), full);
    }

    #[test]
    fn fresh_reruns_everything() {
        let spec = fast_spec();
        let out = tmp("fresh.jsonl");
        let _ = std::fs::remove_file(&out);
        run_grid(&spec, &out, &GridRunOptions::default(), |_, _| {}).unwrap();
        let o = run_grid(
            &spec,
            &out,
            &GridRunOptions {
                fresh: true,
                ..GridRunOptions::default()
            },
            |_, _| {},
        )
        .unwrap();
        assert_eq!((o.skipped, o.executed), (0, 2));
    }

    fn fast_spec_text() -> String {
        r#"
schema_version = 1
name = "runner-unit"

[base]
clients = 8
samples_per_client = 12
alpha = 1.0
compromised_frac = 0.5
rounds = 2
eval_every = 2
local_steps = 2
batch_size = 8
sample_rate = 0.5
trojan_epochs = 2
attack = "dpois"

[axes]
defense = ["none", "median"]
"#
        .to_string()
    }
}
