//! The five workloads, each a scenario grid file parsed by the product's
//! own schema (`collapois_grid::schema::GridSpec`).

use crate::stats::CellDigest;
use collapois_core::scenario::RunOptions;
use collapois_grid::schema::{GridCell, GridSpec};
use std::path::PathBuf;

/// One benchmark workload (why each is in the benchmark: `README.md`).
#[derive(Debug)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    toml: &'static str,
}

/// Every workload, in `--workload all` order.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "paper-grid",
        toml: include_str!("../workloads/paper-grid.toml"),
    },
    Workload {
        name: "cohort64",
        toml: include_str!("../workloads/cohort64.toml"),
    },
    Workload {
        name: "krum256",
        toml: include_str!("../workloads/krum256.toml"),
    },
    Workload {
        name: "cohort4096",
        toml: include_str!("../workloads/cohort4096.toml"),
    },
    Workload {
        name: "sim4096",
        toml: include_str!("../workloads/sim4096.toml"),
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The workload's cells in odometer order, every one seeded with `seed`
    /// (`ScenarioConfig.seed`, from which all of a cell's inputs derive).
    pub fn cells(&self, seed: u64) -> Vec<GridCell> {
        let spec = GridSpec::parse(self.toml)
            .unwrap_or_else(|e| panic!("workload {} does not parse: {e}", self.name));
        let mut cells = spec.cells().expect("parse validated the expansion");
        for cell in &mut cells {
            cell.spec.config.seed = seed;
        }
        cells
    }
}

/// The execution options the grid runner gives a cell, plus the trace
/// mirror the untraced pass reads round times from.
pub fn run_options(cell: &GridCell, workers: usize, trace_path: Option<PathBuf>) -> RunOptions {
    RunOptions {
        workers,
        fault: cell.spec.fault,
        sim: cell.spec.sim_enabled.then_some(cell.spec.sim),
        trace_path,
        ..RunOptions::default()
    }
}

/// Seed the recorded digests were taken with (the default `--seed`).
pub const DIGEST_SEED: u64 = 42;

/// The recorded digest of cell `index` of `workload` at [`DIGEST_SEED`].
pub fn expected_digest(workload: &str, index: usize) -> Option<CellDigest> {
    include_str!("../digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .find_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).expect("digests.txt holds hex hashes");
            (f.len() == 5 && f[0] == workload && f[1].parse() == Ok(index)).then(|| CellDigest {
                event_hash: hex(f[2]),
                event_count: f[3].parse().expect("digests.txt holds event counts"),
                params_hash: hex(f[4]),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_expands() {
        let sizes: Vec<usize> = WORKLOADS.iter().map(|w| w.cells(7).len()).collect();
        assert_eq!(sizes, vec![168, 1, 1, 1, 1]);
        assert!(WORKLOADS
            .iter()
            .flat_map(|w| w.cells(7))
            .all(|c| c.spec.config.seed == 7));
        let sim = &find("sim4096").expect("listed").cells(1)[0];
        assert!(sim.spec.sim_enabled);
        assert_eq!(sim.spec.config.shard_budget_mb, 0);
        assert_eq!(
            find("cohort4096").expect("listed").cells(1)[0]
                .spec
                .config
                .shard_budget_mb,
            64
        );
    }

    #[test]
    fn schedule_visits_every_grid_cell_once_and_repeats_a_single_cell() {
        let grid = find("paper-grid").expect("listed").cells(1);
        let mut seen: Vec<usize> = crate::untraced::schedule(&grid).map(|c| c.index).collect();
        assert_ne!(seen[..3], [0, 1, 2], "strided, not odometer order");
        seen.sort_unstable();
        assert_eq!(seen, (0..168).collect::<Vec<_>>());
        let one = find("cohort64").expect("listed").cells(1);
        assert_eq!(crate::untraced::schedule(&one).take(5).count(), 5);
    }
}
