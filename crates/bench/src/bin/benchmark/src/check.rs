//! The correctness gate: every executed cell must complete, repeat its own
//! digest on every re-run, and, at the default seed, match the recorded
//! digest.

use crate::stats::{fold_digest, CellDigest};
use crate::workloads::{expected_digest, DIGEST_SEED};
use std::collections::BTreeMap;

/// Attempted and failed cells of one run.
#[derive(Debug)]
pub struct Verdicts {
    workload: &'static str,
    seed: u64,
    /// Cells attempted.
    pub attempted: u64,
    /// One line per failed cell.
    pub failures: Vec<String>,
    /// First digest seen per cell index.
    first: BTreeMap<usize, CellDigest>,
    /// Every passing cell's digest, in run order.
    order: Vec<CellDigest>,
}

impl Verdicts {
    /// An empty tally for `workload` run at `seed`.
    pub fn new(workload: &'static str, seed: u64) -> Self {
        Self {
            workload,
            seed,
            attempted: 0,
            failures: Vec::new(),
            first: BTreeMap::new(),
            order: Vec::new(),
        }
    }

    /// Records cell `index`'s outcome; returns whether it passed.
    pub fn record(&mut self, index: usize, outcome: Result<CellDigest, String>) -> bool {
        self.attempted += 1;
        let verdict = outcome.and_then(|d| self.check(index, d).map(|()| d));
        match verdict {
            Ok(d) => {
                self.order.push(d);
                true
            }
            Err(e) => {
                self.failures.push(format!("cell {index}: {e}"));
                false
            }
        }
    }

    fn check(&mut self, index: usize, d: CellDigest) -> Result<(), String> {
        let first = *self.first.entry(index).or_insert(d);
        if d != first {
            return Err(format!(
                "re-run digest {d:x?} differs from first run {first:x?}"
            ));
        }
        if self.seed == DIGEST_SEED {
            match expected_digest(self.workload, index) {
                Some(want) if want != d => {
                    return Err(format!("digest {d:x?} differs from recorded {want:x?}"))
                }
                Some(_) => {}
                None => return Err("no recorded digest for this cell".to_string()),
            }
        }
        Ok(())
    }

    /// Cells that failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// FNV fold of every passing cell's digest, in run order.
    pub fn digest(&self) -> u64 {
        fold_digest(&self.order)
    }

    /// Distinct cells with their first digest, in index order.
    pub fn distinct(&self) -> impl Iterator<Item = (&usize, &CellDigest)> {
        self.first.iter()
    }
}
