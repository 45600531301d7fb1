//! Order statistics, the steady-state window and the correctness digest.

/// Percentiles printed for every timing, highest first.
pub const PRINTED_PERCENTILES: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// A tail percentile is reported only with at least this many samples
/// beyond it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest
/// rank with at least `p`% of the samples at or below it. The tolerance
/// keeps decimal percentiles such as 99.9 from rounding up a whole rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of ascending-sorted, non-empty `sorted`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// The highest of [`PRINTED_PERCENTILES`] that has at least
/// [`MIN_SAMPLES_BEYOND`] of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    PRINTED_PERCENTILES
        .into_iter()
        .find(|&p| n > 0 && n - nearest_rank(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Sorts a sample in place and returns it (timings are finite).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

/// The steady-state window of one cell's `(round, elapsed_ms)` samples:
/// round 0 pays one-off warm-up (arena growth, lazily sized buffers,
/// first shard touches) and is left out.
pub fn steady_window(rounds: &[(usize, f64)]) -> Vec<f64> {
    rounds
        .iter()
        .filter(|(round, _)| *round > 0)
        .map(|&(_, ms)| ms)
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into a running FNV-1a state.
fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the bit patterns of a parameter vector.
pub fn params_hash(params: &[f32]) -> u64 {
    params
        .iter()
        .fold(FNV_OFFSET, |h, v| fnv1a_fold(h, &v.to_bits().to_le_bytes()))
}

/// What one cell must reproduce: the canonical event hash and count of its
/// run trace, and the hash of its final global parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDigest {
    /// `ScenarioReport::event_hash`.
    pub event_hash: u64,
    /// `ScenarioReport::event_count`.
    pub event_count: u64,
    /// [`params_hash`] of the final global model.
    pub params_hash: u64,
}

/// A workload digest: FNV-1a folded over every cell's digest, in run order.
pub fn fold_digest(cells: &[CellDigest]) -> u64 {
    cells.iter().fold(FNV_OFFSET, |h, d| {
        let h = fnv1a_fold(h, &d.event_hash.to_le_bytes());
        let h = fnv1a_fold(h, &d.event_count.to_le_bytes());
        fnv1a_fold(h, &d.params_hash.to_le_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 91.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None); // p50 has 9 beyond
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0)); // p90 rank 90: 9 beyond
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn steady_window_drops_round_zero_of_every_cell() {
        let cell = [(0, 9.0), (1, 1.0), (2, 2.0)];
        assert_eq!(steady_window(&cell), vec![1.0, 2.0]);
        assert!(steady_window(&[(0, 5.0)]).is_empty());
    }

    #[test]
    fn digest_fold_is_order_sensitive_and_matches_fnv1a() {
        // The FNV-1a test vector for "a".
        assert_eq!(fnv1a_fold(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        let a = CellDigest {
            event_hash: 1,
            event_count: 2,
            params_hash: 3,
        };
        let b = CellDigest { event_hash: 4, ..a };
        assert_eq!(fold_digest(&[a, b]), fold_digest(&[a, b]));
        assert_ne!(fold_digest(&[a, b]), fold_digest(&[b, a]));
        assert_ne!(fold_digest(&[a]), fold_digest(&[a, a]));
        assert_ne!(params_hash(&[0.0]), params_hash(&[-0.0]));
    }
}
