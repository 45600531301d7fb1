//! Column-block order statistics: the coordinate median and trimmed mean
//! of [`BLOCK`] coordinates at once.
//!
//! A caller copies [`BLOCK`] consecutive coordinates of each of its `n`
//! vectors into one [`BlockRow`], so a block of `n` rows holds `BLOCK`
//! columns of `n` values. A [`SortingNetwork`] sorts every column at once
//! with the compare-exchanges of Batcher's odd–even merge sort (AFIPS
//! 1968) for `n` inputs; each compare-exchange is a lane-wise select over
//! whole rows, which the compiler vectorizes. The median is then the
//! middle row and the trimmed mean a sum over the kept rows, read by
//! [`SortingNetwork::median_columns`] and
//! [`SortingNetwork::trimmed_mean_columns`].
//!
//! There is one portable implementation, used at every kernel tier and
//! under the `reference` feature alike. Per column it returns the bits of
//! [`reference::median_inplace`](super::reference::median_inplace) and
//! [`reference::trimmed_mean_inplace`](super::reference::trimmed_mean_inplace),
//! with one exception: a sort may order `-0.0` and `+0.0` either way, so
//! where a column holds zeros of both signs, a zero result may carry the
//! other sign (it still compares equal).
//!
//! Values must be finite for the statistics to mean anything, but nothing
//! panics on NaN: a compare-exchange never swaps a NaN, so a NaN leaves
//! its own column unsorted, and its result unspecified, while every other
//! column of the block is sorted as usual. Infinities sort as values.

/// Coordinates per column block: the width of one [`BlockRow`].
pub const BLOCK: usize = 8;

/// One value of each of [`BLOCK`] consecutive coordinates.
pub type BlockRow = [f32; BLOCK];

/// Batcher's odd–even merge sort for `n` values, as its list of
/// compare-exchanges `(i, j)` with `i < j`.
///
/// The network for `n` is the one for the next power of two with every
/// compare-exchange that touches an index `≥ n` dropped: padding those
/// inputs with `+∞` would make each of them a no-op. That gives 59
/// compare-exchanges at `n = 15`, 63 at 16 and 246 at 33. A rule whose
/// round size varies rebuilds the network each call into the same buffer
/// ([`SortingNetwork::build`]), which allocates only when `n` outgrows it.
#[derive(Debug, Clone, Default)]
pub struct SortingNetwork {
    /// Inputs the network sorts.
    n: usize,
    /// Its compare-exchanges, in the order they run.
    pairs: Vec<(usize, usize)>,
}

impl SortingNetwork {
    /// An empty network; [`SortingNetwork::build`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds the network for `n` values, reusing the pair buffer.
    pub fn build(&mut self, n: usize) {
        self.n = n;
        self.pairs.clear();
        // The iterative form of the merge sort: `p` is the size of the
        // sorted runs being merged, `k` the distance each merge stage
        // compares across.
        let mut p = 1;
        while p < n {
            let mut k = p;
            while k >= 1 {
                let mut j = k % p;
                while j + k < n {
                    for i in 0..k.min(n - j - k) {
                        if (i + j) / (2 * p) == (i + j + k) / (2 * p) {
                            self.pairs.push((i + j, i + j + k));
                        }
                    }
                    j += 2 * k;
                }
                k /= 2;
            }
            p *= 2;
        }
    }

    /// Sorts each column of `rows` ascending.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not the network's input count.
    fn sort_columns(&self, rows: &mut [BlockRow]) {
        assert_eq!(rows.len(), self.n, "sort_columns: row count");
        for &(i, j) in &self.pairs {
            let (lo, hi) = rows.split_at_mut(j);
            compare_exchange(&mut lo[i], &mut hi[0]);
        }
    }

    /// Each column's median: sorts the columns, then reads the middle row
    /// for odd `n`, and for even `n` the two middle rows interpolated as
    /// `lo·0.5 + hi·0.5` in `f64`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or its length is not the network's input
    /// count.
    pub fn median_columns(&self, rows: &mut [BlockRow]) -> BlockRow {
        assert!(!rows.is_empty(), "median_columns: no rows");
        self.sort_columns(rows);
        let n = rows.len();
        if n % 2 == 1 {
            return rows[n / 2];
        }
        let (lo, hi) = (rows[n / 2 - 1], rows[n / 2]);
        std::array::from_fn(|l| (lo[l] as f64 * 0.5 + hi[l] as f64 * 0.5) as f32)
    }

    /// Each column's α-trimmed mean: sorts the columns, drops the `trim`
    /// lowest and highest rows, and averages the rest with an ascending
    /// `f64` sum.
    ///
    /// # Panics
    ///
    /// Panics if `2 * trim >= rows.len()` or the row count is not the
    /// network's input count.
    pub fn trimmed_mean_columns(&self, rows: &mut [BlockRow], trim: usize) -> BlockRow {
        let n = rows.len();
        assert!(
            2 * trim < n,
            "trimmed_mean_columns: trim {trim} too large for {n} rows"
        );
        self.sort_columns(rows);
        let kept = &rows[trim..n - trim];
        // `-0.0` is the identity `Iterator::sum` starts from, so a column
        // of kept `-0.0`s stays `-0.0`, as the one-column kernels give.
        let mut sum = [-0.0f64; BLOCK];
        for row in kept {
            for (s, &v) in sum.iter_mut().zip(row) {
                *s += v as f64;
            }
        }
        let count = kept.len() as f64;
        sum.map(|s| (s / count) as f32)
    }
}

/// Orders one pair of rows lane by lane: `a` takes the smaller value of
/// each lane and `b` the larger. Equal values, and any pair with a NaN,
/// stay where they are.
#[inline(always)]
fn compare_exchange(a: &mut BlockRow, b: &mut BlockRow) {
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let swap = *y < *x;
        let (lo, hi) = if swap { (*y, *x) } else { (*x, *y) };
        *x = lo;
        *y = hi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_sizes_match_batcher() {
        let mut net = SortingNetwork::new();
        for (n, len) in [
            (0, 0),
            (1, 0),
            (2, 1),
            (4, 5),
            (8, 19),
            (15, 59),
            (16, 63),
            (33, 246),
        ] {
            net.build(n);
            assert_eq!(net.pairs.len(), len, "n={n}");
            assert!(net.pairs.iter().all(|&(i, j)| i < j && j < n));
        }
    }

    /// The 0-1 principle: a network sorts every input iff it sorts every
    /// 0-1 input. Eight lanes carry eight bit patterns per pass.
    #[test]
    fn sorts_every_zero_one_input() {
        let mut net = SortingNetwork::new();
        for n in 1..=14 {
            net.build(n);
            let mut rows = vec![[0.0f32; BLOCK]; n];
            for base in (0..1u32 << n).step_by(BLOCK) {
                for (r, row) in rows.iter_mut().enumerate() {
                    *row = std::array::from_fn(|l| (((base + l as u32) >> r) & 1) as f32);
                }
                net.sort_columns(&mut rows);
                for w in rows.windows(2) {
                    assert!((0..BLOCK).all(|l| w[0][l] <= w[1][l]), "n={n} base={base}");
                }
            }
        }
    }

    #[test]
    fn order_statistics_of_small_columns() {
        let mut net = SortingNetwork::new();
        let column = |vals: &[f32]| -> Vec<BlockRow> { vals.iter().map(|&v| [v; BLOCK]).collect() };
        net.build(5);
        assert_eq!(
            net.median_columns(&mut column(&[5.0, 1.0, 3.0, 2.0, 4.0])),
            [3.0; BLOCK]
        );
        net.build(4);
        assert_eq!(
            net.median_columns(&mut column(&[4.0, 1.0, 2.0, 3.0])),
            [2.5; BLOCK]
        );
        let mut rows = column(&[-1000.0, 1.0, 3.0, 1000.0]);
        assert_eq!(net.trimmed_mean_columns(&mut rows, 1), [2.0; BLOCK]);
        net.build(3);
        assert_eq!(
            net.trimmed_mean_columns(&mut column(&[1.0, 2.0, 3.0]), 0),
            [2.0; BLOCK]
        );
    }

    /// A NaN leaves its own column unsorted and no other: the remaining
    /// lanes read the statistics of their finite values, and nothing
    /// panics.
    #[test]
    fn nan_and_infinity_stay_in_their_column() {
        let mut net = SortingNetwork::new();
        net.build(5);
        let vals = [4.0f32, -2.0, 7.0, 1.0, 3.0];
        let poisoned = |lane: usize, bad: f32| -> Vec<BlockRow> {
            vals.iter()
                .enumerate()
                .map(|(r, &v)| std::array::from_fn(|l| if l == lane && r == 1 { bad } else { v }))
                .collect()
        };
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let med = net.median_columns(&mut poisoned(2, bad));
            let tm = net.trimmed_mean_columns(&mut poisoned(5, bad), 1);
            for l in (0..BLOCK).filter(|&l| l != 2) {
                assert_eq!(med[l], 3.0, "median lane {l} with {bad}");
            }
            for l in (0..BLOCK).filter(|&l| l != 5) {
                assert_eq!(
                    tm[l],
                    (8.0f64 / 3.0) as f32,
                    "trimmed mean lane {l} with {bad}"
                );
            }
        }
        // An infinity is one more value: it moves to an end of its column.
        assert_eq!(net.median_columns(&mut poisoned(2, f32::INFINITY))[2], 4.0);
        assert_eq!(
            net.median_columns(&mut poisoned(2, f32::NEG_INFINITY))[2],
            3.0
        );
    }
}
