//! Differential tests pinning the blocked kernels to the naive reference
//! oracle (`collapois::nn::kernels::{blocked, reference}`), the
//! explicit-SIMD tier to the blocked kernels, and the column-block order
//! statistics (`kernels::SortingNetwork`) to the reference's one-column
//! median and trimmed mean.
//!
//! All implementations are always compiled, so this suite compares them
//! directly regardless of which one the `reference` cargo feature or the
//! process-wide `COLLAPOIS_KERNEL_TIER` choice routes the dispatchers to.
//! CI runs it in debug and `--release` to catch optimization-level-
//! dependent floating-point differences, and the `kernel-tier` CI job runs
//! the whole tier-1 suite under both `COLLAPOIS_KERNEL_TIER` values so the
//! env-override path itself cannot rot (the override is read once per
//! process, so it cannot be toggled from inside a single test binary).
//!
//! # Tolerance policy
//!
//! * **Exact (bitwise)** — matmul family, element-wise ops (`axpy`,
//!   `scale`, the `acc_*` accumulators), `softmax_rows` and the fused
//!   `softmax_xent`: the blocked kernels preserve the reference's
//!   per-element floating-point reduction order (a single `f32`
//!   accumulator sweeping `k` in ascending order per output element), so
//!   any difference at all is a bug.
//! * **Exact (bitwise) but for the sign of a tied zero** — the
//!   column-block order statistics (`SortingNetwork::median_columns`,
//!   `trimmed_mean_columns`) against the one-column `reference` kernels:
//!   both take the same order statistics and sum the kept values in
//!   ascending order in `f64`. A sort may order `-0.0` and `+0.0` either
//!   way, so where a column holds zeros of both signs, a zero result may
//!   carry either sign. The matmul family is compared with
//!   `to_bits()` on inputs seeded with exact `±0.0` (ReLU outputs and
//!   masked gradients are exact zeros on the real path): `f32` equality
//!   treats `-0.0 == +0.0`, which would let a kernel that seeds its
//!   accumulator with the first product instead of `+0.0` slip through.
//! * **1e-12 relative** — `dot`, `sq_l2_norm`, `sq_l2_distance`,
//!   `pairwise_sq_distances`: the blocked versions split the `f64` sum
//!   into 4 independent chains combined by a fixed tree, which is
//!   deterministic but reassociated, so results may differ from the
//!   single-chain reference by a few `f64` ulps. 1e-12 relative is ~4
//!   orders of magnitude above f64 epsilon yet far below anything the
//!   `f32` inputs can resolve.
//! * **Exact (bitwise), simd vs blocked** — every function, including the
//!   reassociated `f64` reductions: the SIMD tier's 4 `f64` lanes are the
//!   blocked tier's 4 accumulator chains (same elements, same order, same
//!   fixed combine tree), and no FMA is used, so the tiers agree bit for
//!   bit and golden fixtures are tier-invariant.

use collapois::nn::kernels::{blocked, reference, simd, BlockRow, SortingNetwork, BLOCK};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn fill(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// Like [`fill`] for a `rows × cols` operand, with about a quarter of the
/// entries exact `+0.0` or `-0.0` and one whole row `-0.0`.
fn fill_with_zeros(rng: &mut StdRng, rows: usize, cols: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..rows * cols)
        .map(|_| match rng.gen_range(0u32..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    let r = rng.gen_range(0..rows);
    v[r * cols..(r + 1) * cols].fill(-0.0);
    v
}

/// One column for the column-block sort: `n` values mixing a few
/// repeated values, zeros of both signs and distinct finite floats, in
/// proportions that vary from column to column (some columns are mostly
/// ties or zeros), and in one column of four, infinities of both signs.
fn order_stat_column(rng: &mut StdRng, n: usize) -> Vec<f32> {
    let ties = rng.gen_range(0u32..4);
    let infinite = rng.gen_bool(0.25);
    (0..n)
        .map(|_| match rng.gen_range(0u32..16) {
            r if r < 2 * ties => [1.5f32, -2.25, 3.0][rng.gen_range(0usize..3)],
            r if r < 4 * ties => [0.0f32, -0.0][rng.gen_range(0usize..2)],
            15 if infinite => [f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0usize..2)],
            _ => rng.gen_range(-4.0f32..4.0),
        })
        .collect()
}

/// Whether the column-block statistic `got` stands for the one-column
/// reference's `want` over `column`: the same bits, or zeros of either
/// sign where the column holds zeros of both signs, which a sort may
/// order either way.
fn stands_for(got: f32, want: f32, column: &[f32]) -> bool {
    let has = |zero: f32| column.iter().any(|v| v.to_bits() == zero.to_bits());
    got.to_bits() == want.to_bits() || (has(0.0) && has(-0.0) && got == 0.0 && want == 0.0)
}

/// Bit-for-bit equality of two `f32` slices (`-0.0` differs from `+0.0`).
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}: element {i}: {g:?} vs {w:?}"
        );
    }
}

fn assert_rel_close(a: f64, b: f64, what: &str) {
    let denom = a.abs().max(b.abs()).max(1.0);
    assert!(
        ((a - b) / denom).abs() <= 1e-12,
        "{what}: blocked={a} reference={b}"
    );
}

/// SIMD vs blocked at the same tile-boundary shapes (covers the 8-lane
/// remainder paths at every `ncb % 8` residue), plus the dispatcher-level
/// tier checks: whatever the process-wide tier is, the public dispatchers
/// must agree bitwise with the module that tier names — so golden fixtures
/// cannot depend on which tier a host selects.
#[test]
fn simd_tier_bitwise_at_tile_boundaries_and_dispatch_agrees() {
    use collapois::nn::kernels::{active_tier, KernelTier};

    // The env override is read once per process: when CI pins it, the
    // decision must match; unset, detection must have picked *something*.
    match std::env::var("COLLAPOIS_KERNEL_TIER").ok().as_deref() {
        Some("scalar") => assert_eq!(active_tier(), KernelTier::Scalar),
        Some("simd") => assert_eq!(active_tier(), KernelTier::Simd),
        _ => {
            let t = active_tier();
            assert!(t == KernelTier::Scalar || t == KernelTier::Simd);
        }
    }

    let mut rng = StdRng::seed_from_u64(11);
    for &(m, k, n) in &[(1, 1, 1), (3, 127, 255), (3, 129, 257), (8, 300, 513)] {
        matmul_family_matches_blocked(&mut rng, m, k, n);
    }
}

/// A matmul implementation: `matmul` / `matmul_transb` /
/// `matmul_transa_acc` share this signature.
type Matmul = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);

/// Every implementation of the matmul family besides blocked: the simd
/// module, the public dispatchers (whatever tier the process picked) and
/// the reference oracle, as `(name, matmul, matmul_transb,
/// matmul_transa_acc)`.
fn matmul_family_tiers() -> [(&'static str, Matmul, Matmul, Matmul); 3] {
    use collapois::nn::kernels;
    [
        (
            "simd",
            simd::matmul,
            simd::matmul_transb,
            simd::matmul_transa_acc,
        ),
        (
            "dispatched",
            kernels::matmul,
            kernels::matmul_transb,
            kernels::matmul_transa_acc,
        ),
        (
            "reference",
            reference::matmul,
            reference::matmul_transb,
            reference::matmul_transa_acc,
        ),
    ]
}

/// Runs the matmul family at `m × k × n` on zero-seeded inputs through
/// every [`matmul_family_tiers`] entry and requires the blocked tier's bits
/// from each (`matmul_transa_acc` at `p = k`, `q = n`, from a zero-seeded
/// accumulator).
fn matmul_family_matches_blocked(rng: &mut StdRng, m: usize, k: usize, n: usize) {
    let a = fill_with_zeros(rng, m, k);
    let b = fill_with_zeros(rng, k, n);
    let bt = fill_with_zeros(rng, n, k);
    let (p, q) = (k, n);
    let a2 = fill_with_zeros(rng, m, p);
    let b2 = fill_with_zeros(rng, m, q);
    let init = fill_with_zeros(rng, p, q);

    let mut want = vec![0.0f32; m * n];
    let mut got = vec![0.0f32; m * n];
    for (tier, matmul, matmul_transb, matmul_transa_acc) in matmul_family_tiers() {
        // Garbage in `C` must not leak into the overwriting kernels.
        blocked::matmul(&a, &b, &mut want, m, k, n);
        got.fill(f32::NAN);
        matmul(&a, &b, &mut got, m, k, n);
        assert_bits_eq(&got, &want, &format!("{tier} matmul {m}x{k}x{n}"));

        blocked::matmul_transb(&a, &bt, &mut want, m, k, n);
        got.fill(f32::NAN);
        matmul_transb(&a, &bt, &mut got, m, k, n);
        assert_bits_eq(&got, &want, &format!("{tier} matmul_transb {m}x{k}x{n}"));

        let mut acc_want = init.clone();
        let mut acc_got = init.clone();
        blocked::matmul_transa_acc(&a2, &b2, &mut acc_want, m, p, q);
        matmul_transa_acc(&a2, &b2, &mut acc_got, m, p, q);
        assert_bits_eq(
            &acc_got,
            &acc_want,
            &format!("{tier} matmul_transa_acc {m}x{p}x{q}"),
        );
    }
}

/// The MLP's production shapes (144 → 48 → 10) at batch 16 and 8, through
/// every tier against blocked: the forwards 16×144→48 and 16×48→10
/// (`matmul_transb`), the weight gradients 48×144 and 10×48
/// (`matmul_transa_acc` at `p = k`, `q = n`), and the input gradient
/// 16×10→48 (`matmul`).
#[test]
fn matmul_family_bitwise_at_mlp_shapes() {
    let mut rng = StdRng::seed_from_u64(13);
    for batch in [16, 8] {
        for &(k, n) in &[(144, 48), (48, 10), (48, 144), (10, 48)] {
            matmul_family_matches_blocked(&mut rng, batch, k, n);
        }
    }
}

/// A row of `-0.0` against positive weights makes every product of its
/// reductions `-0.0`. The sum starts at `+0.0`, so it must stay `+0.0` in
/// every tier; a kernel that seeds its accumulator with the first product
/// would give `-0.0`.
#[test]
fn all_negative_zero_reductions_sum_to_positive_zero() {
    let (m, k, n) = (16, 144, 48);
    let mut rng = StdRng::seed_from_u64(17);
    let mut a = fill(&mut rng, m * k);
    a[5 * k..6 * k].fill(-0.0);
    // `[k, n]` as `B`, `[n, k]` as `Bᵀ`.
    let pos: Vec<f32> = fill(&mut rng, k * n)
        .iter()
        .map(|v| v.abs() + 0.5)
        .collect();
    // Row 5 of `Aᵀ` for `matmul_transa_acc` is column 5 of `at`.
    let mut at = fill(&mut rng, m * k);
    for row in at.chunks_exact_mut(k) {
        row[5] = -0.0;
    }
    let positive_zero_row = |c: &[f32]| {
        c[5 * n..6 * n]
            .iter()
            .all(|v| v.to_bits() == 0.0f32.to_bits())
    };
    let mut c = vec![0.0f32; m * n];
    let mut acc = vec![0.0f32; k * n];
    let blocked_tier: (&str, Matmul, Matmul, Matmul) = (
        "blocked",
        blocked::matmul,
        blocked::matmul_transb,
        blocked::matmul_transa_acc,
    );
    for (tier, matmul, matmul_transb, matmul_transa_acc) in
        matmul_family_tiers().into_iter().chain([blocked_tier])
    {
        c.fill(f32::NAN);
        matmul(&a, &pos, &mut c, m, k, n);
        assert!(positive_zero_row(&c), "{tier} matmul");
        c.fill(f32::NAN);
        matmul_transb(&a, &pos, &mut c, m, k, n);
        assert!(positive_zero_row(&c), "{tier} matmul_transb");
        acc.fill(0.0);
        matmul_transa_acc(&at, &pos[..m * n], &mut acc, m, k, n);
        assert!(positive_zero_row(&acc), "{tier} matmul_transa_acc");
    }
}

/// Dimensions straddling the KC=128 / NC=256 tile boundaries exercise every
/// packing remainder path; checked exhaustively outside proptest.
#[test]
fn matmul_family_bitwise_at_tile_boundaries() {
    let mut rng = StdRng::seed_from_u64(7);
    for &(m, k, n) in &[
        (1, 1, 1),
        (3, 127, 255),
        (3, 128, 256),
        (3, 129, 257),
        (2, 256, 300),
        (8, 300, 513),
    ] {
        let a = fill_with_zeros(&mut rng, m, k);
        let b = fill_with_zeros(&mut rng, k, n);
        let mut c_blk = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        blocked::matmul(&a, &b, &mut c_blk, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        assert_bits_eq(&c_blk, &c_ref, &format!("matmul {m}x{k}x{n}"));

        // Bᵀ stored [n, k].
        let bt = fill_with_zeros(&mut rng, n, k);
        c_blk.fill(0.0);
        c_ref.fill(0.0);
        blocked::matmul_transb(&a, &bt, &mut c_blk, m, k, n);
        reference::matmul_transb(&a, &bt, &mut c_ref, m, k, n);
        assert_bits_eq(&c_blk, &c_ref, &format!("matmul_transb {m}x{k}x{n}"));

        // C += Aᵀ·B with A: [m, p], B: [m, q] — reuse k as p, n as q.
        let (p, q) = (k, n);
        let a2 = fill_with_zeros(&mut rng, m, p);
        let b2 = fill_with_zeros(&mut rng, m, q);
        let init = fill_with_zeros(&mut rng, p, q);
        let mut acc_blk = init.clone();
        let mut acc_ref = init;
        blocked::matmul_transa_acc(&a2, &b2, &mut acc_blk, m, p, q);
        reference::matmul_transa_acc(&a2, &b2, &mut acc_ref, m, p, q);
        assert_bits_eq(
            &acc_blk,
            &acc_ref,
            &format!("matmul_transa_acc {m}x{p}x{q}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Blocked matmul is bitwise identical to the reference for arbitrary
    /// small shapes (the boundary test above covers the large tiles).
    #[test]
    fn matmul_bitwise(seed in 0u64..10_000, m in 1usize..12, k in 1usize..48, n in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill_with_zeros(&mut rng, m, k);
        let b = fill_with_zeros(&mut rng, k, n);
        let mut c_blk = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        blocked::matmul(&a, &b, &mut c_blk, m, k, n);
        reference::matmul(&a, &b, &mut c_ref, m, k, n);
        assert_bits_eq(&c_blk, &c_ref, "matmul");
    }

    /// Same for the transposed-B (dense forward) variant.
    #[test]
    fn matmul_transb_bitwise(seed in 0u64..10_000, m in 1usize..12, k in 1usize..48, n in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill_with_zeros(&mut rng, m, k);
        let bt = fill_with_zeros(&mut rng, n, k);
        let mut c_blk = vec![0.0f32; m * n];
        let mut c_ref = vec![0.0f32; m * n];
        blocked::matmul_transb(&a, &bt, &mut c_blk, m, k, n);
        reference::matmul_transb(&a, &bt, &mut c_ref, m, k, n);
        assert_bits_eq(&c_blk, &c_ref, "matmul_transb");
    }

    /// Same for the accumulating Aᵀ·B (weight-gradient) variant, including
    /// a non-zero initial accumulator.
    #[test]
    fn matmul_transa_acc_bitwise(seed in 0u64..10_000, m in 1usize..12, p in 1usize..32, q in 1usize..32) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill_with_zeros(&mut rng, m, p);
        let b = fill_with_zeros(&mut rng, m, q);
        let init = fill_with_zeros(&mut rng, p, q);
        let mut c_blk = init.clone();
        let mut c_ref = init;
        blocked::matmul_transa_acc(&a, &b, &mut c_blk, m, p, q);
        reference::matmul_transa_acc(&a, &b, &mut c_ref, m, p, q);
        assert_bits_eq(&c_blk, &c_ref, "matmul_transa_acc");
    }

    /// Element-wise ops are trivially order-preserving: exact equality.
    #[test]
    fn elementwise_ops_bitwise(seed in 0u64..10_000, len in 1usize..400, alpha in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = fill(&mut rng, len);
        let y0 = fill(&mut rng, len);

        let mut y_blk = y0.clone();
        let mut y_ref = y0.clone();
        blocked::axpy(&mut y_blk, alpha, &x);
        reference::axpy(&mut y_ref, alpha, &x);
        prop_assert_eq!(&y_blk, &y_ref);

        blocked::scale(&mut y_blk, alpha);
        reference::scale(&mut y_ref, alpha);
        prop_assert_eq!(&y_blk, &y_ref);

        let acc0: Vec<f64> = y0.iter().map(|&v| v as f64).collect();
        let mut a_blk = acc0.clone();
        let mut a_ref = acc0;
        blocked::acc_add(&mut a_blk, &x);
        reference::acc_add(&mut a_ref, &x);
        prop_assert_eq!(&a_blk, &a_ref);
        blocked::acc_scaled(&mut a_blk, &x, alpha as f64);
        reference::acc_scaled(&mut a_ref, &x, alpha as f64);
        prop_assert_eq!(&a_blk, &a_ref);
        blocked::acc_scaled_f32(&mut a_blk, &x, alpha);
        reference::acc_scaled_f32(&mut a_ref, &x, alpha);
        prop_assert_eq!(a_blk, a_ref);
    }

    /// Softmax rows and the fused softmax+cross-entropy match the two-pass
    /// reference bitwise (loss, gradient, and correct-count).
    #[test]
    fn softmax_paths_bitwise(seed in 0u64..10_000, n in 1usize..16, k in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = fill(&mut rng, n * k);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..k)).collect();

        let mut s_blk = logits.clone();
        let mut s_ref = logits.clone();
        blocked::softmax_rows(&mut s_blk, n, k);
        reference::softmax_rows(&mut s_ref, n, k);
        prop_assert_eq!(s_blk, s_ref);

        let mut g_blk = vec![0.0f32; n * k];
        let mut g_ref = vec![0.0f32; n * k];
        let (l_blk, c_blk) = blocked::softmax_xent(&logits, &labels, n, k, &mut g_blk);
        let (l_ref, c_ref) = reference::softmax_xent(&logits, &labels, n, k, &mut g_ref);
        prop_assert_eq!(g_blk, g_ref);
        prop_assert_eq!(l_blk, l_ref);
        prop_assert_eq!(c_blk, c_ref);
    }

    /// The column-block sort against the one-column reference: every `n`
    /// from 1 to 70 (both parities; 64 is `scenarios/cohort.toml`'s round
    /// size), block widths 1 to 8 with NaN in the unused lanes, as in a
    /// ragged last block, columns of repeated values, zeros of both signs
    /// and ±inf, and the rows in either order. Bits must match, except
    /// that a column holding zeros of both signs may give a zero of the
    /// other sign.
    #[test]
    fn column_block_sort_matches_reference(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut network = SortingNetwork::new();
        for n in 1..=70 {
            network.build(n);
            let width = rng.gen_range(1usize..=BLOCK);
            let trim = rng.gen_range(0usize..=(n - 1) / 2);
            let columns: Vec<Vec<f32>> = (0..width).map(|_| order_stat_column(&mut rng, n)).collect();
            let mut rows: Vec<BlockRow> = (0..n)
                .map(|r| std::array::from_fn(|l| columns.get(l).map_or(f32::NAN, |c| c[r])))
                .collect();
            for _ in 0..2 {
                rows.reverse();
                let median = network.median_columns(&mut rows.clone());
                let trimmed = network.trimmed_mean_columns(&mut rows.clone(), trim);
                for (l, column) in columns.iter().enumerate() {
                    let want = reference::median_inplace(&mut column.clone());
                    prop_assert!(
                        stands_for(median[l], want, column),
                        "median, n={} lane {}: {} vs {}", n, l, median[l], want
                    );
                    let want = reference::trimmed_mean_inplace(&mut column.clone(), trim);
                    prop_assert!(
                        stands_for(trimmed[l], want, column),
                        "trimmed mean, n={} trim={} lane {}: {} vs {}", n, trim, l, trimmed[l], want
                    );
                }
            }
        }
    }

    /// Reassociated f64 reductions: within 1e-12 relative of the
    /// single-chain reference (see the tolerance policy above).
    #[test]
    fn f64_reductions_within_tolerance(seed in 0u64..10_000, len in 1usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, len);
        let b = fill(&mut rng, len);
        assert_rel_close(blocked::dot(&a, &b), reference::dot(&a, &b), "dot");
        assert_rel_close(blocked::sq_l2_norm(&a), reference::sq_l2_norm(&a), "sq_l2_norm");
        assert_rel_close(
            blocked::sq_l2_distance(&a, &b),
            reference::sq_l2_distance(&a, &b),
            "sq_l2_distance",
        );
    }

    /// Pairwise distance matrices: symmetric, zero diagonal, each entry
    /// within tolerance of the single-chain reference.
    #[test]
    fn pairwise_distances_within_tolerance(seed in 0u64..10_000, n in 1usize..8, dim in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vs: Vec<Vec<f32>> = (0..n).map(|_| fill(&mut rng, dim)).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let d_blk = blocked::pairwise_sq_distances(&refs);
        let d_ref = reference::pairwise_sq_distances(&refs);
        prop_assert_eq!(d_blk.len(), n * n);
        for i in 0..n {
            prop_assert_eq!(d_blk[i * n + i], 0.0);
            for j in 0..n {
                prop_assert_eq!(d_blk[i * n + j], d_blk[j * n + i]);
                assert_rel_close(d_blk[i * n + j], d_ref[i * n + j], "pairwise");
            }
        }
    }

    /// The SIMD tier (and the dispatchers and the reference oracle) are
    /// bitwise identical to the blocked tier on the whole matmul family:
    /// one accumulator per output element, `k` ascending, no FMA. `m` up
    /// to 19 covers two and more full 4-row register tiles with every row
    /// remainder; `n` up to 47 every 8-lane residue of the 16-column tile.
    #[test]
    fn simd_matmul_family_bitwise_vs_blocked(seed in 0u64..10_000, m in 1usize..20, k in 1usize..48, n in 1usize..48) {
        let mut rng = StdRng::seed_from_u64(seed);
        matmul_family_matches_blocked(&mut rng, m, k, n);
    }

    /// SIMD element-wise ops: each lane is an independent per-element
    /// chain, so exact equality with the blocked tier is required.
    #[test]
    fn simd_elementwise_ops_bitwise_vs_blocked(seed in 0u64..10_000, len in 1usize..400, alpha in -3.0f32..3.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = fill(&mut rng, len);
        let y0 = fill(&mut rng, len);

        let mut y_simd = y0.clone();
        let mut y_blk = y0.clone();
        simd::axpy(&mut y_simd, alpha, &x);
        blocked::axpy(&mut y_blk, alpha, &x);
        prop_assert_eq!(&y_simd, &y_blk);

        simd::scale(&mut y_simd, alpha);
        blocked::scale(&mut y_blk, alpha);
        prop_assert_eq!(&y_simd, &y_blk);

        let acc0: Vec<f64> = y0.iter().map(|&v| v as f64).collect();
        let mut a_simd = acc0.clone();
        let mut a_blk = acc0;
        simd::acc_add(&mut a_simd, &x);
        blocked::acc_add(&mut a_blk, &x);
        prop_assert_eq!(&a_simd, &a_blk);
        simd::acc_scaled(&mut a_simd, &x, alpha as f64);
        blocked::acc_scaled(&mut a_blk, &x, alpha as f64);
        prop_assert_eq!(&a_simd, &a_blk);
        simd::acc_scaled_f32(&mut a_simd, &x, alpha);
        blocked::acc_scaled_f32(&mut a_blk, &x, alpha);
        prop_assert_eq!(a_simd, a_blk);
    }

    /// SIMD `f64` reductions are bitwise identical to the blocked tier
    /// (lane `i` *is* chain `i`; same fixed combine tree) — a stronger
    /// statement than the 1e-12 policy against the reference.
    #[test]
    fn simd_f64_reductions_bitwise_vs_blocked(seed in 0u64..10_000, len in 1usize..600) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = fill(&mut rng, len);
        let b = fill(&mut rng, len);
        prop_assert_eq!(simd::dot(&a, &b).to_bits(), blocked::dot(&a, &b).to_bits());
        prop_assert_eq!(simd::sq_l2_norm(&a).to_bits(), blocked::sq_l2_norm(&a).to_bits());
        prop_assert_eq!(
            simd::sq_l2_distance(&a, &b).to_bits(),
            blocked::sq_l2_distance(&a, &b).to_bits()
        );
    }

    /// SIMD pairwise distances (full matrix and the upper-row entry point
    /// the pooled Krum/FLARE triangle shards over) are bitwise identical to
    /// the blocked tier. `n` up to 19 puts rows across several 4-wide
    /// `distance4` column groups and every tail length.
    #[test]
    fn simd_pairwise_bitwise_vs_blocked(seed in 0u64..10_000, n in 1usize..20, dim in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vs: Vec<Vec<f32>> = (0..n).map(|_| fill(&mut rng, dim)).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let d_simd = simd::pairwise_sq_distances(&refs);
        let d_blk = blocked::pairwise_sq_distances(&refs);
        for (x, y) in d_simd.iter().zip(&d_blk) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        let mut row_simd = vec![0.0f64; n];
        let mut row_blk = vec![0.0f64; n];
        for i in 0..n {
            simd::pairwise_sq_distances_upper_row_into(&refs, i, &mut row_simd);
            blocked::pairwise_sq_distances_upper_row_into(&refs, i, &mut row_blk);
            for j in (i + 1)..n {
                prop_assert_eq!(row_simd[j].to_bits(), row_blk[j].to_bits(), "row {} col {}", i, j);
            }
        }
    }

    /// SIMD softmax paths (vectorized normalizing divide and 1/n scale,
    /// scalar max/exp/sum) are bitwise identical to the blocked tier.
    #[test]
    fn simd_softmax_bitwise_vs_blocked(seed in 0u64..10_000, n in 1usize..16, k in 2usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let logits = fill(&mut rng, n * k);
        let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..k)).collect();

        let mut s_simd = logits.clone();
        let mut s_blk = logits.clone();
        simd::softmax_rows(&mut s_simd, n, k);
        blocked::softmax_rows(&mut s_blk, n, k);
        prop_assert_eq!(s_simd, s_blk);

        let mut g_simd = vec![0.0f32; n * k];
        let mut g_blk = vec![0.0f32; n * k];
        let (l_simd, c_simd) = simd::softmax_xent(&logits, &labels, n, k, &mut g_simd);
        let (l_blk, c_blk) = blocked::softmax_xent(&logits, &labels, n, k, &mut g_blk);
        prop_assert_eq!(g_simd, g_blk);
        prop_assert_eq!(l_simd.to_bits(), l_blk.to_bits());
        prop_assert_eq!(c_simd, c_blk);
    }

    /// Upper-row distance kernel (the triangle-sharded Krum/FLARE path):
    /// row `i` must write exactly the entries `j > i` of the full matrix's
    /// row, bit for bit, and leave `row[..=i]` untouched — in both
    /// implementations. This is the kernel-layer statement of the
    /// shard-boundary determinism rule.
    #[test]
    fn pairwise_row_matches_full_matrix_bitwise(seed in 0u64..10_000, n in 1usize..20, dim in 1usize..80) {
        let mut rng = StdRng::seed_from_u64(seed);
        let vs: Vec<Vec<f32>> = (0..n).map(|_| fill(&mut rng, dim)).collect();
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        type UpperRow = fn(&[&[f32]], usize, &mut [f64]);
        let tiers: [(&str, Vec<f64>, UpperRow); 2] = [
            ("blocked", blocked::pairwise_sq_distances(&refs), blocked::pairwise_sq_distances_upper_row_into),
            ("reference", reference::pairwise_sq_distances(&refs), reference::pairwise_sq_distances_upper_row_into),
        ];
        for (imp, full, upper_row) in tiers {
            for i in 0..n {
                let mut row = vec![f64::NAN; n];
                upper_row(&refs, i, &mut row);
                for j in 0..n {
                    if j > i {
                        prop_assert_eq!(
                            row[j].to_bits(),
                            full[i * n + j].to_bits(),
                            "{} row {} col {}", imp, i, j
                        );
                    } else {
                        prop_assert!(row[j].is_nan(), "{} row {} col {} was written", imp, i, j);
                    }
                }
            }
        }
    }
}
