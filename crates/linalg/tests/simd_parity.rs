//! Bit-parity suite for the runtime-dispatched SIMD kernels.
//!
//! Every kernel in `lion_linalg::simd` ships a scalar reference twin; the
//! dispatch contract is that the SIMD implementation is **bit-identical**
//! (`==` on every `f64`, no tolerance) on every input, because the
//! stream/adaptive/solver parity suites downstream assert exact equality
//! between pipelines that mix the two. These proptests pin that contract
//! across remainder lengths `0..width` (width = 4 lanes on AVX2, 2 on
//! NEON), so both the full-vector body and the scalar tail of each kernel
//! are exercised.
//!
//! On hosts without SIMD support, `active()` resolves to the scalar
//! backend and the comparisons are trivially equal — the suite is still
//! worth running there as a smoke test of the dispatch seam itself.

use std::sync::{Mutex, MutexGuard};

use proptest::prelude::*;

use lion_linalg::simd;

/// The widest vector any backend dispatches to: 4 `f64` lanes (AVX2;
/// NEON has 2, which the same offsets and lengths cover).
const WIDTH: usize = 4;

/// Serializes the tests that flip the process-wide dispatch override, so
/// one test's `force(None)` cannot land between another's `force` and
/// its check of [`simd::active`].
fn dispatch_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Strategy: finite phases in `[0, 2π)` like a wrapped RFID phase stream.
fn phases(len: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0_f64..std::f64::consts::TAU, len)
}

proptest! {
    #[test]
    fn exp_kernel_bit_parity(xs in proptest::collection::vec(-800.0_f64..0.0, 0..20)) {
        let mut scalar = xs.clone();
        let mut dispatched = xs.clone();
        simd::exp_non_positive_scalar(&mut scalar);
        simd::exp_non_positive(&mut dispatched);
        prop_assert_eq!(scalar, dispatched);
    }

    #[test]
    fn unwrap_kernel_bit_parity(ph in phases(0..20)) {
        let mut scalar = ph.clone();
        let mut dispatched = ph.clone();
        let mut revs_a = Vec::new();
        let mut revs_b = Vec::new();
        simd::phase_unwrap_in_place_scalar(&mut scalar, &mut revs_a);
        simd::phase_unwrap_in_place(&mut dispatched, &mut revs_b);
        prop_assert_eq!(scalar, dispatched);
        prop_assert_eq!(revs_a, revs_b);
    }

    #[test]
    fn sliding_mean_kernel_bit_parity(
        data in proptest::collection::vec(-10.0_f64..10.0, 1..24),
        window in 2_usize..9,
    ) {
        // Build the running-sum prefix exactly as the smoothing stage does.
        let mut prefix = Vec::with_capacity(data.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &d in &data {
            acc += d;
            prefix.push(acc);
        }
        let mut scalar = vec![0.0; data.len()];
        let mut dispatched = vec![0.0; data.len()];
        simd::sliding_mean_from_prefix_scalar(&prefix, window, &mut scalar);
        simd::sliding_mean_from_prefix(&prefix, window, &mut dispatched);
        prop_assert_eq!(scalar, dispatched);
    }

    #[test]
    fn radical_rows_kernel_bit_parity(
        k in 1_usize..4,
        n in 2_usize..12,
        m in 0_usize..20,
        seed in 0_u64..u64::MAX,
    ) {
        // Deterministic pseudo-random coords/deltas/pairs from the seed so
        // the three lengths can shrink independently.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 * 4.0 - 2.0
        };
        let coords: Vec<f64> = (0..n * k).map(|_| next()).collect();
        let deltas: Vec<f64> = (0..n).map(|_| next()).collect();
        let pair_i: Vec<i32> = (0..m).map(|r| (r % n) as i32).collect();
        let pair_j: Vec<i32> = (0..m).map(|r| ((r * 7 + 1) % n) as i32).collect();
        let mut design_a = vec![0.0; m * (k + 1)];
        let mut design_b = vec![0.0; m * (k + 1)];
        let mut rhs_a = vec![0.0; m];
        let mut rhs_b = vec![0.0; m];
        simd::radical_rows_scalar(
            &coords, n, k, &deltas, &pair_i, &pair_j, &mut design_a, &mut rhs_a,
        );
        simd::radical_rows(
            &coords, n, k, &deltas, &pair_i, &pair_j, &mut design_b, &mut rhs_b,
        );
        prop_assert_eq!(design_a, design_b);
        prop_assert_eq!(rhs_a, rhs_b);
    }
}

/// Shared body for the Gram-kernel parity check at one width.
fn gram_parity<const N: usize>(flat: &[f64], rhs: &[f64], weights: &[f64]) {
    let (g_s, atk_s) = simd::gram_fixed_scalar::<N>(flat, rhs, weights);
    let (g_d, atk_d) = simd::gram_fixed::<N>(flat, rhs, weights);
    assert_eq!(g_s, g_d);
    assert_eq!(atk_s, atk_d);
}

proptest! {
    #[test]
    fn gram_kernel_bit_parity(
        m in 0_usize..20,
        n_sel in 0_usize..3,
        data in proptest::collection::vec(-5.0_f64..5.0, 20 * 6),
        weights in proptest::collection::vec(0.0_f64..1.0, 20),
    ) {
        let widths = [2, 3, 4];
        let n = widths[n_sel];
        let flat = &data[..m * n];
        let rhs = &data[20 * 5..20 * 5 + m];
        let weights = &weights[..m];
        match n {
            2 => gram_parity::<2>(flat, rhs, weights),
            3 => gram_parity::<3>(flat, rhs, weights),
            _ => gram_parity::<4>(flat, rhs, weights),
        }
    }
}

/// The forced-dispatch hook pins the scalar path regardless of host CPU:
/// CI runs this everywhere, so the fallback is never dead code. Flipping
/// the override mid-process is harmless to concurrently running parity
/// tests precisely because the kernels are bit-identical.
#[test]
fn forced_scalar_dispatch_matches_auto() {
    let _serial = dispatch_lock();
    let xs: Vec<f64> = (0..37).map(|i| -(i as f64) * 0.37).collect();
    let mut auto = xs.clone();
    simd::exp_non_positive(&mut auto);
    simd::force(Some(simd::Backend::Scalar));
    assert_eq!(simd::active(), simd::Backend::Scalar);
    let mut forced = xs;
    simd::exp_non_positive(&mut forced);
    simd::force(None);
    assert_eq!(auto, forced);
    assert_eq!(simd::active(), simd::detected());
}

/// `len` deterministic values in `[lo, hi)` (xorshift from `seed`).
fn fill(seed: u64, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            lo + (hi - lo) * ((state >> 11) as f64 / (1_u64 << 53) as f64)
        })
        .collect()
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Runs `check(offset, len)` for every slice start `0..=WIDTH` and
/// length `0..=3·WIDTH`, first under automatic dispatch and then with
/// the scalar backend forced.
fn sweep_offsets_and_lengths(mut check: impl FnMut(usize, usize)) {
    let _serial = dispatch_lock();
    for forced in [None, Some(simd::Backend::Scalar)] {
        simd::force(forced);
        for offset in 0..=WIDTH {
            for len in 0..=3 * WIDTH {
                check(offset, len);
            }
        }
    }
    simd::force(None);
}

/// Each check runs the kernel on a window `[offset, offset + len)` of a
/// buffer padded on both sides and compares the *whole* buffer, so a
/// stray write outside the window fails too.
#[test]
fn kernels_match_scalar_at_misaligned_starts_and_short_lengths() {
    sweep_offsets_and_lengths(|offset, len| {
        let span = offset..offset + len;
        let total = offset + len + WIDTH;

        let xs = fill(1, total, -800.0, 0.0);
        let (mut scalar, mut dispatched) = (xs.clone(), xs);
        simd::exp_non_positive_scalar(&mut scalar[span.clone()]);
        simd::exp_non_positive(&mut dispatched[span.clone()]);
        assert_eq!(bits(&scalar), bits(&dispatched), "exp @{offset}+{len}");

        let ph = fill(2, total, 0.0, std::f64::consts::TAU);
        let (mut scalar, mut dispatched) = (ph.clone(), ph);
        let (mut revs_a, mut revs_b) = (Vec::new(), Vec::new());
        simd::phase_unwrap_in_place_scalar(&mut scalar[span.clone()], &mut revs_a);
        simd::phase_unwrap_in_place(&mut dispatched[span.clone()], &mut revs_b);
        assert_eq!(bits(&scalar), bits(&dispatched), "unwrap @{offset}+{len}");
        assert_eq!(bits(&revs_a), bits(&revs_b), "unwrap revs @{offset}+{len}");

        // The prefix window is one longer than the output window.
        let data = fill(3, len, -10.0, 10.0);
        let mut prefix = fill(4, total + 1, -1.0, 1.0);
        prefix[offset] = 0.0;
        for (i, d) in data.iter().enumerate() {
            prefix[offset + i + 1] = prefix[offset + i] + d;
        }
        for window in [2, 3, WIDTH, WIDTH + 1, 2 * WIDTH + 1] {
            let out = fill(5, total, -1.0, 1.0);
            let (mut scalar, mut dispatched) = (out.clone(), out);
            let prefix = &prefix[offset..offset + len + 1];
            simd::sliding_mean_from_prefix_scalar(prefix, window, &mut scalar[span.clone()]);
            simd::sliding_mean_from_prefix(prefix, window, &mut dispatched[span.clone()]);
            assert_eq!(
                bits(&scalar),
                bits(&dispatched),
                "sliding mean w={window} @{offset}+{len}"
            );
        }

        // `len` rows over `n` samples; every input slice starts at `offset`.
        let n = 2 * WIDTH + 1;
        for k in 1..=3 {
            let coords = fill(6, offset + n * k, -2.0, 2.0);
            let deltas = fill(7, offset + n, -2.0, 2.0);
            let pick = |mul: usize, add: usize| -> Vec<i32> {
                (0..offset + len)
                    .map(|r| ((r * mul + add) % n) as i32)
                    .collect()
            };
            let (pair_i, pair_j) = (pick(1, 0), pick(7, 1));
            let design = fill(8, offset + len * (k + 1) + WIDTH, -1.0, 1.0);
            let rhs = fill(9, total, -1.0, 1.0);
            let (mut design_a, mut design_b) = (design.clone(), design);
            let (mut rhs_a, mut rhs_b) = (rhs.clone(), rhs);
            let rows = offset..offset + len * (k + 1);
            let (coords, deltas) = (&coords[offset..], &deltas[offset..]);
            let (pair_i, pair_j) = (&pair_i[span.clone()], &pair_j[span.clone()]);
            simd::radical_rows_scalar(
                coords,
                n,
                k,
                deltas,
                pair_i,
                pair_j,
                &mut design_a[rows.clone()],
                &mut rhs_a[span.clone()],
            );
            simd::radical_rows(
                coords,
                n,
                k,
                deltas,
                pair_i,
                pair_j,
                &mut design_b[rows],
                &mut rhs_b[span.clone()],
            );
            assert_eq!(
                bits(&design_a),
                bits(&design_b),
                "rows k={k} @{offset}+{len}"
            );
            assert_eq!(bits(&rhs_a), bits(&rhs_b), "rhs k={k} @{offset}+{len}");
        }

        let flat = fill(10, offset + 4 * len, -5.0, 5.0);
        let rhs = fill(11, total, -5.0, 5.0);
        let weights = fill(12, total, 0.0, 1.0);
        let (rhs, weights) = (&rhs[span.clone()], &weights[span.clone()]);
        gram_parity::<2>(&flat[offset..offset + 2 * len], rhs, weights);
        gram_parity::<3>(&flat[offset..offset + 3 * len], rhs, weights);
        gram_parity::<4>(&flat[offset..offset + 4 * len], rhs, weights);
    });
}
