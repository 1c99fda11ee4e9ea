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

/// Largest whole-block count the IRLS-reweight proptests draw lengths
/// over: `0..=4·BLOCKS+3` rows hit every tail length at several block
/// counts.
const BLOCKS: usize = 5;

/// Shared body for the residual-kernel parity check at one width: the
/// residuals and `(Σr, Σr²)` of the dispatched kernel equal the scalar
/// twin's, and the sums equal [`simd::sum_sumsq`] over the residuals (the
/// reduction the QR IRLS path uses).
fn residual_parity<const N: usize>(flat: &[f64], rhs: &[f64], x: &[f64]) {
    let x: &[f64; N] = x[..N].try_into().unwrap();
    let mut out_s = vec![f64::NAN; rhs.len()];
    let mut out_d = vec![f64::NAN; rhs.len()];
    let sums_s = simd::residuals_fixed_scalar::<N>(flat, rhs, x, &mut out_s);
    let sums_d = simd::residuals_fixed::<N>(flat, rhs, x, &mut out_d);
    assert_eq!(bits(&out_s), bits(&out_d), "residuals N={N}");
    assert_eq!(sums_s.0.to_bits(), sums_d.0.to_bits(), "Σr N={N}");
    assert_eq!(sums_s.1.to_bits(), sums_d.1.to_bits(), "Σr² N={N}");
    let reduced = simd::sum_sumsq(&out_s);
    assert_eq!(sums_s.0.to_bits(), reduced.0.to_bits(), "Σr order N={N}");
    assert_eq!(sums_s.1.to_bits(), reduced.1.to_bits(), "Σr² order N={N}");
}

proptest! {
    #[test]
    fn residuals_kernel_bit_parity(
        m in 0_usize..4 * BLOCKS + 4,
        n_sel in 0_usize..3,
        data in proptest::collection::vec(-5.0_f64..5.0, (4 * BLOCKS + 3) * 5),
        x in proptest::collection::vec(-3.0_f64..3.0, 4),
    ) {
        let n = [2, 3, 4][n_sel];
        let flat = &data[..m * n];
        let rhs = &data[(4 * BLOCKS + 3) * 4..(4 * BLOCKS + 3) * 4 + m];
        match n {
            2 => residual_parity::<2>(flat, rhs, &x),
            3 => residual_parity::<3>(flat, rhs, &x),
            _ => residual_parity::<4>(flat, rhs, &x),
        }
    }

    #[test]
    fn gaussian_weights_kernel_bit_parity(
        residuals in proptest::collection::vec(-2.0_f64..2.0, 0..4 * BLOCKS + 4),
        mu in -0.5_f64..0.5,
        sigma in 1e-3_f64..2.0,
    ) {
        let inv_two_sigma2 = 0.5 / (sigma * sigma);
        let mut scalar = vec![f64::NAN; residuals.len()];
        let mut dispatched = vec![f64::NAN; residuals.len()];
        simd::gaussian_weights_scalar(&residuals, mu, inv_two_sigma2, &mut scalar);
        simd::gaussian_weights(&residuals, mu, inv_two_sigma2, &mut dispatched);
        prop_assert_eq!(bits(&scalar), bits(&dispatched));
        // One pass equals the exponents written out, then exponentiated.
        let mut two_pass: Vec<f64> = residuals
            .iter()
            .map(|r| {
                let d = r - mu;
                -(d * d) * inv_two_sigma2
            })
            .collect();
        simd::exp_non_positive_scalar(&mut two_pass);
        prop_assert_eq!(bits(&scalar), bits(&two_pass));
    }
}

/// The documented reduction order, written out by hand for eleven rows:
/// rows 0–7 fill lanes `i mod 4` over two whole blocks, the lanes combine
/// as `(l0 + l1) + (l2 + l3)`, and rows 8–10 are added after that. The
/// values are chosen so that each nearby order rounds differently.
#[test]
fn residual_sums_follow_the_documented_lane_order() {
    let _serial = dispatch_lock();
    let r = [-2.5, 0.7, 2.5, -3.0, -1e16, 3.0, 1e16, 0.1, -0.7, 2.5, -0.1];
    let l = [r[0] + r[4], r[1] + r[5], r[2] + r[6], r[3] + r[7]];
    let sq = |v: f64| v * v;
    let q = [
        sq(r[0]) + sq(r[4]),
        sq(r[1]) + sq(r[5]),
        sq(r[2]) + sq(r[6]),
        sq(r[3]) + sq(r[7]),
    ];
    let tail = |head: f64, f: fn(f64) -> f64| head + f(r[8]) + f(r[9]) + f(r[10]);
    let want_sum = tail((l[0] + l[1]) + (l[2] + l[3]), |v| v);
    let want_sumsq = tail((q[0] + q[1]) + (q[2] + q[3]), |v| v * v);
    let others = [
        ("left to right", r.iter().fold(0.0, |s, v| s + v)),
        (
            "lanes in sequence",
            tail(((l[0] + l[1]) + l[2]) + l[3], |v| v),
        ),
        (
            "lanes paired 0+2",
            tail((l[0] + l[2]) + (l[1] + l[3]), |v| v),
        ),
        (
            "tail first",
            (r[8] + r[9] + r[10]) + ((l[0] + l[1]) + (l[2] + l[3])),
        ),
    ];
    for (name, other) in others {
        assert_ne!(
            want_sum.to_bits(),
            other.to_bits(),
            "the inputs must tell the documented order from {name}"
        );
    }
    let sums = simd::sum_sumsq(&r);
    assert_eq!(sums.0.to_bits(), want_sum.to_bits());
    assert_eq!(sums.1.to_bits(), want_sumsq.to_bits());

    // The residual kernel at every width, on every backend, sums its
    // residuals in the same order: rows `aᵢ = [rᵢ, 0, …]`, `x = [1, …]`,
    // `kᵢ = 0` make the residuals exactly `r`.
    fn check<const N: usize>(r: &[f64], want: (f64, f64)) {
        let mut flat = vec![0.0; r.len() * N];
        for (row, &v) in flat.chunks_exact_mut(N).zip(r) {
            row[0] = v;
        }
        let mut x = [0.0; N];
        x[0] = 1.0;
        let rhs = vec![0.0; r.len()];
        let mut out = vec![0.0; r.len()];
        for forced in [None, Some(simd::Backend::Scalar)] {
            simd::force(forced);
            let sums = simd::residuals_fixed::<N>(&flat, &rhs, &x, &mut out);
            assert_eq!(bits(&out), bits(r), "N={N} residuals");
            assert_eq!(sums.0.to_bits(), want.0.to_bits(), "N={N} Σr");
            assert_eq!(sums.1.to_bits(), want.1.to_bits(), "N={N} Σr²");
        }
        simd::force(None);
    }
    check::<2>(&r, (want_sum, want_sumsq));
    check::<3>(&r, (want_sum, want_sumsq));
    check::<4>(&r, (want_sum, want_sumsq));
}

/// σ̂² from the `Σw` and `Σw·r²` that `solve_irls_normal` returns equals
/// σ̂² recomputed from the scratch's final weights and residuals, so the
/// covariance needs no second pass over the rows.
#[test]
fn sigma_hat_from_the_outcome_sums_equals_a_recomputation() {
    use lion_linalg::{solve_irls_normal, IrlsConfig, NormalEq, NormalIrlsScratch};
    for cols in [2_usize, 3, 4] {
        let m = 4 * BLOCKS + 3;
        let flat = fill(20 + cols as u64, m * cols, -1.0, 1.0);
        let mut rhs = fill(30 + cols as u64, m, -0.05, 0.05);
        rhs[m / 2] += 3.0; // an outlier, so the weights leave uniform
        let mut ne = NormalEq::new();
        ne.set_system(cols, &flat, &rhs);
        let mut scratch = NormalIrlsScratch::new();
        let outcome = solve_irls_normal(&mut ne, &IrlsConfig::default(), &mut scratch).unwrap();
        assert!(outcome.iterations > 0, "cols={cols}");
        let wsum: f64 = scratch.weights().iter().sum();
        let wsq: f64 = scratch
            .residuals()
            .iter()
            .zip(scratch.weights())
            .map(|(r, w)| w * r * r)
            .sum();
        let sigma2 = |wsq: f64, wsum: f64| {
            let dof = (m - cols) as f64;
            wsq / dof.max(1.0) / (wsum / m as f64).max(f64::MIN_POSITIVE)
        };
        assert_eq!(
            sigma2(outcome.weighted_sq_sum, outcome.weight_sum).to_bits(),
            sigma2(wsq, wsum).to_bits(),
            "cols={cols}"
        );
        assert_eq!(
            outcome.weighted_rms.to_bits(),
            (wsq / wsum).sqrt().to_bits(),
            "cols={cols}"
        );
        // Handing the final weights over leaves them in the system.
        let final_weights = scratch.weights().to_vec();
        ne.adopt_irls_weights(&mut scratch).unwrap();
        assert_eq!(bits(ne.weights()), bits(&final_weights), "cols={cols}");
    }
}
