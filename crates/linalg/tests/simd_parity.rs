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

/// Eleven values whose sum in the documented lane order differs from
/// every nearby order (see [`residual_sums_follow_the_documented_lane_order`]).
const ORDER_PROBE: [f64; 11] = [-2.5, 0.7, 2.5, -3.0, -1e16, 3.0, 1e16, 0.1, -0.7, 2.5, -0.1];

/// The documented reduction order, written out by hand for eleven rows:
/// rows 0–7 fill lanes `i mod 4` over two whole blocks, the lanes combine
/// as `(l0 + l1) + (l2 + l3)`, and rows 8–10 are added after that.
fn lane_order_sum(r: &[f64; 11]) -> f64 {
    let l = [r[0] + r[4], r[1] + r[5], r[2] + r[6], r[3] + r[7]];
    (l[0] + l[1]) + (l[2] + l[3]) + r[8] + r[9] + r[10]
}

/// The documented reduction order, written out by hand for eleven rows:
/// rows 0–7 fill lanes `i mod 4` over two whole blocks, the lanes combine
/// as `(l0 + l1) + (l2 + l3)`, and rows 8–10 are added after that. The
/// values are chosen so that each nearby order rounds differently.
#[test]
fn residual_sums_follow_the_documented_lane_order() {
    let _serial = dispatch_lock();
    let r = ORDER_PROBE;
    let l = [r[0] + r[4], r[1] + r[5], r[2] + r[6], r[3] + r[7]];
    let sq = |v: f64| v * v;
    let q = [
        sq(r[0]) + sq(r[4]),
        sq(r[1]) + sq(r[5]),
        sq(r[2]) + sq(r[6]),
        sq(r[3]) + sq(r[7]),
    ];
    let tail = |head: f64, f: fn(f64) -> f64| head + f(r[8]) + f(r[9]) + f(r[10]);
    let want_sum = lane_order_sum(&r);
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
        simd::block_rows(&mut flat, N);
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
/// σ̂² recomputed from the scratch's final weights and residuals (summed
/// in the documented lane order), so the covariance needs no second pass
/// over the rows.
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
        // Both sums in the documented lane order, written out.
        let lane_sum = |terms: Vec<f64>| {
            let whole = terms.len() - terms.len() % 4;
            let mut l = [0.0; 4];
            for (i, t) in terms[..whole].iter().enumerate() {
                l[i % 4] += t;
            }
            terms[whole..]
                .iter()
                .fold((l[0] + l[1]) + (l[2] + l[3]), |s, t| s + t)
        };
        let wsum = lane_sum(scratch.weights().to_vec());
        let wsq = lane_sum(
            scratch
                .residuals()
                .iter()
                .zip(scratch.weights())
                .map(|(r, w)| w * r * r)
                .collect(),
        );
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

/// Runs `check` under automatic dispatch, then with the scalar backend
/// forced.
fn on_both_backends(mut check: impl FnMut()) {
    let _serial = dispatch_lock();
    for forced in [None, Some(simd::Backend::Scalar)] {
        simd::force(forced);
        check();
    }
    simd::force(None);
}

/// `rows` (row-major, `cols` columns) in the kernels' blocked layout.
fn blocked(rows: &[f64], cols: usize) -> Vec<f64> {
    let mut out = rows.to_vec();
    simd::block_rows(&mut out, cols);
    out
}

/// The row-major Gram arithmetic the blocked kernels replaced, kept as
/// their oracle: row `i` of the whole blocks into partial sum `i mod 4`,
/// each term `(wᵢ·aᵢ[r])·aᵢ[c]` (or `·kᵢ`) fused into its sum, the
/// partials combined as `(l0 + l1) + (l2 + l3)`, then the tail rows.
/// Returns the lower triangle of `gram` (`cols × cols`, upper entries 0)
/// and `atk`.
fn row_major_gram(rows: &[f64], rhs: &[f64], weights: &[f64], cols: usize) -> (Vec<f64>, Vec<f64>) {
    let add_row = |gram: &mut [f64], atk: &mut [f64], a: &[f64], k: f64, w: f64| {
        for r in 0..cols {
            let wa = w * a[r];
            for c in 0..=r {
                gram[r * cols + c] = wa.mul_add(a[c], gram[r * cols + c]);
            }
            atk[r] = wa.mul_add(k, atk[r]);
        }
    };
    let whole = rhs.len() - rhs.len() % 4;
    let mut lane_gram = vec![vec![0.0; cols * cols]; 4];
    let mut lane_atk = vec![vec![0.0; cols]; 4];
    for i in 0..whole {
        let a = &rows[i * cols..(i + 1) * cols];
        add_row(
            &mut lane_gram[i % 4],
            &mut lane_atk[i % 4],
            a,
            rhs[i],
            weights[i],
        );
    }
    let combine =
        |parts: &[Vec<f64>], e: usize| (parts[0][e] + parts[1][e]) + (parts[2][e] + parts[3][e]);
    let mut gram: Vec<f64> = (0..cols * cols).map(|e| combine(&lane_gram, e)).collect();
    let mut atk: Vec<f64> = (0..cols).map(|e| combine(&lane_atk, e)).collect();
    for i in whole..rhs.len() {
        let a = &rows[i * cols..(i + 1) * cols];
        add_row(&mut gram, &mut atk, a, rhs[i], weights[i]);
    }
    (gram, atk)
}

/// The row-major residual arithmetic the blocked kernels replaced, kept
/// as their oracle: `rᵢ = fma(…fma(aᵢ[1], x[1], aᵢ[0]·x[0])…) − kᵢ`, and
/// `(Σr, Σr²)` in the documented lane order.
fn row_major_residuals(rows: &[f64], rhs: &[f64], x: &[f64]) -> (Vec<f64>, (f64, f64)) {
    let cols = x.len();
    let residuals: Vec<f64> = rhs
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let a = &rows[i * cols..(i + 1) * cols];
            (1..cols).fold(a[0] * x[0], |dot, c| a[c].mul_add(x[c], dot)) - k
        })
        .collect();
    let sum = |f: fn(f64) -> f64| {
        let whole = residuals.len() - residuals.len() % 4;
        let mut l = [0.0; 4];
        for (i, &r) in residuals[..whole].iter().enumerate() {
            l[i % 4] += f(r);
        }
        residuals[whole..]
            .iter()
            .fold((l[0] + l[1]) + (l[2] + l[3]), |s, &r| s + f(r))
    };
    let sums = (sum(|r| r), sum(|r| r * r));
    (residuals, sums)
}

/// The Gram sums and residuals of `m` pseudo-random rows at width `N`,
/// at non-unit weights: the dispatched kernels (AVX2 where the CPU has
/// it), their scalar twins and the runtime-width [`simd::gram_into`],
/// all reading the blocked rows, equal the row-major oracles bit for
/// bit.
fn blocked_kernels_match_the_oracle<const N: usize>(seed: u64, m: usize) {
    let flat = fill(seed, m * N, -5.0, 5.0);
    let rhs = fill(seed + 1, m, -5.0, 5.0);
    let weights = fill(seed + 2, m, 0.0, 1.0);
    let x = fill(seed + 3, N, -2.0, 2.0);
    let rows = blocked(&flat, N);
    let (want_gram, want_atk) = row_major_gram(&flat, &rhs, &weights, N);
    for (name, (g, atk)) in [
        ("dispatched", simd::gram_fixed::<N>(&rows, &rhs, &weights)),
        (
            "scalar",
            simd::gram_fixed_scalar::<N>(&rows, &rhs, &weights),
        ),
    ] {
        assert_eq!(
            bits(g.as_flattened()),
            bits(&want_gram),
            "N={N} m={m} {name}"
        );
        assert_eq!(bits(&atk), bits(&want_atk), "N={N} m={m} {name} atk");
    }
    let (mut gram, mut atk, mut lanes) = (vec![f64::NAN; N * N], vec![f64::NAN; N], Vec::new());
    simd::gram_into(&rows, &rhs, &weights, N, &mut lanes, &mut gram, &mut atk);
    assert_eq!(bits(&gram), bits(&want_gram), "N={N} m={m} gram_into");
    assert_eq!(bits(&atk), bits(&want_atk), "N={N} m={m} gram_into atk");

    let (want, want_sums) = row_major_residuals(&flat, &rhs, &x);
    let x: &[f64; N] = x[..].try_into().unwrap();
    let (mut out_d, mut out_s) = (vec![f64::NAN; m], vec![f64::NAN; m]);
    for (name, sums, out) in [
        (
            "dispatched",
            simd::residuals_fixed::<N>(&rows, &rhs, x, &mut out_d),
            &out_d,
        ),
        (
            "scalar",
            simd::residuals_fixed_scalar::<N>(&rows, &rhs, x, &mut out_s),
            &out_s,
        ),
    ] {
        assert_eq!(bits(out), bits(&want), "N={N} m={m} {name} residuals");
        assert_eq!(
            bits(&[sums.0, sums.1]),
            bits(&[want_sums.0, want_sums.1]),
            "N={N} m={m} {name} sums"
        );
    }
}

#[test]
fn blocked_gram_and_residuals_match_the_row_major_oracle() {
    let sizes: Vec<usize> = (0..=9)
        .chain(fill(40, 6, 10.0, 3000.0).into_iter().map(|x| x as usize))
        .collect();
    on_both_backends(|| {
        for (seed, &m) in sizes.iter().enumerate() {
            let seed = 100 + 5 * seed as u64;
            blocked_kernels_match_the_oracle::<2>(seed, m);
            blocked_kernels_match_the_oracle::<3>(seed, m);
            blocked_kernels_match_the_oracle::<4>(seed, m);
            blocked_kernels_match_the_oracle::<5>(seed, m);
            blocked_kernels_match_the_oracle::<6>(seed, m);
        }
    });
}

/// The blocked layout round-trips, and [`simd::blocked_index`] finds
/// every entry where [`simd::block_rows`] put it, at every tail length
/// and at the fixed widths 2–4 and the general ones around them.
#[test]
fn block_rows_places_every_entry_at_its_blocked_index() {
    for cols in 1..=7 {
        for m in 0..=13 {
            let flat: Vec<f64> = (0..m * cols).map(|v| v as f64).collect();
            let rows = blocked(&flat, cols);
            for i in 0..m {
                for c in 0..cols {
                    let at = simd::blocked_index(i, c, cols, m);
                    assert_eq!(rows[at], flat[i * cols + c], "cols={cols} m={m} ({i}, {c})");
                }
            }
            let mut back = rows.clone();
            simd::unblock_rows(&mut back, cols);
            assert_eq!(back, flat, "cols={cols} m={m}");
        }
    }
}

/// Every Gram and `AᵀWk` entry is summed in the documented lane order.
/// Rows `[rᵢ, 0, …, 0, 1]` at unit weight and `kᵢ = 1` make the entry
/// below the diagonal in the last row, and `atk[0]`, exactly `Σ rᵢ`;
/// [`lane_order_sum`] writes that sum out by hand, and
/// [`residual_sums_follow_the_documented_lane_order`] shows that these
/// values tell it from every nearby order. The σ̂ sums of
/// `simd::weighted_sums` follow the same order.
#[test]
fn gram_sums_follow_the_documented_lane_order() {
    let want = lane_order_sum(&ORDER_PROBE).to_bits();
    fn check<const N: usize>(want: u64) {
        let mut flat = vec![0.0; ORDER_PROBE.len() * N];
        for (row, &v) in flat.chunks_exact_mut(N).zip(&ORDER_PROBE) {
            row[0] = v;
            row[N - 1] = 1.0;
        }
        simd::block_rows(&mut flat, N);
        let ones = vec![1.0; ORDER_PROBE.len()];
        let (gram, atk) = simd::gram_fixed::<N>(&flat, &ones, &ones);
        assert_eq!(gram[N - 1][0].to_bits(), want, "N={N} gram");
        assert_eq!(atk[0].to_bits(), want, "N={N} atk");
        let (mut g, mut t, mut lanes) = (vec![0.0; N * N], vec![0.0; N], Vec::new());
        simd::gram_into(&flat, &ones, &ones, N, &mut lanes, &mut g, &mut t);
        assert_eq!(g[(N - 1) * N].to_bits(), want, "N={N} gram_into");
        assert_eq!(t[0].to_bits(), want, "N={N} gram_into atk");
    }
    on_both_backends(|| {
        check::<2>(want);
        check::<3>(want);
        check::<4>(want);
        check::<6>(want);
        // Weights `rᵢ` at residual 1: each row adds `rᵢ` to both sums.
        let ones = vec![1.0; ORDER_PROBE.len()];
        let (wsum, wsq) = simd::weighted_sums(&ORDER_PROBE, &ones);
        assert_eq!(wsum.to_bits(), want, "Σw");
        assert_eq!(wsq.to_bits(), want, "Σw·r²");
    });
}

/// `a·b + c` with one rounding (`mul_add`) when `fused`, else with the
/// product rounded first. The fusion probes below evaluate each
/// hand-written reference both ways and check that their inputs tell the
/// two apart, so a kernel that stopped fusing (on both twins alike, which
/// the scalar-twin parity checks cannot see) fails them.
fn madd(fused: bool, a: f64, b: f64, c: f64) -> f64 {
    if fused {
        a.mul_add(b, c)
    } else {
        a * b + c
    }
}

/// Rows in a fusion probe: two whole blocks, so every lane's partial sum
/// adds a product into a non-zero sum, and one tail row.
const FUSION_ROWS: usize = 9;

/// `Σ pᵢ·qᵢ` over [`FUSION_ROWS`] rows in the documented lane order, each
/// product added into its sum with [`madd`]: rows 0–7 into lane `i mod 4`
/// (from +0), the lanes combined as `(l0 + l1) + (l2 + l3)`, row 8 last.
fn lane_order_dot(fused: bool, p: &[f64], q: &[f64]) -> f64 {
    let l = [0, 1, 2, 3].map(|l| madd(fused, p[l + 4], q[l + 4], madd(fused, p[l], q[l], 0.0)));
    madd(fused, p[8], q[8], (l[0] + l[1]) + (l[2] + l[3]))
}

/// Every Gram and `AᵀWk` term `(wᵢ·aᵢ[r])·aᵢ[c]` (or `·kᵢ`) is fused into
/// its partial sum exactly like `mul_add`, at non-unit weights: each entry
/// of `simd::gram_fixed` and `simd::gram_into` equals [`lane_order_dot`]
/// of `wᵢ·aᵢ[r]` against `aᵢ[c]` (or `kᵢ`). At every width some Gram
/// entry and some `AᵀWk` entry differ from the same sum with the products
/// rounded first (the seeds are picked for that).
#[test]
fn gram_products_are_fused_like_mul_add() {
    fn check<const N: usize>() {
        let seed = 8 + 10 * N as u64;
        let flat = fill(seed, FUSION_ROWS * N, -3.0, 3.0);
        let rhs = fill(seed + 1, FUSION_ROWS, -3.0, 3.0);
        let weights = fill(seed + 2, FUSION_ROWS, 0.1, 2.0);
        let col = |c: usize| -> Vec<f64> { flat.chunks_exact(N).map(|a| a[c]).collect() };
        let blocked = blocked(&flat, N);
        let (gram, atk) = simd::gram_fixed::<N>(&blocked, &rhs, &weights);
        let (mut g, mut t, mut lanes) = (vec![0.0; N * N], vec![0.0; N], Vec::new());
        simd::gram_into(&blocked, &rhs, &weights, N, &mut lanes, &mut g, &mut t);
        // How many Gram and `AᵀWk` entries tell fused from unfused.
        let mut told_apart = [0, 0];
        for r in 0..N {
            let wa: Vec<f64> = weights.iter().zip(col(r)).map(|(w, a)| w * a).collect();
            let entries = (0..=r)
                .map(|c| (format!("gram[{r}][{c}]"), col(c), gram[r][c], g[r * N + c]))
                .chain([(format!("atk[{r}]"), rhs.clone(), atk[r], t[r])]);
            for (name, q, fixed, into) in entries {
                let want = lane_order_dot(true, &wa, &q);
                if want.to_bits() != lane_order_dot(false, &wa, &q).to_bits() {
                    told_apart[usize::from(name.starts_with("atk"))] += 1;
                }
                assert_eq!(fixed.to_bits(), want.to_bits(), "N={N} {name}");
                assert_eq!(into.to_bits(), want.to_bits(), "N={N} {name} gram_into");
            }
        }
        assert!(
            told_apart.iter().all(|&n| n > 0),
            "N={N}: the inputs must tell fused from unfused ({told_apart:?})"
        );
    }
    on_both_backends(|| {
        check::<2>();
        check::<3>();
        check::<4>();
        check::<6>();
    });
}

/// Each residual's dot product fuses the columns after the first into its
/// running sum, left to right, exactly like `mul_add`:
/// `fma(a₂, x₂, fma(a₁, x₁, a₀·x₀)) − k` at `N = 3`. The inputs make the
/// fused and unfused references differ in a whole-block row and in the
/// tail row.
#[test]
fn residual_dots_are_fused_like_mul_add() {
    fn check<const N: usize>() {
        let seed = 53 + 10 * N as u64;
        let flat = fill(seed, FUSION_ROWS * N, -3.0, 3.0);
        let rhs = fill(seed + 1, FUSION_ROWS, -3.0, 3.0);
        let x: [f64; N] = fill(seed + 2, N, -2.0, 2.0).try_into().unwrap();
        let reference = |fused: bool| -> Vec<f64> {
            let rows = flat.chunks_exact(N).zip(&rhs);
            let dot = |a: &[f64]| (1..N).fold(a[0] * x[0], |s, c| madd(fused, a[c], x[c], s));
            rows.map(|(a, &k)| dot(a) - k).collect()
        };
        let (want, unfused) = (reference(true), reference(false));
        let differs = |i: usize| want[i].to_bits() != unfused[i].to_bits();
        assert!(
            (0..8).any(differs),
            "N={N}: no whole-block row tells fused from unfused"
        );
        assert!(
            differs(8),
            "N={N}: the tail row must tell fused from unfused"
        );
        let mut out = vec![f64::NAN; FUSION_ROWS];
        let sums = simd::residuals_fixed::<N>(&blocked(&flat, N), &rhs, &x, &mut out);
        assert_eq!(bits(&out), bits(&want), "N={N}");
        let reduced = simd::sum_sumsq(&want);
        assert_eq!(sums.0.to_bits(), reduced.0.to_bits(), "N={N} Σr");
        assert_eq!(sums.1.to_bits(), reduced.1.to_bits(), "N={N} Σr²");
    }
    on_both_backends(|| {
        check::<2>();
        check::<3>();
        check::<4>();
    });
}

/// The exponential written out by hand with [`madd`] for the two steps
/// the kernel fuses, `fuse = [shift, horner]`: the shift trick's rounding
/// of `x·log₂e` to `n`, and the nine Horner steps. The Cody–Waite
/// reduction and the exact `2ⁿ` scale are rounded step by step.
#[allow(clippy::excessive_precision)]
fn exp_reference([shift, horner]: [bool; 2], x: f64) -> f64 {
    const LN2_HI: f64 = 6.931_471_803_691_238_2e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let v = x.max(-690.0);
    let t = madd(shift, v, std::f64::consts::LOG2_E, SHIFT);
    let n = t - SHIFT;
    let r = (v - n * LN2_HI) - n * LN2_LO;
    let factorials = [40_320.0, 5_040.0, 720.0, 120.0, 24.0, 6.0, 2.0, 1.0, 1.0];
    let p = factorials
        .iter()
        .fold(1.0 / 362_880.0, |p, &f| madd(horner, r, p, 1.0 / f));
    p * f64::from_bits(t.to_bits().wrapping_add(1023) << 52)
}

/// `simd::exp_non_positive` and the exponential inside
/// `simd::gaussian_weights` fuse exactly like `mul_add`: every value
/// equals [`exp_reference`] with both steps fused. Unfusing either step
/// alone changes a value in the whole blocks, and unfusing both changes a
/// value in the tail.
#[test]
fn exp_is_fused_like_mul_add() {
    let len = 4 * BLOCKS + 3;
    let mut xs = fill(4, len, -30.0, 0.0);
    // `x·log₂e` lies within an ulp of −5.5, where rounding the product
    // first and rounding it fused pick different `n`.
    xs[0] = f64::from_bits(0xC00E_7F9C_1E98_0FA9);
    let want: Vec<f64> = xs.iter().map(|&x| exp_reference([true; 2], x)).collect();
    let differs = |fuse: [bool; 2], i: usize| want[i] != exp_reference(fuse, xs[i]);
    for fuse in [[false, true], [true, false]] {
        let told_apart = (0..len - 3).any(|i| differs(fuse, i));
        assert!(told_apart, "no whole-block value tells {fuse:?} from fused");
    }
    let told_apart = (len - 3..len).any(|i| differs([false; 2], i));
    assert!(told_apart, "no tail value tells fused from unfused");
    let (mu, inv_two_sigma2) = (0.25, 0.5 / 0.3_f64.powi(2));
    let residuals = fill(201, len, -1.5, 2.0);
    let want_weights: Vec<f64> = residuals
        .iter()
        .map(|&r| exp_reference([true; 2], -((r - mu) * (r - mu)) * inv_two_sigma2))
        .collect();
    on_both_backends(|| {
        let mut got = xs.clone();
        simd::exp_non_positive(&mut got);
        assert_eq!(bits(&got), bits(&want), "exp_non_positive");
        let mut weights = vec![f64::NAN; len];
        simd::gaussian_weights(&residuals, mu, inv_two_sigma2, &mut weights);
        assert_eq!(bits(&weights), bits(&want_weights), "gaussian_weights");
    });
}

/// The Gaussian weights equal their scalar twin bit for bit at every
/// length around the vector twin's seams: the tail of four (0–9), the
/// chunk of 64 its two passes share (63–65, 127–129) and random sizes.
/// Residuals far from the mean put exponents below the −690 clamp in the
/// whole blocks and in the tail.
#[test]
fn gaussian_weights_match_scalar_across_chunk_seams() {
    let random = fill(43, 6, 130.0, 3000.0).into_iter().map(|x| x as usize);
    let sizes: Vec<usize> = (0..=9)
        .chain(63..=65)
        .chain(127..=129)
        .chain(random)
        .collect();
    let (mu, inv_two_sigma2) = (0.1, 0.5 / 0.2_f64.powi(2));
    on_both_backends(|| {
        for (seed, &m) in sizes.iter().enumerate() {
            let mut residuals = fill(500 + seed as u64, m, -1.0, 1.0);
            // (40 − μ)²·12.5 ≈ 2·10⁴ ≫ 690.
            for r in residuals.iter_mut().step_by(7) {
                *r = 40.0;
            }
            if let Some(last) = residuals.last_mut() {
                *last = -40.0;
            }
            let mut want = vec![f64::NAN; m];
            simd::gaussian_weights_scalar(&residuals, mu, inv_two_sigma2, &mut want);
            let mut got = vec![f64::NAN; m];
            simd::gaussian_weights(&residuals, mu, inv_two_sigma2, &mut got);
            assert_eq!(bits(&got), bits(&want), "m={m}");
        }
    });
}

/// `m` rows over `n` samples with `k` axes, pseudo-random from `seed`:
/// `(coords, deltas, pair_i, pair_j)`.
fn radical_inputs(
    seed: u64,
    n: usize,
    k: usize,
    m: usize,
) -> (Vec<f64>, Vec<f64>, Vec<i32>, Vec<i32>) {
    let coords = fill(seed, n * k, -2.0, 2.0);
    let deltas = fill(seed + 1, n, -2.0, 2.0);
    let index = |x: f64| (x as usize).min(n - 1) as i32;
    let pair_i = fill(seed + 2, m, 0.0, n as f64)
        .into_iter()
        .map(index)
        .collect();
    let pair_j = fill(seed + 3, m, 0.0, n as f64)
        .into_iter()
        .map(index)
        .collect();
    (coords, deltas, pair_i, pair_j)
}

/// The dispatched row kernel (AVX2's four-row blocks where the CPU has
/// them) equals the scalar twin, and each row equals
/// `simd::radical_row` on its own, for every frame width and every tail
/// length over several whole blocks.
#[test]
fn radical_rows_match_scalar_for_every_frame_width_and_tail() {
    let _serial = dispatch_lock();
    let n = 13;
    for k in 1..=3 {
        for m in 0..=4 * BLOCKS + 3 {
            let seed = 200 + (k * 100 + m) as u64;
            let (coords, deltas, pair_i, pair_j) = radical_inputs(seed, n, k, m);
            let (mut design_s, mut rhs_s) = (vec![f64::NAN; m * (k + 1)], vec![f64::NAN; m]);
            let (mut design_d, mut rhs_d) = (design_s.clone(), rhs_s.clone());
            simd::radical_rows_scalar(
                &coords,
                n,
                k,
                &deltas,
                &pair_i,
                &pair_j,
                &mut design_s,
                &mut rhs_s,
            );
            simd::radical_rows(
                &coords,
                n,
                k,
                &deltas,
                &pair_i,
                &pair_j,
                &mut design_d,
                &mut rhs_d,
            );
            assert_eq!(bits(&design_s), bits(&design_d), "k={k} m={m} rows");
            assert_eq!(bits(&rhs_s), bits(&rhs_d), "k={k} m={m} rhs");
            for (row, (&i, &j)) in pair_i.iter().zip(&pair_j).enumerate() {
                let (i, j) = (i as usize, j as usize);
                let mut one = vec![0.0; k + 1];
                let ends = (0..k).map(|c| (coords[c * n + i], coords[c * n + j]));
                let rhs = simd::radical_row(ends, deltas[i], deltas[j], &mut one);
                let stored: Vec<f64> = (0..=k)
                    .map(|c| design_s[simd::blocked_index(row, c, k + 1, m)])
                    .collect();
                assert_eq!(bits(&one), bits(&stored), "k={k} m={m} row {row}");
                assert_eq!(rhs.to_bits(), rhs_s[row].to_bits(), "k={k} m={m} rhs {row}");
            }
        }
    }
}

/// The row kernel writes exactly `m·(k + 1)` design entries and `m`
/// right-hand sides: sentinels placed right after both stay untouched on
/// every backend, at every frame width and tail length.
#[test]
fn radical_rows_never_write_past_the_last_row() {
    const SENTINEL: f64 = -1234.5;
    on_both_backends(|| {
        let n = 11;
        for k in 1..=3 {
            for m in 0..=4 * BLOCKS + 3 {
                let (coords, deltas, pair_i, pair_j) = radical_inputs(300 + m as u64, n, k, m);
                let mut design = vec![SENTINEL; m * (k + 1) + 2 * WIDTH * (k + 1)];
                let mut rhs = vec![SENTINEL; m + 2 * WIDTH];
                simd::radical_rows(
                    &coords,
                    n,
                    k,
                    &deltas,
                    &pair_i,
                    &pair_j,
                    &mut design[..m * (k + 1)],
                    &mut rhs[..m],
                );
                assert!(
                    design[m * (k + 1)..].iter().all(|&v| v == SENTINEL),
                    "k={k} m={m}: a design store ran past the last row"
                );
                assert!(
                    rhs[m..].iter().all(|&v| v == SENTINEL),
                    "k={k} m={m}: a right-hand side store ran past the last row"
                );
                assert!(
                    design[..m * (k + 1)].iter().all(|&v| v != SENTINEL),
                    "k={k} m={m}: a row was left unwritten"
                );
            }
        }
    });
}

/// An out-of-bounds or negative pair index panics on every backend,
/// whether it sits in a whole block of four rows or in the tail, instead
/// of gathering from outside the coordinate slices.
#[test]
fn radical_rows_reject_out_of_bounds_indices() {
    on_both_backends(|| {
        let (n, m) = (6, 7);
        for (k, bad) in (1..=3).flat_map(|k| [n as i32, -1, i32::MAX].map(|bad| (k, bad))) {
            let (coords, deltas, pair_i, pair_j) = radical_inputs(400, n, k, m);
            for row in [1, m - 1] {
                let mut pair_j = pair_j.clone();
                pair_j[row] = bad;
                let (mut design, mut rhs) = (vec![0.0; m * (k + 1)], vec![0.0; m]);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    simd::radical_rows(
                        &coords,
                        n,
                        k,
                        &deltas,
                        &pair_i,
                        &pair_j,
                        &mut design,
                        &mut rhs,
                    )
                }));
                assert!(run.is_err(), "k={k}: index {bad} at row {row} was accepted");
            }
        }
    });
}

/// `m` reads `(position, phase)` around a center, pseudo-random from
/// `seed`: positions within 2 m, phases in `[0, 2π)`.
fn offset_reads(seed: u64, m: usize) -> Vec<([f64; 3], f64)> {
    let xyz = fill(seed, 3 * m, -2.0, 2.0);
    let theta = fill(seed + 1, m, 0.0, std::f64::consts::TAU);
    xyz.chunks_exact(3)
        .zip(theta)
        .map(|(p, t)| ([p[0], p[1], p[2]], t))
        .collect()
}

const CENTER: [f64; 3] = [0.1, 0.8, -0.05];
const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// Both resultant entries equal their scalar twins bit for bit at every
/// tail length 0..=7 and at random sizes, and the fused offset form
/// equals the angle form over the collected offsets.
fn resultant_matches_scalar(seed: u64, m: usize) {
    let angles = fill(seed, m, -60.0, 60.0);
    let want = simd::sin_cos_sums_scalar(&angles);
    let got = simd::sin_cos_sums(&angles);
    assert_eq!(
        bits(&[got.0, got.1]),
        bits(&[want.0, want.1]),
        "angles m={m}"
    );
    let reads = offset_reads(seed + 7, m);
    let want = simd::phase_offset_sums_scalar(&reads, |&r| r, CENTER, LAMBDA);
    let got = simd::phase_offset_sums(&reads, |&r| r, CENTER, LAMBDA);
    assert_eq!(
        bits(&[got.0, got.1]),
        bits(&[want.0, want.1]),
        "offsets m={m}"
    );
    let offsets: Vec<f64> = reads
        .iter()
        .map(|&(p, t)| simd::phase_offset(p, t, CENTER, LAMBDA))
        .collect();
    let collected = simd::sin_cos_sums(&offsets);
    assert_eq!(
        bits(&[got.0, got.1]),
        bits(&[collected.0, collected.1]),
        "fused m={m}"
    );
}

#[test]
fn resultant_kernel_matches_scalar_at_every_tail_and_random_sizes() {
    let sizes = (0..=7).chain(fill(41, 6, 8.0, 3000.0).into_iter().map(|x| x as usize));
    let sizes: Vec<usize> = sizes.collect();
    on_both_backends(|| {
        for (seed, &m) in sizes.iter().enumerate() {
            resultant_matches_scalar(200 + 3 * seed as u64, m);
        }
    });
}

/// The documented domain bound: inside `|x| ≤ SIN_COS_MAX` every sine
/// and cosine is within 2 ULP of libm's value (the largest error seen
/// over these 418 004 angles, from uniform draws over the whole domain
/// and over `±100` rad and from the doubles nearest to multiples of π/2
/// up to `2²⁰`, is 2 ULP, and at most 2⁻⁵³ absolutely).
#[test]
fn sin_cos_stays_within_two_ulp_of_libm_over_the_domain() {
    let wide = fill(5, 200_000, -simd::SIN_COS_MAX, simd::SIN_COS_MAX);
    let phases = fill(6, 200_000, -100.0, 100.0);
    let near_zeros = fill(7, 6_000, -660_000.0, 660_000.0)
        .into_iter()
        .flat_map(|k| {
            let x = k.round() * std::f64::consts::FRAC_PI_2;
            [x.next_down(), x, x.next_up()]
        })
        .chain([0.0, -0.0, simd::SIN_COS_MAX, -simd::SIN_COS_MAX]);
    for x in wide.into_iter().chain(phases).chain(near_zeros) {
        let (s, c) = simd::sin_cos(x);
        for (got, want, name) in [(s, x.sin(), "sin"), (c, x.cos(), "cos")] {
            let ulp = want.abs().next_up() - want.abs();
            assert!(
                (got - want).abs() <= 2.0 * ulp,
                "{name}({x:e}) = {got:e}, libm {want:e}"
            );
        }
    }
}

/// Angles beyond the reduction's exact range (and NaN, ±∞) take libm's
/// `sin`/`cos` on every backend, lane by lane inside a vector block, so
/// a finite hostile angle never turns the sums into NaN and the twins
/// stay bit-identical.
#[test]
fn hostile_magnitudes_fold_through_libm() {
    let max = simd::SIN_COS_MAX;
    let hostile = [
        1e7,
        -3.0e8,
        1e300,
        f64::MAX,
        -f64::MAX,
        max.next_up(),
        -max.next_up(),
    ];
    for x in hostile {
        assert_eq!(
            bits(&<[f64; 2]>::from(simd::sin_cos(x))),
            bits(&[x.sin(), x.cos()]),
            "{x:e}"
        );
    }
    // Hostile angles mixed into blocks of in-range ones, at every tail.
    let mut angles = fill(9, 23, -30.0, 30.0);
    for (slot, x) in [1, 6, 8, 13, 22].into_iter().zip(hostile) {
        angles[slot] = x;
    }
    on_both_backends(|| {
        for m in 0..=angles.len() {
            let got = simd::sin_cos_sums(&angles[..m]);
            let want = simd::sin_cos_sums_scalar(&angles[..m]);
            assert_eq!(bits(&[got.0, got.1]), bits(&[want.0, want.1]), "m={m}");
            assert!(got.0.is_finite() && got.1.is_finite(), "m={m}");
        }
        // Reads so far away that their offsets leave the domain.
        let mut reads = offset_reads(11, 9);
        reads[2].0 = [1e7, 0.0, 0.0];
        reads[5].0 = [0.0, -4e9, 1e3];
        let got = simd::phase_offset_sums(&reads, |&r| r, CENTER, LAMBDA);
        let want = simd::phase_offset_sums_scalar(&reads, |&r| r, CENTER, LAMBDA);
        assert_eq!(bits(&[got.0, got.1]), bits(&[want.0, want.1]));
        assert!(got.0.is_finite() && got.1.is_finite());
        // Non-finite angles poison the sums instead of vanishing.
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut a = angles.clone();
            a[3] = bad;
            let (s, c) = simd::sin_cos_sums(&a);
            assert!(s.is_nan() && c.is_nan(), "{bad}");
        }
    });
}

/// Eleven angles whose sines are [`ORDER_PROBE`] rescaled: the `±1e16`
/// entries become `±1` (angles `±π/2`) and the others `v·2.21e-16`, about
/// one ULP of 1 (tiny angles, whose sine is the angle itself), so the
/// sums round the way the probe's do.
fn order_probe_angles() -> [f64; 11] {
    ORDER_PROBE.map(|v| {
        if v.abs() > 1e3 {
            std::f64::consts::FRAC_PI_2.copysign(v)
        } else {
            v * 2.21e-16
        }
    })
}

/// Both resultant entries sum in the documented lane order: rows 0–7
/// into lanes `i mod 4`, the lanes combined as `(l0 + l1) + (l2 + l3)`,
/// rows 8–10 after that, on every backend.
#[test]
fn resultant_sums_follow_the_documented_lane_order() {
    let angles = order_probe_angles();
    let sines = angles.map(|a| simd::sin_cos(a).0);
    let cosines = angles.map(|a| simd::sin_cos(a).1);
    let want = (lane_order_sum(&sines), lane_order_sum(&cosines));
    let r = sines;
    let l = [r[0] + r[4], r[1] + r[5], r[2] + r[6], r[3] + r[7]];
    let tail = |head: f64| head + r[8] + r[9] + r[10];
    let others = [
        ("left to right", r.iter().fold(0.0, |s, v| s + v)),
        ("lanes in sequence", tail(((l[0] + l[1]) + l[2]) + l[3])),
        ("lanes paired 0+2", tail((l[0] + l[2]) + (l[1] + l[3]))),
        (
            "tail first",
            (r[8] + r[9] + r[10]) + ((l[0] + l[1]) + (l[2] + l[3])),
        ),
    ];
    for (name, other) in others {
        assert_ne!(
            want.0.to_bits(),
            other.to_bits(),
            "the sines must tell the documented order from {name}"
        );
    }
    // Reads at the center with phase `aᵢ` have offset exactly `aᵢ`.
    let reads = angles.map(|a| (CENTER, a));
    on_both_backends(|| {
        let sums = simd::sin_cos_sums(&angles);
        assert_eq!(bits(&[sums.0, sums.1]), bits(&[want.0, want.1]), "angles");
        let sums = simd::phase_offset_sums(&reads, |&r| r, CENTER, LAMBDA);
        assert_eq!(bits(&[sums.0, sums.1]), bits(&[want.0, want.1]), "offsets");
    });
}

/// `simd::sin_cos` written out by hand with [`madd`] for the steps the
/// kernel fuses, `fuse = [shift, polynomials]`: the shift trick's
/// rounding of `x·2/π` to `n`, and the multiply-adds of the sine and
/// cosine polynomials (the sine's `r + (z·r)·(…)` included). The
/// three-part reduction, the cosine's final `w + ((1 − w − hz) + z·pc)`
/// and the quadrant select are the kernel's, step by step.
#[allow(clippy::excessive_precision)]
fn sin_cos_reference([shift, poly]: [bool; 2], x: f64) -> (f64, f64) {
    const PIO2_1: f64 = f64::from_bits(0x3FF9_21FB_5440_0000);
    const PIO2_2: f64 = f64::from_bits(0x3DD0_B461_1A60_0000);
    const PIO2_2T: f64 = f64::from_bits(0x3BA3_198A_2E03_7073);
    const SIN_C: [f64; 6] = [
        -1.666_666_666_666_663_243_48e-1,
        8.333_333_333_322_489_461_24e-3,
        -1.984_126_982_985_794_931_34e-4,
        2.755_731_370_707_006_767_89e-6,
        -2.505_076_025_340_686_341_95e-8,
        1.589_690_995_211_550_102_21e-10,
    ];
    const COS_C: [f64; 6] = [
        4.166_666_666_666_660_190_37e-2,
        -1.388_888_888_887_410_957_49e-3,
        2.480_158_728_947_672_941_78e-5,
        -2.755_731_435_139_066_330_35e-7,
        2.087_572_321_298_174_827_90e-9,
        -1.135_964_755_778_819_482_65e-11,
    ];
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let t = madd(shift, x, std::f64::consts::FRAC_2_PI, SHIFT);
    let n = t - SHIFT;
    let r = ((x - n * PIO2_1) - n * PIO2_2) - n * PIO2_2T;
    let z = r * r;
    // Horner from the highest coefficient down: c[0] + z·(c[1] + z·(…)).
    let horner = |c: &[f64]| {
        let (&top, rest) = c.split_last().unwrap();
        rest.iter().rev().fold(top, |p, &k| madd(poly, z, p, k))
    };
    let sin_r = madd(poly, z * r, madd(poly, z, horner(&SIN_C[1..]), SIN_C[0]), r);
    let pc = z * horner(&COS_C);
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos_r = w + (((1.0 - w) - hz) + z * pc);
    let q = t.to_bits();
    let (s, c) = if q & 1 == 0 {
        (sin_r, cos_r)
    } else {
        (cos_r, sin_r)
    };
    (
        f64::from_bits(s.to_bits() ^ ((q & 2) << 62)),
        f64::from_bits(c.to_bits() ^ ((q.wrapping_add(1) & 2) << 62)),
    )
}

/// The resultant's sine and cosine fuse exactly like `mul_add`: every
/// value of `simd::sin_cos` equals [`sin_cos_reference`], and
/// `simd::sin_cos_sums` and `simd::phase_offset_sums` equal the
/// reference values summed in the documented lane order, on both
/// backends. The eight whole-block angles make the sums differ when
/// either fused step alone is unfused; the three tail angles are 0, whose
/// sine and cosine are exact either way, so the vector twin's blocks
/// carry the whole difference.
#[test]
fn sin_cos_is_fused_like_mul_add() {
    let mut angles = [0.0; 11];
    angles[..8].copy_from_slice(&fill(245, 8, -100.0, 100.0));
    // 5π/4: `x·2/π` lies within an ulp of 2.5, where rounding the product
    // first and rounding it fused pick different quadrants.
    angles[0] = f64::from_bits(0x400F_6A7A_2955_385E);
    let sums = |fuse: [bool; 2]| {
        let values = angles.map(|a| sin_cos_reference(fuse, a));
        let sum = |f: fn(&(f64, f64)) -> f64| lane_order_sum(&values.each_ref().map(f));
        [sum(|v| v.0), sum(|v| v.1)].map(f64::to_bits)
    };
    let want = sums([true; 2]);
    for fuse in [[false, true], [true, false]] {
        assert_ne!(sums(fuse), want, "the sums must tell {fuse:?} from fused");
    }
    let reads = angles.map(|a| (CENTER, a));
    on_both_backends(|| {
        for &a in &angles {
            let (s, c) = simd::sin_cos(a);
            let (ws, wc) = sin_cos_reference([true; 2], a);
            assert_eq!(
                [s, c].map(f64::to_bits),
                [ws, wc].map(f64::to_bits),
                "{a:e}"
            );
        }
        let (s, c) = simd::sin_cos_sums(&angles);
        assert_eq!([s, c].map(f64::to_bits), want, "angles");
        let (s, c) = simd::phase_offset_sums(&reads, |&r| r, CENTER, LAMBDA);
        assert_eq!([s, c].map(f64::to_bits), want, "offsets");
    });
}
