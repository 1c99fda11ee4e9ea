//! Property-based tests for the linear-algebra kernel.
//!
//! These exercise the algebraic identities the LION solver relies on, over
//! randomized inputs: factorizations reconstruct their input, solvers
//! invert their forward maps, and circular statistics respect wrapping.

use proptest::prelude::*;

use lion_linalg::{
    lstsq, solve_irls_normal, stats, sym_eigen3, Cholesky, IrlsConfig, Lu, Matrix, NormalEq,
    NormalIrlsScratch, Qr, Vector,
};

/// Loads a matrix/rhs pair into a fresh normal-equation system.
fn normal_eq_from(m: &Matrix, b: &Vector) -> NormalEq {
    let mut ne = NormalEq::new();
    ne.set_system(m.cols(), m.as_slice(), b.as_slice());
    ne
}

/// The QR oracle for a weighted system: plain least squares on the rows
/// and rhs scaled by `√wᵢ`.
fn qr_weighted(m: &Matrix, b: &Vector, w: &[f64]) -> Vector {
    let scaled = Matrix::from_fn(m.rows(), m.cols(), |r, c| m[(r, c)] * w[r].sqrt());
    let rhs = Vector::from_fn(b.len(), |r| b[r] * w[r].sqrt());
    lstsq::solve(&scaled, &rhs).unwrap()
}

/// The 2-norm condition number `σ_max/σ_min` of a three-column matrix,
/// from the eigenvalues of its Gram matrix `AᵀA` (the squared singular
/// values); infinite when `AᵀA` is numerically singular.
fn condition_number(m: &Matrix) -> f64 {
    assert_eq!(m.cols(), 3, "three columns");
    let g = m.gram();
    let (vals, _) = sym_eigen3(&std::array::from_fn(|r| [0, 1, 2].map(|c| g[(r, c)])));
    if vals[2] > 0.0 {
        (vals[0] / vals[2]).sqrt()
    } else {
        f64::INFINITY
    }
}

/// Skips draws where the squared-condition-number error amplification of
/// the normal-equation route would exceed the parity tolerance.
fn well_conditioned(m: &Matrix) -> bool {
    condition_number(m) < 1e3
}

/// Strategy: a well-scaled `rows × cols` matrix with entries in [-10, 10].
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0_f64..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_row_major(rows, cols, data).expect("sized"))
}

fn vector_strategy(len: usize) -> impl Strategy<Value = Vector> {
    proptest::collection::vec(-10.0_f64..10.0, len).prop_map(Vector::from)
}

/// Makes a matrix comfortably nonsingular by boosting its diagonal.
fn diagonally_dominant(m: &Matrix) -> Matrix {
    let n = m.rows();
    let mut out = m.clone();
    for i in 0..n {
        let row_sum: f64 = (0..n).map(|j| out[(i, j)].abs()).sum();
        out[(i, i)] += row_sum + 1.0;
    }
    out
}

proptest! {
    #[test]
    fn lu_solve_inverts_forward_map(
        m in matrix_strategy(5, 5),
        x in vector_strategy(5),
    ) {
        let a = diagonally_dominant(&m);
        let b = a.mul_vector(&x).unwrap();
        let solved = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        for (p, q) in solved.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((p - q).abs() < 1e-7, "{p} vs {q}");
        }
    }

    #[test]
    fn lu_det_sign_flips_on_row_swap(m in matrix_strategy(4, 4)) {
        let a = diagonally_dominant(&m);
        let det_a = Lu::decompose(&a).unwrap().det();
        let mut b = a.clone();
        b.swap_rows(0, 1);
        let det_b = Lu::decompose(&b).unwrap().det();
        prop_assert!((det_a + det_b).abs() < 1e-6 * det_a.abs().max(1.0));
    }

    #[test]
    fn qr_reconstructs_input(m in matrix_strategy(7, 3)) {
        let qr = Qr::decompose(&m).unwrap();
        let back = qr.q().mul_matrix(&qr.r()).unwrap();
        prop_assert!(back.approx_eq(&m, 1e-8));
    }

    #[test]
    fn qr_q_is_orthonormal(m in matrix_strategy(6, 3)) {
        let qr = Qr::decompose(&m).unwrap();
        let q = qr.q();
        let gram = q.transpose().mul_matrix(&q).unwrap();
        // Columns may be degenerate only if the input was rank-deficient,
        // which has probability ~0 under this strategy.
        prop_assert!(gram.approx_eq(&Matrix::identity(3), 1e-7));
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns(
        m in matrix_strategy(8, 3),
        b in vector_strategy(8),
    ) {
        let qr = Qr::decompose(&m).unwrap();
        if qr.rank(1e-10) < 3 { return Ok(()); }
        let x = qr.solve_least_squares(&b).unwrap();
        let r = &m.mul_vector(&x).unwrap() - &b;
        let grad = m.transpose_mul_vector(&r).unwrap();
        prop_assert!(grad.norm_inf() < 1e-6, "gradient {grad:?}");
    }

    #[test]
    fn cholesky_solves_spd_system(
        m in matrix_strategy(4, 4),
        x in vector_strategy(4),
    ) {
        // AᵀA + I is symmetric positive definite.
        let spd = &m.gram() + &Matrix::identity(4);
        let b = spd.mul_vector(&x).unwrap();
        let solved = Cholesky::decompose(&spd).unwrap().solve(&b).unwrap();
        for (p, q) in solved.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn irls_recovers_exact_solution_without_noise(
        m in matrix_strategy(10, 3),
        x in vector_strategy(3),
    ) {
        let qr = Qr::decompose(&m).unwrap();
        if qr.rank(1e-8) < 3 { return Ok(()); }
        if condition_number(&m) > 1e5 { return Ok(()); }
        let b = m.mul_vector(&x).unwrap();
        let report = lstsq::solve_irls(&m, &b, &lion_linalg::IrlsConfig::default()).unwrap();
        for (p, q) in report.solution.as_slice().iter().zip(x.as_slice()) {
            prop_assert!((p - q).abs() < 1e-5, "{p} vs {q}");
        }
    }

    #[test]
    fn wrap_angle_is_idempotent_and_in_range(theta in -100.0_f64..100.0) {
        let w = stats::wrap_angle(theta);
        prop_assert!((0.0..std::f64::consts::TAU).contains(&w));
        prop_assert!((stats::wrap_angle(w) - w).abs() < 1e-12);
        // Wrapping preserves the angle modulo 2π.
        let diff = (theta - w) / std::f64::consts::TAU;
        prop_assert!((diff - diff.round()).abs() < 1e-9);
    }

    #[test]
    fn circular_diff_is_antisymmetric(a in 0.0_f64..7.0, b in 0.0_f64..7.0) {
        let d1 = stats::circular_diff(a, b);
        let d2 = stats::circular_diff(b, a);
        // Antisymmetric except at the branch point ±π.
        if d1.abs() < std::f64::consts::PI - 1e-9 {
            prop_assert!((d1 + d2).abs() < 1e-9);
        }
        prop_assert!(d1 <= std::f64::consts::PI + 1e-12);
        prop_assert!(d1 > -std::f64::consts::PI - 1e-12);
    }

    #[test]
    fn circular_mean_shifts_with_rotation(
        base in proptest::collection::vec(-0.5_f64..0.5, 3..20),
        shift in 0.0_f64..6.0,
    ) {
        // A tight cluster rotated by `shift` has its mean rotated by `shift`.
        let m0 = stats::circular_mean(&base).unwrap();
        let rotated: Vec<f64> = base.iter().map(|a| a + shift).collect();
        let m1 = stats::circular_mean(&rotated).unwrap();
        let d = stats::circular_diff(m1, m0 + shift);
        prop_assert!(d.abs() < 1e-9, "mean moved by {d}");
    }

    #[test]
    fn moving_average_preserves_mean_of_constant(
        value in -5.0_f64..5.0,
        len in 2_usize..40,
        window in 1_usize..10,
    ) {
        let v = vec![value; len];
        let s = stats::moving_average(&v, window);
        prop_assert_eq!(s.len(), len);
        for x in s {
            prop_assert!((x - value).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_stays_within_bounds(
        v in proptest::collection::vec(-10.0_f64..10.0, 1..50),
        window in 1_usize..12,
    ) {
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for x in stats::moving_average(&v, window) {
            prop_assert!(x >= lo - 1e-12 && x <= hi + 1e-12);
        }
    }

    #[test]
    fn running_stats_matches_batch(
        v in proptest::collection::vec(-100.0_f64..100.0, 1..60),
    ) {
        let mut rs = stats::RunningStats::new();
        rs.extend(v.iter().copied());
        let batch_mean = stats::mean(&v).unwrap();
        let batch_var = stats::variance(&v).unwrap();
        prop_assert!((rs.mean().unwrap() - batch_mean).abs() < 1e-8);
        prop_assert!((rs.variance().unwrap() - batch_var).abs() < 1e-6);
    }

    // Parity tolerance for NormalEq vs QR: the normal-equation route
    // squares the condition number, so for κ(A) < 1e3 (enforced by
    // `well_conditioned`) solutions agree to ~κ²·ε ≈ 1e-10 relative —
    // 1e-6 leaves two orders of headroom. Documented in DESIGN §11.
    #[test]
    fn normal_eq_matches_qr_on_weighted_systems(
        m in matrix_strategy(10, 3),
        b in vector_strategy(10),
        w in proptest::collection::vec(0.1_f64..5.0, 10),
    ) {
        if !well_conditioned(&m) { return Ok(()); }
        let x_qr = qr_weighted(&m, &b, &w);
        let mut ne = normal_eq_from(&m, &b);
        ne.set_weights(&w).unwrap();
        let x_ne = ne.solve().unwrap();
        for (p, q) in x_ne.iter().zip(x_qr.as_slice()) {
            prop_assert!((p - q).abs() < 1e-6 * (1.0 + q.abs()), "{p} vs {q}");
        }
    }

    #[test]
    fn normal_eq_weight_sequences_match_qr(
        m in matrix_strategy(10, 3),
        b in vector_strategy(10),
        seq in proptest::collection::vec(
            proptest::collection::vec(0.1_f64..5.0, 10), 1..6),
    ) {
        if !well_conditioned(&m) { return Ok(()); }
        // A sequence of reweights and solves must stay in parity with a
        // from-scratch weighted QR solve of the *final* weights.
        let mut ne = normal_eq_from(&m, &b);
        for w in &seq {
            ne.set_weights(w).unwrap();
            ne.solve().unwrap();
        }
        let last = seq.last().unwrap();
        let x_qr = qr_weighted(&m, &b, last);
        let x_ne = ne.solve().unwrap();
        for (p, q) in x_ne.iter().zip(x_qr.as_slice()) {
            prop_assert!((p - q).abs() < 1e-6 * (1.0 + q.abs()), "{p} vs {q}");
        }
    }

    // The NormalEq bit-identity gate: a solve is a pure function of the
    // stored rows, rhs and weights, so a system loaded into a reused
    // `NormalEq`, whose buffers hold whatever earlier systems of other
    // shapes, weights and IRLS runs left there, must solve `==` the same
    // system loaded into a fresh one: plain and reweighted solves,
    // covariances and whole IRLS runs alike. The row counts cover every
    // `m mod 4`, so each load has whole blocks and a row-major tail, and
    // 5 columns run the runtime-width `simd::gram_into` next to the
    // fixed-width kernels. The blocking itself is checked against the
    // plain row list: the residuals at `x = 0` are `−kᵢ` and at the unit
    // vector `e_c` are `a_ic − kᵢ`, exactly, since every other product
    // is an exact zero, so they read each stored entry back.
    #[test]
    fn normal_eq_reloads_equal_a_fresh_load(
        cols in 2_usize..6,
        pool in proptest::collection::vec(-10.0_f64..10.0, 26 * 5),
        pool_k in proptest::collection::vec(-10.0_f64..10.0, 26),
        loads in proptest::collection::vec((0_usize..14, 0_usize..8, 0.0_f64..1.0), 1..12),
    ) {
        let mut reused = NormalEq::new();
        let (mut reused_irls, mut fresh_irls) = (NormalIrlsScratch::new(), NormalIrlsScratch::new());
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut residuals = Vec::new();
        for &(extra, start, f) in &loads {
            let m = cols + extra;
            let rows = &pool[start * cols..(start + m) * cols];
            let rhs = &pool_k[start..start + m];
            reused.set_system(cols, rows, rhs);
            let mut fresh = NormalEq::new();
            fresh.set_system(cols, rows, rhs);
            prop_assert_eq!(reused.rows(), m);
            let mut x = vec![0.0; cols];
            reused.residuals_into(&x, &mut residuals);
            let negated: Vec<f64> = rhs.iter().map(|k| -k).collect();
            prop_assert_eq!(&residuals, &negated);
            for c in 0..cols {
                x.fill(0.0);
                x[c] = 1.0;
                reused.residuals_into(&x, &mut residuals);
                for (r, (&res, &k)) in residuals.iter().zip(rhs).enumerate() {
                    let entry = rows[r * cols + c] - k;
                    prop_assert!(res.to_bits() == entry.to_bits(), "entry ({}, {})", r, c);
                }
            }
            prop_assert_eq!(
                reused.solve().map(<[f64]>::to_vec),
                fresh.solve().map(<[f64]>::to_vec)
            );
            let w: Vec<f64> = (0..m)
                .map(|r| 0.1 + (r as f64 * 0.618 + f).fract() * 4.9)
                .collect();
            reused.set_weights(&w).unwrap();
            fresh.set_weights(&w).unwrap();
            prop_assert_eq!(
                reused.solve().map(<[f64]>::to_vec),
                fresh.solve().map(<[f64]>::to_vec)
            );
            prop_assert_eq!(
                reused.covariance_diag_into(&mut got),
                fresh.covariance_diag_into(&mut want)
            );
            prop_assert_eq!(&got, &want);
            // IRLS restarts from uniform weights whatever the system held:
            // the reweighted system runs it `==` a freshly loaded one.
            fresh.set_system(cols, rows, rhs);
            let config = IrlsConfig::default();
            let a = solve_irls_normal(&mut reused, &config, &mut reused_irls);
            let b = solve_irls_normal(&mut fresh, &config, &mut fresh_irls);
            prop_assert_eq!(a, b);
            prop_assert_eq!(reused.solution(), fresh.solution());
        }
    }

    #[test]
    fn polynomial_fit_interpolates_exact_data(
        c0 in -3.0_f64..3.0,
        c1 in -3.0_f64..3.0,
        c2 in -3.0_f64..3.0,
    ) {
        let xs: Vec<f64> = (0..12).map(|i| i as f64 * 0.25 - 1.5).collect();
        let ys: Vec<f64> = xs.iter().map(|x| c0 + c1 * x + c2 * x * x).collect();
        let p = lion_linalg::poly::Polynomial::fit(&xs, &ys, 2).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((p.eval(x) - y).abs() < 1e-7);
        }
    }
}
