//! Plain, weighted, and iteratively-reweighted least squares.
//!
//! This module implements the estimation machinery of the LION paper
//! (Sec. IV-B2): the optimal solution of the radical-line system is
//! `X* = (AᵀWA)⁻¹AᵀWK` (paper Eq. 16), with the weight of each equation
//! derived from its residual as `wᵢ = exp(−(rᵢ−μ)²/(2σ²))` (paper Eq. 15),
//! iterated until the estimate stabilizes.
//!
//! The LION pipeline runs that loop on the normal equations
//! ([`crate::solve_irls_normal`]) with the [`WeightFunction`] and
//! [`IrlsConfig`] defined here. The QR routes in this module
//! ([`solve`], [`solve_irls`]) are its
//! better-conditioned reference in tests and the solver of the baseline
//! methods.

use crate::anderson::Anderson;
use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::vector::Vector;

/// Weighting scheme applied to equation residuals between IRLS iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
#[derive(Default)]
pub enum WeightFunction {
    /// The paper's Gaussian-of-residual weight (Eq. 15):
    /// `wᵢ = exp(−(rᵢ−μ)²/(2σ²))` with `μ, σ` the mean/std of all residuals.
    #[default]
    GaussianResidual,
    /// Huber weights: `1` for `|r| ≤ delta`, `delta/|r|` beyond. A classical
    /// robust alternative kept for ablation studies.
    Huber {
        /// Transition point between quadratic and linear loss.
        delta: f64,
    },
    /// All weights equal to one — degrades IRLS to ordinary least squares.
    Uniform,
}

impl WeightFunction {
    /// Computes a weight per residual.
    pub fn weights(&self, residuals: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.weights_into(residuals, &mut out);
        out
    }

    /// Computes a weight per residual into `out`, reusing its allocation.
    ///
    /// Identical to [`WeightFunction::weights`] but allocation-free once
    /// `out` has grown to the batch size — the IRLS loop calls this once per
    /// iteration.
    pub fn weights_into(&self, residuals: &[f64], out: &mut Vec<f64>) {
        let (sum, sumsq) = crate::simd::sum_sumsq(residuals);
        self.weights_into_with_stats(residuals, sum, sumsq, out);
    }

    /// [`WeightFunction::weights_into`] for callers that already hold
    /// `Σr` and `Σr²` over `residuals`, summed in
    /// [`crate::simd::sum_sumsq`]'s order (e.g. fused into the residual
    /// computation itself, as [`crate::NormalEq::residuals_stats_into`]
    /// does) — the results are identical, one pass cheaper.
    pub fn weights_into_with_stats(
        &self,
        residuals: &[f64],
        sum: f64,
        sumsq: f64,
        out: &mut Vec<f64>,
    ) {
        match *self {
            WeightFunction::Uniform => {
                out.clear();
                out.resize(residuals.len(), 1.0);
            }
            WeightFunction::Huber { delta } => {
                out.clear();
                out.extend(residuals.iter().map(|r| {
                    let a = r.abs();
                    if a <= delta || a == 0.0 {
                        1.0
                    } else {
                        delta / a
                    }
                }));
            }
            WeightFunction::GaussianResidual => {
                // σ² = E[r²] − μ² from the fused sums, with a
                // non-negativity guard against cancellation.
                let n = residuals.len();
                let mu = if n == 0 { 0.0 } else { sum / n as f64 };
                let sigma2 = if n == 0 {
                    0.0
                } else {
                    (sumsq / n as f64 - mu * mu).max(0.0)
                };
                if sigma2 < MIN_SIGMA * MIN_SIGMA {
                    // Residuals are (numerically) identical: equations are
                    // equally reliable, weight them uniformly.
                    out.clear();
                    out.resize(n, 1.0);
                    return;
                }
                // Every entry is overwritten; in the IRLS loops `out`
                // already holds one weight per row, so this writes nothing.
                out.resize(n, 0.0);
                // One weight kernel, one tolerance: every IRLS path (QR
                // and normal-equation) derives its Gaussian weights
                // through `simd::gaussian_weights`, whose exponential's
                // accuracy contract (relative error below 7e-12 on the
                // reduced range) is documented once, at
                // `simd::exp_non_positive`. The division is hoisted out
                // of the row loop: z²/2 becomes a multiply by 1/(2σ²).
                crate::simd::gaussian_weights(residuals, mu, 0.5 / sigma2, out);
            }
        }
    }
}

/// Residual spread below which the Gaussian weight collapses to uniform.
const MIN_SIGMA: f64 = 1e-12;

/// Configuration for [`solve_irls`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrlsConfig {
    /// Maximum number of reweighting iterations (the first plain LS solve is
    /// not counted). The paper iterates "until the difference between the
    /// last estimation and the current estimation is less than the given
    /// threshold".
    pub max_iterations: usize,
    /// Convergence threshold on the reweighting step `‖G(xₖ) − xₖ‖∞`,
    /// where `G` reweights from the residuals at `xₖ` and re-solves.
    pub tolerance: f64,
    /// Weighting scheme.
    pub weight_fn: WeightFunction,
}

impl Default for IrlsConfig {
    fn default() -> Self {
        IrlsConfig {
            max_iterations: 20,
            tolerance: 1e-8,
            weight_fn: WeightFunction::GaussianResidual,
        }
    }
}

/// Result of an iteratively-reweighted least-squares run.
#[derive(Debug, Clone, PartialEq)]
pub struct IrlsReport {
    /// The final estimate `X*`.
    pub solution: Vector,
    /// Final per-equation weights.
    pub weights: Vec<f64>,
    /// Final per-equation residuals `rᵢ = Aᵢ·X* − kᵢ`.
    pub residuals: Vec<f64>,
    /// Number of reweighting iterations performed (weighted solves,
    /// accelerated steps included; the initial plain solve not counted).
    pub iterations: usize,
    /// Plain mean of the final residuals. The LION adaptive parameter
    /// selection picks the configuration whose mean residual is closest to
    /// zero (paper Sec. IV-C1, evaluated in Figs. 16–18).
    pub mean_residual: f64,
    /// Weighted root-mean-square residual.
    pub weighted_rms: f64,
    /// Whether the iteration converged before hitting `max_iterations`.
    pub converged: bool,
}

/// Solves `min ‖A·x − k‖₂` by Householder QR.
///
/// # Errors
///
/// Propagates [`Qr::decompose`]/[`Qr::solve_least_squares`] errors; in
/// particular [`LinalgError::RankDeficient`] signals the caller to use the
/// lower-dimension path.
pub fn solve(a: &Matrix, k: &Vector) -> Result<Vector, LinalgError> {
    Qr::decompose(a)?.solve_least_squares(k)
}

/// Solves `min Σ wᵢ·(Aᵢ·x − kᵢ)²` (paper Eq. 14/16) into caller-provided
/// buffers for the scaled system.
///
/// Scales each row by `√wᵢ` and solves by QR, which is algebraically
/// identical to `(AᵀWA)⁻¹AᵀWK` but better conditioned. `scaled`/`rhs`
/// are overwritten; [`solve_irls`] reuses them across its reweights
/// instead of cloning the design matrix each time.
///
/// # Errors
///
/// - [`LinalgError::DimensionMismatch`] when shapes disagree,
/// - [`LinalgError::NotFinite`] when a weight is negative or non-finite,
/// - factorization errors from [`Qr`].
fn solve_weighted_into(
    a: &Matrix,
    k: &Vector,
    weights: &[f64],
    scaled: &mut Matrix,
    rhs: &mut Vector,
) -> Result<Vector, LinalgError> {
    let (m, n) = a.shape();
    if k.len() != m || weights.len() != m {
        return Err(LinalgError::DimensionMismatch {
            operation: "weighted least squares",
            found: format!("{m}x{n} design, rhs {}, {} weights", k.len(), weights.len()),
        });
    }
    if weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
        return Err(LinalgError::NotFinite {
            operation: "weighted least squares (weights)",
        });
    }
    scaled.copy_from(a);
    rhs.copy_from(k);
    for r in 0..m {
        let s = weights[r].sqrt();
        for c in 0..n {
            scaled[(r, c)] *= s;
        }
        rhs[r] *= s;
    }
    Qr::decompose(scaled)?.solve_least_squares(rhs)
}

/// Computes the per-row residuals `rᵢ = Aᵢ·x − kᵢ`.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when shapes disagree.
pub fn residuals(a: &Matrix, k: &Vector, x: &Vector) -> Result<Vec<f64>, LinalgError> {
    let mut out = Vec::new();
    residuals_into(a, k, x, &mut out)?;
    Ok(out)
}

/// [`residuals`] into a caller-provided buffer, reusing its allocation.
///
/// Computes each row's dot product directly instead of materializing
/// `A·x` — this runs once per IRLS iteration, and the intermediate vector
/// used to be the loop's only unavoidable allocation. The per-row sum
/// folds left-to-right exactly like [`Matrix::mul_vector`], so results
/// are bit-identical to the old route.
///
/// # Errors
///
/// Returns [`LinalgError::DimensionMismatch`] when shapes disagree.
pub fn residuals_into(
    a: &Matrix,
    k: &Vector,
    x: &Vector,
    out: &mut Vec<f64>,
) -> Result<(), LinalgError> {
    let (m, n) = a.shape();
    if k.len() != m || x.len() != n {
        return Err(LinalgError::DimensionMismatch {
            operation: "residuals",
            found: format!("{m}x{n} design, rhs {}, x {}", k.len(), x.len()),
        });
    }
    out.clear();
    for r in 0..m {
        let dot: f64 = a.row(r).iter().zip(x.as_slice()).map(|(p, q)| p * q).sum();
        out.push(dot - k[r]);
    }
    Ok(())
}

/// Iteratively-reweighted least squares: the full LION estimation loop.
///
/// 1. Solve plain LS for an initial `X*` (paper Eq. 13).
/// 2. Compute residuals, derive weights (paper Eq. 15).
/// 3. Solve WLS (paper Eq. 16); repeat from 2 until the estimate moves less
///    than `config.tolerance` or `config.max_iterations` is reached.
///
/// Between reweights the next iterate is extrapolated from the last two
/// steps (depth-2 Anderson acceleration), exactly as
/// [`crate::solve_irls_normal`] does on the normal equations; this QR
/// route is its reference and takes the same steps. The returned
/// solution is the last weighted solve, with residuals and weights taken
/// at it.
///
/// # Errors
///
/// Propagates factorization errors; [`LinalgError::RankDeficient`] from the
/// initial solve indicates a lower-dimension geometry.
///
/// # Example
///
/// ```
/// use lion_linalg::{lstsq, IrlsConfig, Matrix, Vector};
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[1.0, -1.0]])?;
/// let k = Vector::from_slice(&[1.0, 2.0, 3.0, -1.0]);
/// let report = lstsq::solve_irls(&a, &k, &IrlsConfig::default())?;
/// assert!((report.solution[0] - 1.0).abs() < 1e-9);
/// assert!((report.solution[1] - 2.0).abs() < 1e-9);
/// assert!(report.converged);
/// # Ok(())
/// # }
/// ```
pub fn solve_irls(a: &Matrix, k: &Vector, config: &IrlsConfig) -> Result<IrlsReport, LinalgError> {
    let (mut scaled, mut rhs) = (Matrix::zeros(0, 0), Vector::zeros(0));
    let (mut weights, mut res) = (Vec::new(), Vec::new());
    let mut anderson = Anderson::default();
    let mut x = solve(a, k)?;
    residuals_into(a, k, &x, &mut res)?;
    config.weight_fn.weights_into(&res, &mut weights);
    let mut iterations = 0;
    let mut converged = matches!(config.weight_fn, WeightFunction::Uniform);
    if !converged {
        for _ in 0..config.max_iterations {
            iterations += 1;
            let g = solve_weighted_into(a, k, &weights, &mut scaled, &mut rhs)?;
            let step = g
                .as_slice()
                .iter()
                .zip(x.as_slice())
                .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
            converged = step < config.tolerance;
            if converged || iterations == config.max_iterations {
                x = g;
            } else {
                anderson.step(x.as_mut_slice(), g.as_slice());
            }
            residuals_into(a, k, &x, &mut res)?;
            config.weight_fn.weights_into(&res, &mut weights);
            if converged {
                break;
            }
        }
    }
    // Σr in `simd::sum_sumsq` order, like the normal-equation route's
    // mean residual.
    let mean_residual = if res.is_empty() {
        0.0
    } else {
        crate::simd::sum_sumsq(&res).0 / res.len() as f64
    };
    let wsum: f64 = weights.iter().sum();
    let weighted_rms = if wsum > 0.0 {
        (res.iter()
            .zip(weights.iter())
            .map(|(r, w)| w * r * r)
            .sum::<f64>()
            / wsum)
            .sqrt()
    } else {
        0.0
    };
    Ok(IrlsReport {
        solution: x,
        weights,
        residuals: res,
        iterations,
        mean_residual,
        weighted_rms,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_system() -> (Matrix, Vector) {
        // y = 2x + 1 with one gross outlier at the end.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let rows: Vec<Vec<f64>> = xs.iter().map(|&x| vec![x, 1.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let mut k: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        k[7] += 10.0; // outlier
        (a, Vector::from_slice(&k))
    }

    /// One weighted QR solve, as `solve_irls` runs it at each reweight.
    fn solve_weighted(a: &Matrix, k: &Vector, w: &[f64]) -> Result<Vector, LinalgError> {
        solve_weighted_into(a, k, w, &mut Matrix::zeros(0, 0), &mut Vector::zeros(0))
    }

    #[test]
    fn plain_ls_exact_on_clean_data() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]).unwrap();
        let k = Vector::from_slice(&[3.0, 4.0, 7.0]);
        let x = solve(&a, &k).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_ls_downweights_outlier() {
        let (a, k) = line_system();
        // Zero weight on the outlier row recovers the exact line.
        let mut w = vec![1.0; 8];
        w[7] = 0.0;
        let x = solve_weighted(&a, &k, &w).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-10);
        assert!((x[1] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn uniform_weights_match_plain_ls() {
        let (a, k) = line_system();
        let x_plain = solve(&a, &k).unwrap();
        let x_w = solve_weighted(&a, &k, &[1.0; 8]).unwrap();
        for (p, q) in x_plain.as_slice().iter().zip(x_w.as_slice()) {
            assert!((p - q).abs() < 1e-11);
        }
    }

    #[test]
    fn negative_weight_rejected() {
        let (a, k) = line_system();
        let mut w = vec![1.0; 8];
        w[0] = -1.0;
        assert!(matches!(
            solve_weighted(&a, &k, &w),
            Err(LinalgError::NotFinite { .. })
        ));
    }

    #[test]
    fn weight_length_checked() {
        let (a, k) = line_system();
        assert!(solve_weighted(&a, &k, &[1.0; 3]).is_err());
    }

    #[test]
    fn irls_beats_plain_ls_with_outlier() {
        let (a, k) = line_system();
        let plain = solve(&a, &k).unwrap();
        let irls = solve_irls(&a, &k, &IrlsConfig::default()).unwrap();
        let err = |x: &Vector| ((x[0] - 2.0).powi(2) + (x[1] - 1.0).powi(2)).sqrt();
        assert!(
            err(&irls.solution) < err(&plain),
            "irls {:?} should beat plain {:?}",
            irls.solution,
            plain
        );
        assert!(irls.iterations >= 1);
        // The outlier equation must have received the smallest weight.
        let min_idx = irls
            .weights
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(min_idx, 7);
    }

    #[test]
    fn irls_on_clean_data_converges_immediately() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]]).unwrap();
        let x_true = Vector::from_slice(&[1.5, -0.5]);
        let k = a.mul_vector(&x_true).unwrap();
        let report = solve_irls(&a, &k, &IrlsConfig::default()).unwrap();
        assert!(report.converged);
        for (p, q) in report.solution.as_slice().iter().zip(x_true.as_slice()) {
            assert!((p - q).abs() < 1e-10);
        }
        assert!(report.mean_residual.abs() < 1e-10);
        assert!(report.weighted_rms < 1e-10);
    }

    #[test]
    fn irls_uniform_equals_plain() {
        let (a, k) = line_system();
        let cfg = IrlsConfig {
            weight_fn: WeightFunction::Uniform,
            ..IrlsConfig::default()
        };
        let report = solve_irls(&a, &k, &cfg).unwrap();
        let plain = solve(&a, &k).unwrap();
        for (p, q) in report.solution.as_slice().iter().zip(plain.as_slice()) {
            assert!((p - q).abs() < 1e-12);
        }
        assert_eq!(report.iterations, 0);
        assert!(report.converged);
    }

    #[test]
    fn huber_weights_shape() {
        let w = WeightFunction::Huber { delta: 1.0 }.weights(&[0.5, -2.0, 0.0]);
        assert_eq!(w[0], 1.0);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert_eq!(w[2], 1.0);
    }

    #[test]
    fn gaussian_weights_uniform_when_residuals_identical() {
        let w = WeightFunction::GaussianResidual.weights(&[0.3, 0.3, 0.3]);
        assert_eq!(w, vec![1.0; 3]);
    }

    #[test]
    fn gaussian_weights_penalize_outlier() {
        let w = WeightFunction::GaussianResidual.weights(&[0.0, 0.1, -0.1, 5.0]);
        assert!(w[3] < w[0]);
        assert!(w[3] < w[1]);
        assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn residual_helper_checks_dims() {
        let a = Matrix::identity(2);
        assert!(residuals(&a, &Vector::zeros(2), &Vector::zeros(2)).is_ok());
        assert!(residuals(&a, &Vector::zeros(2), &Vector::zeros(3)).is_err());
    }

    #[test]
    fn exp_slice_matches_libm_exp() {
        // Dense sweep over the weight function's whole useful range plus
        // the clamp region; relative error must stay far below anything
        // a reliability weight can influence.
        let mut xs: Vec<f64> = (0..=200_000).map(|i| -i as f64 * 0.0004).collect();
        let want: Vec<f64> = xs.iter().map(|x| x.exp()).collect();
        crate::simd::exp_non_positive(&mut xs);
        for ((got, want), i) in xs.iter().zip(&want).zip(0..) {
            let rel = (got - want).abs() / want.max(f64::MIN_POSITIVE);
            assert!(
                rel < 1e-11,
                "exp({}) = {got}, libm {want}, rel {rel}",
                -i as f64 * 0.0004
            );
        }
        let mut edge = [0.0, -690.1, -1.0e4];
        crate::simd::exp_non_positive(&mut edge);
        assert_eq!(edge[0], 1.0);
        assert!(edge[1] > 0.0 && edge[1] < 1e-299);
        assert_eq!(edge[1], edge[2]);
    }

    #[test]
    fn gaussian_weights_match_explicit_formula() {
        let residuals = [0.3, -0.1, 0.05, 0.8, -0.4, 0.0];
        let mu: f64 = residuals.iter().sum::<f64>() / residuals.len() as f64;
        let sigma2 =
            residuals.iter().map(|r| (r - mu) * (r - mu)).sum::<f64>() / residuals.len() as f64;
        let w = WeightFunction::GaussianResidual.weights(&residuals);
        for (r, got) in residuals.iter().zip(&w) {
            let z2 = (r - mu) * (r - mu) / sigma2;
            assert!((got - (-0.5 * z2).exp()).abs() < 1e-9, "weight for r={r}");
        }
    }
}
