//! Weighted normal-equation solver for families of related
//! least-squares problems.
//!
//! IRLS (paper Eq. 16) solves a sequence of weighted least-squares
//! problems that differ only in their weights. [`NormalEq`] stores the
//! rows, right-hand side and weights of `AᵀWA · x = AᵀWk`:
//!
//! - **Loading** — `load_with` lets a caller write a whole system
//!   straight into the row storage, and `set_system` bulk-loads a
//!   pre-assembled one;
//! - **Reweighting** — `set_weights` replaces the weight diagonal.
//!
//! Every solve path loads its whole system and reweights it; nothing
//! edits single rows. The rows are stored in blocks of four
//! ([`crate::simd::blocked_index`]): in each whole block, column 0 of
//! its four rows comes first, then column 1, and so on, and the
//! `m mod 4` tail rows stay row-major. One vector load is one column of
//! four rows, row `i` in lane `i mod 4`, which is the lane order of
//! every row sum, so the Gram and residual kernels read the storage as
//! it lies, with no transposes.
//!
//! The Gram matrix `AᵀWA` and `AᵀWk` are derived state: a load or a
//! reweight only writes storage and marks them stale, and the next solve
//! recomputes them from the stored rows in one fixed summation order
//! ([`crate::simd::gram_fixed`]'s four interleaved partial sums), in
//! `O(m·n²)` with no intermediate `m×n` factorization. IRLS changes
//! every weight on every reweight, so patching the sums would cost the
//! same pass over the rows.
//!
//! Solves go through the same Cholesky kernel as [`crate::Cholesky`]
//! (literally the same function), so the two routes cannot drift.
//!
//! **Accelerated IRLS:** [`solve_irls_normal`] treats one reweight as a
//! fixed-point map `x ↦ G(x)` (weights from the residuals at `x`, then the
//! weighted solve) and steps with depth-2 Anderson acceleration instead of
//! plain `x ← G(x)`. Plain IRLS shrinks `‖G(x) − x‖∞` by a roughly constant
//! ratio per reweight (about 0.5 on the LION systems, so ~17 reweights to
//! reach 1e-8); extrapolating over the last two steps reaches the same
//! fixed point in ~6. The stopping rule is unchanged: stop once
//! `‖G(xₖ) − xₖ‖∞ < tolerance` and return `G(xₖ)`.
//!
//! **Determinism contract:** a solve is a pure function of the stored
//! `(rows, rhs, weights)`. Two systems holding the same rows, right-hand
//! side and weights produce *bit-identical* Gram matrices, factors,
//! solutions and covariances, whatever sequence of earlier loads,
//! reweights and solves the buffers went through.
//!
//! Accuracy: solving via the normal equations squares the condition
//! number relative to QR on the `√wᵢ`-scaled rows ([`crate::lstsq::solve`]),
//! so solutions agree to roughly `κ(A)²·ε` relative error. For the
//! well-conditioned systems the LION model produces this is ≤ ~1e-9;
//! the proptests in `tests/proptests.rs` pin a 1e-6 parity tolerance
//! against QR for random systems with condition number below 1e3.

use crate::anderson::Anderson;
use crate::cholesky;
use crate::error::LinalgError;
use crate::lstsq::{IrlsConfig, WeightFunction};
use crate::simd;

/// The first `N` entries of a solution vector, as the fixed-width
/// kernels take them.
fn fixed<const N: usize>(x: &[f64]) -> &[f64; N] {
    x[..N].try_into().expect("solution length equals N")
}

/// Weighted normal equations `AᵀWA · x = AᵀWk` over stored rows.
///
/// All buffers are reused across loads, so a workspace-owned instance
/// performs zero heap allocations in steady state.
///
/// # Example
///
/// ```
/// use lion_linalg::NormalEq;
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// // Fit y = 2x + 1 from three points: rows [x, 1], right-hand side y.
/// let mut ne = NormalEq::new();
/// ne.set_system(2, &[0.0, 1.0, 1.0, 1.0, 2.0, 1.0], &[1.0, 3.0, 5.0]);
/// let sol = ne.solve()?;
/// assert!((sol[0] - 2.0).abs() < 1e-12 && (sol[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NormalEq {
    cols: usize,
    /// The `m × cols` design rows, in the blocked layout of
    /// [`crate::simd::blocked_index`].
    rows: Vec<f64>,
    /// Right-hand side, one entry per row.
    rhs: Vec<f64>,
    /// Current per-row weights (the `W` diagonal).
    weights: Vec<f64>,
    /// Flat row-major `cols × cols` Gram matrix `AᵀWA`; only the lower
    /// triangle is computed (the upper entries stay zero), matching
    /// what the Cholesky factorization reads.
    gram: Vec<f64>,
    /// `AᵀWk`.
    atk: Vec<f64>,
    /// Cholesky factor scratch (lower triangle valid after a solve).
    chol: Vec<f64>,
    /// Last solution.
    solution: Vec<f64>,
    /// Unit-vector scratch for covariance extraction.
    unit: Vec<f64>,
    /// Partial-sum scratch of the Gram rebuild beyond 4 columns.
    gram_lanes: Vec<f64>,
    /// When set, `gram`/`atk` do not reflect the stored rows, rhs and
    /// weights; the next solve rebuilds them.
    stale: bool,
}

impl NormalEq {
    /// An empty system.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a whole pre-assembled system in one call, reusing all
    /// buffers: every row of the flat row-major `rows` (length a multiple
    /// of `cols`) with its `rhs` entry, at unit weight. A copy into
    /// [`NormalEq::load_with`], blocked in place as it lands.
    ///
    /// # Panics
    ///
    /// Panics when `rows.len() != rhs.len() * cols`.
    pub fn set_system(&mut self, cols: usize, rows: &[f64], rhs: &[f64]) {
        assert_eq!(
            rows.len(),
            rhs.len() * cols,
            "flat row storage must be rhs.len() * cols"
        );
        self.load_with(cols, rhs.len(), |r, k| {
            r.copy_from_slice(rows);
            simd::block_rows(r, cols);
            k.copy_from_slice(rhs);
        });
    }

    /// Starts a fresh system of `m` rows and `cols` unknowns at unit
    /// weight, and hands `fill` its row storage (`m × cols`, in the
    /// blocked layout of [`crate::simd::blocked_index`], which
    /// [`crate::simd::radical_rows`] writes) and right-hand side (`m`) to
    /// write in place. `fill` must write every entry: the buffers hold
    /// whatever an earlier system left there. This is the batch entry
    /// point: the localizer assembles the radical-line rows straight into
    /// this storage, with no staging copy.
    pub fn load_with(&mut self, cols: usize, m: usize, fill: impl FnOnce(&mut [f64], &mut [f64])) {
        self.cols = cols;
        // No `clear` first: a resize to a length the buffer already has
        // writes nothing, and `fill` overwrites every entry.
        self.rows.resize(m * cols, 0.0);
        self.rhs.resize(m, 0.0);
        self.weights.clear();
        self.weights.resize(m, 1.0);
        self.stale = true;
        fill(&mut self.rows, &mut self.rhs);
    }

    /// Number of rows currently in the system.
    pub fn rows(&self) -> usize {
        self.rhs.len()
    }

    /// Number of unknowns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the system has no rows.
    pub fn is_empty(&self) -> bool {
        self.rhs.is_empty()
    }

    /// Current per-row weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The most recent solution (empty before the first solve).
    pub fn solution(&self) -> &[f64] {
        &self.solution
    }

    /// Replaces the weight diagonal.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] when `w.len()` differs from
    ///   the row count,
    /// - [`LinalgError::NotFinite`] when a weight is negative or
    ///   non-finite.
    pub fn set_weights(&mut self, w: &[f64]) -> Result<(), LinalgError> {
        let m = self.rhs.len();
        if w.len() != m {
            return Err(LinalgError::DimensionMismatch {
                operation: "normal-equation reweight",
                found: format!("{} weights for {m} rows", w.len()),
            });
        }
        if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err(LinalgError::NotFinite {
                operation: "normal-equation reweight (weights)",
            });
        }
        self.weights.clear();
        self.weights.extend_from_slice(w);
        self.stale = true;
        Ok(())
    }

    /// [`NormalEq::set_weights`] minus the validation passes, for
    /// in-crate callers whose weights are valid by construction (the
    /// IRLS loop's come out of a weight function that maps into
    /// `[0, 1]`). The caller must also have checked the length. Takes
    /// the vector by `&mut` so the stored weights can be swapped in
    /// instead of copied; on return `w` holds the *previous* weights.
    pub(crate) fn set_weights_trusted(&mut self, w: &mut Vec<f64>) {
        debug_assert_eq!(w.len(), self.rhs.len());
        debug_assert!(w.iter().all(|x| x.is_finite() && *x >= 0.0));
        std::mem::swap(&mut self.weights, w);
        self.stale = true;
    }

    /// Resets all weights to 1 (the IRLS starting point). Leaves the
    /// Gram matrix in sync when the weights were already uniform, as
    /// they are after a load.
    fn reset_weights_uniform(&mut self) {
        for w in &mut self.weights {
            if *w != 1.0 {
                *w = 1.0;
                self.stale = true;
            }
        }
    }

    /// Recomputes `AᵀWA` / `AᵀWk` from the stored rows.
    fn rebuild(&mut self) {
        self.gram.clear();
        self.gram.resize(self.cols * self.cols, 0.0);
        self.atk.clear();
        self.atk.resize(self.cols, 0.0);
        match self.cols {
            2 => self.rebuild_fixed::<2>(),
            3 => self.rebuild_fixed::<3>(),
            4 => self.rebuild_fixed::<4>(),
            _ => simd::gram_into(
                &self.rows,
                &self.rhs,
                &self.weights,
                self.cols,
                &mut self.gram_lanes,
                &mut self.gram,
                &mut self.atk,
            ),
        }
        self.stale = false;
    }

    /// Rebuild for the column counts the localizers actually use (2 for
    /// a collinear radical-line system, 3 for 2D, 4 for 3D):
    /// [`crate::simd::gram_fixed`] over the blocked rows with the sums
    /// held in registers, then a single store.
    /// [`crate::simd::gram_into`] sums in the same order at the other
    /// widths.
    fn rebuild_fixed<const N: usize>(&mut self) {
        let (gram, atk) = crate::simd::gram_fixed::<N>(&self.rows, &self.rhs, &self.weights);
        for r in 0..N {
            self.gram[r * N..r * N + r + 1].copy_from_slice(&gram[r][..=r]);
            self.atk[r] = atk[r];
        }
    }

    /// Rebuilds the Gram matrix when stale and Cholesky-factors it into
    /// `chol`.
    fn factor(&mut self) -> Result<(), LinalgError> {
        if self.stale {
            self.rebuild();
        }
        self.chol.clear();
        self.chol.extend_from_slice(&self.gram);
        cholesky::factor_in_place(&mut self.chol, self.cols)
    }

    /// Solves the current system, rebuilding the Gram matrix first if a
    /// load or a reweight left it stale. The returned slice aliases
    /// [`NormalEq::solution`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when the weighted Gram matrix
    /// is singular (fewer independent rows than unknowns, or all weights
    /// collapsed to zero).
    pub fn solve(&mut self) -> Result<&[f64], LinalgError> {
        self.factor()?;
        self.solution.clear();
        self.solution.extend_from_slice(&self.atk);
        cholesky::solve_in_place(&self.chol, self.cols, &mut self.solution);
        Ok(&self.solution)
    }

    /// Per-row residuals `rᵢ = aᵢ·x − kᵢ` into `out` (allocation-free
    /// once `out` has capacity).
    pub fn residuals_into(&self, x: &[f64], out: &mut Vec<f64>) {
        self.residuals_stats_into(x, out);
    }

    /// [`NormalEq::residuals_into`] fused with the `(Σr, Σr²)` that the
    /// Gaussian weight function consumes via
    /// [`WeightFunction::weights_into_with_stats`], summed in
    /// [`crate::simd::sum_sumsq`]'s interleaved order — one pass cheaper
    /// than computing the sums separately. The 2–4 column systems the
    /// localizers build run [`crate::simd::residuals_fixed`].
    pub fn residuals_stats_into(&self, x: &[f64], out: &mut Vec<f64>) -> (f64, f64) {
        // Every entry is overwritten below; in the IRLS loop `out` already
        // has this length, so the resize writes nothing.
        out.resize(self.rhs.len(), 0.0);
        match self.cols {
            2 => simd::residuals_fixed::<2>(&self.rows, &self.rhs, fixed(x), out),
            3 => simd::residuals_fixed::<3>(&self.rows, &self.rhs, fixed(x), out),
            4 => simd::residuals_fixed::<4>(&self.rows, &self.rhs, fixed(x), out),
            _ => {
                let (cols, m) = (self.cols, self.rhs.len());
                for (i, (&k, o)) in self.rhs.iter().zip(out.iter_mut()).enumerate() {
                    let a = |c: usize| self.rows[simd::blocked_index(i, c, cols, m)];
                    let dot: f64 = x[..cols].iter().enumerate().map(|(c, q)| a(c) * q).sum();
                    *o = dot - k;
                }
                simd::sum_sumsq(out)
            }
        }
    }

    /// Installs the final weights of the [`solve_irls_normal`] run that
    /// `scratch` served — the weights at the returned solution, which no
    /// solve has used yet — by swapping buffers instead of copying and
    /// re-validating them: they came out of a weight function, so they
    /// are finite and non-negative by construction. Afterwards
    /// [`NormalIrlsScratch::weights`] holds the weights of the run's last
    /// solve, and [`NormalEq::weights`] the final ones.
    ///
    /// # Errors
    ///
    /// [`LinalgError::DimensionMismatch`] when `scratch` holds a weight
    /// per row of some other system.
    pub fn adopt_irls_weights(
        &mut self,
        scratch: &mut NormalIrlsScratch,
    ) -> Result<(), LinalgError> {
        let m = self.rhs.len();
        if scratch.weights.len() != m {
            return Err(LinalgError::DimensionMismatch {
                operation: "normal-equation reweight",
                found: format!("{} weights for {m} rows", scratch.weights.len()),
            });
        }
        self.set_weights_trusted(&mut scratch.weights);
        Ok(())
    }

    /// Diagonal of `(AᵀWA)⁻¹` — the parameter covariance up to the
    /// residual variance factor — into `out`.
    ///
    /// # Errors
    ///
    /// Same as [`NormalEq::solve`].
    pub fn covariance_diag_into(&mut self, out: &mut Vec<f64>) -> Result<(), LinalgError> {
        self.factor()?;
        out.clear();
        for j in 0..self.cols {
            self.unit.clear();
            self.unit.resize(self.cols, 0.0);
            self.unit[j] = 1.0;
            cholesky::solve_in_place(&self.chol, self.cols, &mut self.unit);
            out.push(self.unit[j]);
        }
        Ok(())
    }
}

/// Reusable buffers for [`solve_irls_normal`].
#[derive(Debug, Clone, Default)]
pub struct NormalIrlsScratch {
    x: Vec<f64>,
    residuals: Vec<f64>,
    weights: Vec<f64>,
    anderson: Anderson,
}

impl NormalIrlsScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// The final per-row weights of the last run (what
    /// [`crate::IrlsReport::weights`] would hold), until
    /// [`NormalEq::adopt_irls_weights`] swaps them into the system.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The final per-row residuals of the last run.
    pub fn residuals(&self) -> &[f64] {
        &self.residuals
    }
}

/// Summary of a [`solve_irls_normal`] run; the solution itself stays in
/// [`NormalEq::solution`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalIrlsOutcome {
    /// Number of reweights performed: evaluations of the fixed-point map
    /// `G` (residuals → weights → weighted solve), accelerated steps
    /// included and the initial solve not counted. Matches
    /// [`crate::IrlsReport::iterations`], which runs the same steps.
    pub iterations: usize,
    /// Whether `‖G(x) − x‖∞` fell below the tolerance within
    /// `max_iterations` reweights.
    pub converged: bool,
    /// Plain mean of the final residuals (taken at the returned solution).
    pub mean_residual: f64,
    /// Weighted root-mean-square residual (same residuals, final weights):
    /// `√(weighted_sq_sum / weight_sum)`, or 0 when `weight_sum` is not
    /// positive.
    pub weighted_rms: f64,
    /// `Σw` over the final weights, summed in
    /// [`crate::simd::sum_sumsq`]'s lane order (together with
    /// `weighted_sq_sum`, by [`crate::simd::weighted_sums`]).
    pub weight_sum: f64,
    /// `Σw·r²` over the final weights and residuals, in the same order.
    /// With `weight_sum` this is what the σ̂ of a parameter covariance
    /// needs, so callers need not sum the rows again.
    pub weighted_sq_sum: f64,
}

/// IRLS over a [`NormalEq`] system.
///
/// Solves once with uniform weights for `x₀`, then iterates the reweighting
/// map `G(x)`: residuals at `x` → weights → Gram rebuild from the stored
/// rows → Cholesky solve. Each reweight `k`:
///
/// - computes `gₖ = G(xₖ)` and `fₖ = gₖ − xₖ`;
/// - stops when `‖fₖ‖∞ < tolerance` (the paper's "difference between the
///   last estimation and the current estimation"), or at
///   `max_iterations`, and returns `gₖ`: [`NormalEq::solution`] holds it,
///   and the final residuals, weights, `mean_residual` and `weighted_rms`
///   are taken at it;
/// - otherwise steps to `xₖ₊₁ = gₖ − ΔG·γ`, with `γ` minimizing
///   `‖fₖ − ΔF·γ‖₂` over the last two differences of the `f`s and `g`s
///   (depth-2 Anderson acceleration). The step is plain (`xₖ₊₁ = gₖ`)
///   when that system is singular, and the history restarts from the
///   newest difference when `‖f‖∞` grows.
///
/// Depth 2 because the LION systems (2–4 unknowns) converge slowly along
/// one or two directions only; a deeper history adds nearly parallel
/// columns, not speed. [`crate::lstsq::solve_irls`] takes the same steps
/// on a QR solve. The loop is allocation-free in steady state.
///
/// # Errors
///
/// Propagates [`NormalEq::solve`]/[`NormalEq::set_weights`] errors.
pub fn solve_irls_normal(
    ne: &mut NormalEq,
    config: &IrlsConfig,
    scratch: &mut NormalIrlsScratch,
) -> Result<NormalIrlsOutcome, LinalgError> {
    ne.reset_weights_uniform();
    let x0 = ne.solve()?;
    scratch.x.clear();
    scratch.x.extend_from_slice(x0);
    let (mut sum, mut sumsq) = ne.residuals_stats_into(&scratch.x, &mut scratch.residuals);
    config
        .weight_fn
        .weights_into_with_stats(&scratch.residuals, sum, sumsq, &mut scratch.weights);
    scratch.anderson.reset();
    let mut iterations = 0;
    let mut converged = matches!(config.weight_fn, WeightFunction::Uniform);
    if !converged {
        for _ in 0..config.max_iterations {
            iterations += 1;
            // Weight functions map into [0, 1] over as many entries as
            // there are rows, so the validating entry point is redundant
            // here. The swap leaves last iteration's weights in the
            // scratch buffer; they are overwritten below.
            ne.set_weights_trusted(&mut scratch.weights);
            ne.solve()?;
            let g = ne.solution();
            let step = g
                .iter()
                .zip(scratch.x.iter())
                .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
            converged = step < config.tolerance;
            // The returned estimate is g, so its residuals and weights
            // are the final ones; any other iterate only feeds the next
            // reweight.
            let at = if converged || iterations == config.max_iterations {
                g
            } else {
                scratch.anderson.step(&mut scratch.x, g);
                &scratch.x
            };
            (sum, sumsq) = ne.residuals_stats_into(at, &mut scratch.residuals);
            config.weight_fn.weights_into_with_stats(
                &scratch.residuals,
                sum,
                sumsq,
                &mut scratch.weights,
            );
            if converged {
                break;
            }
        }
    }
    // `sum` is the final residuals' Σr in `simd::sum_sumsq` order, the
    // same order `WeightFunction::weights_into` sums them in.
    let mean_residual = if scratch.residuals.is_empty() {
        0.0
    } else {
        sum / scratch.residuals.len() as f64
    };
    let (weight_sum, weighted_sq_sum) = simd::weighted_sums(&scratch.weights, &scratch.residuals);
    let weighted_rms = if weight_sum > 0.0 {
        (weighted_sq_sum / weight_sum).sqrt()
    } else {
        0.0
    };
    Ok(NormalIrlsOutcome {
        iterations,
        converged,
        mean_residual,
        weighted_rms,
        weight_sum,
        weighted_sq_sum,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::{self, IrlsConfig, WeightFunction};
    use crate::matrix::Matrix;
    use crate::vector::Vector;

    fn line_rows() -> Vec<([f64; 2], f64)> {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        let mut rows: Vec<([f64; 2], f64)> =
            xs.iter().map(|&x| ([x, 1.0], 2.0 * x + 1.0)).collect();
        rows[7].1 += 10.0; // outlier
        rows
    }

    fn build(rows: &[([f64; 2], f64)]) -> NormalEq {
        let flat: Vec<f64> = rows.iter().flat_map(|(a, _)| *a).collect();
        let rhs: Vec<f64> = rows.iter().map(|(_, k)| *k).collect();
        let mut ne = NormalEq::new();
        ne.set_system(2, &flat, &rhs);
        ne
    }

    /// The QR oracle: plain least squares on rows and rhs scaled by `√wᵢ`.
    fn qr_weighted(rows: &[([f64; 2], f64)], w: &[f64]) -> Vec<f64> {
        let a = Matrix::from_fn(rows.len(), 2, |r, c| rows[r].0[c] * w[r].sqrt());
        let k = Vector::from_fn(rows.len(), |r| rows[r].1 * w[r].sqrt());
        lstsq::solve(&a, &k).unwrap().into_inner()
    }

    #[test]
    fn plain_solve_matches_qr() {
        let rows = line_rows();
        let mut ne = build(&rows);
        let sol = ne.solve().unwrap().to_vec();
        let qr = qr_weighted(&rows, &[1.0; 8]);
        for (p, q) in sol.iter().zip(&qr) {
            assert!((p - q).abs() < 1e-9, "{sol:?} vs {qr:?}");
        }
    }

    #[test]
    fn reweight_matches_qr() {
        let rows = line_rows();
        let mut ne = build(&rows);
        let w = [1.0, 0.5, 2.0, 1.0, 0.1, 1.0, 3.0, 0.7];
        ne.set_weights(&w).unwrap();
        let sol = ne.solve().unwrap().to_vec();
        let qr = qr_weighted(&rows, &w);
        for (p, q) in sol.iter().zip(&qr) {
            assert!((p - q).abs() < 1e-9, "{sol:?} vs {qr:?}");
        }
    }

    #[test]
    fn irls_matches_qr_irls() {
        let rows = line_rows();
        let refs: Vec<&[f64]> = rows.iter().map(|(a, _)| a.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let k = Vector::from_slice(&rows.iter().map(|(_, k)| *k).collect::<Vec<_>>());
        let config = IrlsConfig::default();
        let report = lstsq::solve_irls(&a, &k, &config).unwrap();
        let mut ne = build(&rows);
        let mut scratch = NormalIrlsScratch::new();
        let outcome = solve_irls_normal(&mut ne, &config, &mut scratch).unwrap();
        assert_eq!(outcome.iterations, report.iterations);
        assert_eq!(outcome.converged, report.converged);
        for (p, q) in ne.solution().iter().zip(report.solution.as_slice()) {
            assert!(
                (p - q).abs() < 1e-7,
                "{:?} vs {:?}",
                ne.solution(),
                report.solution
            );
        }
        assert!((outcome.mean_residual - report.mean_residual).abs() < 1e-7);
        assert!((outcome.weighted_rms - report.weighted_rms).abs() < 1e-7);
    }

    #[test]
    fn adopting_weights_moves_the_final_weights_and_checks_the_row_count() {
        let rows = line_rows();
        let mut ne = build(&rows);
        let mut scratch = NormalIrlsScratch::new();
        solve_irls_normal(&mut ne, &IrlsConfig::default(), &mut scratch).unwrap();
        let final_weights = scratch.weights().to_vec();
        ne.adopt_irls_weights(&mut scratch).unwrap();
        assert_eq!(ne.weights(), final_weights.as_slice());

        let mut shorter = build(&rows[..5]);
        assert!(matches!(
            shorter.adopt_irls_weights(&mut scratch),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        assert_eq!(shorter.weights(), [1.0; 5].as_slice());
    }

    #[test]
    fn irls_uniform_converges_immediately() {
        let rows = line_rows();
        let mut ne = build(&rows);
        let config = IrlsConfig {
            weight_fn: WeightFunction::Uniform,
            ..IrlsConfig::default()
        };
        let outcome = solve_irls_normal(&mut ne, &config, &mut NormalIrlsScratch::new()).unwrap();
        assert_eq!(outcome.iterations, 0);
        assert!(outcome.converged);
    }

    #[test]
    fn covariance_diag_matches_explicit_inverse() {
        let rows = line_rows();
        let mut ne = build(&rows);
        let w = [1.0, 0.5, 2.0, 1.0, 0.1, 1.0, 3.0, 0.7];
        ne.set_weights(&w).unwrap();
        let mut diag = Vec::new();
        ne.covariance_diag_into(&mut diag).unwrap();
        let refs: Vec<&[f64]> = rows.iter().map(|(a, _)| a.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let gram = a.weighted_gram(&w).unwrap();
        let inv = crate::lu::Lu::decompose(&gram).unwrap().inverse().unwrap();
        for (j, d) in diag.iter().enumerate() {
            assert!((d - inv[(j, j)]).abs() < 1e-9, "{diag:?}");
        }
    }

    #[test]
    fn underdetermined_rejected() {
        let mut ne = NormalEq::new();
        ne.set_system(3, &[1.0, 0.0, 0.0], &[1.0]);
        assert_eq!(ne.solve().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn weight_validation_matches_weighted_ls() {
        let mut ne = build(&line_rows());
        assert!(matches!(
            ne.set_weights(&[1.0; 3]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
        let mut bad = [1.0; 8];
        bad[0] = -1.0;
        assert!(matches!(
            ne.set_weights(&bad),
            Err(LinalgError::NotFinite { .. })
        ));
        bad[0] = f64::NAN;
        assert!(matches!(
            ne.set_weights(&bad),
            Err(LinalgError::NotFinite { .. })
        ));
    }
}
