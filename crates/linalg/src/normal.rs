//! Incremental normal-equation solver for families of related
//! least-squares problems.
//!
//! IRLS (paper Eq. 16) solves a sequence of weighted least-squares
//! problems that differ only in their weights, and a sliding streaming
//! window re-solves a system that differs from the previous one by a few
//! rows at each end. [`NormalEq`] exploits both by maintaining the normal
//! equations `AᵀWA · x = AᵀWk` incrementally:
//!
//! - **Row accumulation** — `push_row` folds `wᵢ·aᵢaᵢᵀ` / `wᵢ·aᵢkᵢ` into
//!   the Gram matrix as rows arrive, so building costs `O(m·n²)` with no
//!   intermediate `m×n` factorization.
//! - **Rank-1 reweighting** — an IRLS weight change `wᵢ → wᵢ + Δwᵢ`
//!   shifts the Gram matrix by `Δwᵢ·aᵢaᵢᵀ`, an `O(n²)` update per changed
//!   row instead of an `O(m·n²)` rebuild. A full rebuild every
//!   `rebuild_every`-th reweight bounds floating-point drift.
//! - **Row edits** — `remove_rows_front` and `replace_row` downdate the
//!   rows a window slide retires or changes instead of starting over.
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
//! **Determinism contract:** `push_row` accumulates the Gram matrix in
//! push order, and [`NormalEq::rebuild`] re-accumulates in storage order
//! with identical arithmetic. A system built by pushing rows 0..m with
//! unit weights and a system rebuilt from the same stored rows therefore
//! produce *bit-identical* Gram matrices, factors, and solutions.
//!
//! Accuracy: solving via the normal equations squares the condition
//! number relative to the QR route ([`crate::lstsq::solve_weighted`]),
//! so solutions agree to roughly `κ(A)²·ε` relative error. For the
//! well-conditioned systems the LION model produces this is ≤ ~1e-9;
//! the proptests in `tests/proptests.rs` pin a 1e-6 parity tolerance
//! against QR for random systems with condition number below 1e3.

use crate::anderson::Anderson;
use crate::cholesky;
use crate::error::LinalgError;
use crate::lstsq::{IrlsConfig, WeightFunction};

/// Default reweight count between full Gram rebuilds.
const DEFAULT_REBUILD_EVERY: usize = 8;

/// Accumulates the lower triangle of `w·a·aᵀ` into `gram` and `w·a·k`
/// into `atk`.
///
/// Only the lower triangle is maintained: the Cholesky routines read
/// nothing above the diagonal, so the mirrored upper entries would be
/// dead work (upper storage stays at the zeros `begin` wrote). This is
/// the single accumulation kernel used by `push_row`, `rebuild`, rank-1
/// reweights (with `w = Δw`), and row removals (with `w = −wᵢ`) —
/// identical per-entry addition order everywhere is what makes fresh
/// builds and rebuilds bit-identical.
fn accumulate(gram: &mut [f64], atk: &mut [f64], cols: usize, a: &[f64], k: f64, w: f64) {
    for r in 0..cols {
        let wa = w * a[r];
        let row = &mut gram[r * cols..r * cols + r + 1];
        for (g, &ac) in row.iter_mut().zip(a) {
            *g += wa * ac;
        }
        atk[r] += wa * k;
    }
}

/// Bulk counterpart of [`accumulate`]: sums `Σ wᵢ·aᵢaᵢᵀ` (lower
/// triangle) and `Σ wᵢ·aᵢ·kᵢ` over every row with the accumulators held
/// in registers for the whole sweep, instead of a read-modify-write of
/// the Gram storage per row. `weights[i]` supplies the per-row factor —
/// the stored weight for rebuilds, the weight *delta* for reweights.
///
/// Each Gram entry sees the same terms added in the same (row) order as
/// repeated [`accumulate`] calls, so a bulk rebuild stays bit-identical
/// to an incremental row-at-a-time build of the same system. The actual
/// accumulation dispatches through [`crate::simd::gram_fixed`], whose
/// SIMD twins uphold the same per-entry order (one Gram entry per lane).
#[inline]
fn bulk_accumulate<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    weights: &[f64],
) -> ([[f64; N]; N], [f64; N]) {
    crate::simd::gram_fixed::<N>(rows, rhs, weights)
}

/// Fixed-width residual kernel `rᵢ = aᵢ·x − kᵢ` with fused `(Σr, Σr²)`
/// accumulation; same ascending-column summation (from 0) as the generic
/// path, so the values are bit-identical — the constant width just lets
/// the dot product unroll.
#[inline]
fn residuals_fixed<const N: usize>(
    rows: &[f64],
    rhs: &[f64],
    x: &[f64],
    out: &mut Vec<f64>,
) -> (f64, f64) {
    let x: &[f64; N] = x[..N].try_into().expect("solution length equals N");
    let mut sum = 0.0;
    let mut sumsq = 0.0;
    out.extend(rows.chunks_exact(N).zip(rhs).map(|(a, &k)| {
        let mut dot = 0.0;
        for c in 0..N {
            dot += a[c] * x[c];
        }
        let r = dot - k;
        sum += r;
        sumsq += r * r;
        r
    }));
    (sum, sumsq)
}

/// Incrementally maintained weighted normal equations `AᵀWA · x = AᵀWk`.
///
/// All buffers are reused across [`NormalEq::begin`] calls, so a
/// workspace-owned instance performs zero heap allocations in steady
/// state.
///
/// # Example
///
/// ```
/// use lion_linalg::NormalEq;
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// // Fit y = 2x + 1 from three points.
/// let mut ne = NormalEq::new();
/// ne.begin(2);
/// for (x, y) in [(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)] {
///     ne.push_row(&[x, 1.0], y);
/// }
/// let sol = ne.solve()?;
/// assert!((sol[0] - 2.0).abs() < 1e-12 && (sol[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NormalEq {
    cols: usize,
    /// Flat row-major `m × cols` copy of the design rows.
    rows: Vec<f64>,
    /// Right-hand side, one entry per row.
    rhs: Vec<f64>,
    /// Current per-row weights (the `W` diagonal).
    weights: Vec<f64>,
    /// Flat row-major `cols × cols` Gram matrix `AᵀWA`; only the lower
    /// triangle is maintained (the upper entries stay zero), matching
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
    /// Weight-delta scratch for bulk reweights.
    wdelta: Vec<f64>,
    /// When set, `gram`/`atk` do not reflect `rows` (a bulk load, or the
    /// drift budget ran out).
    dirty: bool,
    rebuild_every: usize,
    /// Rank-1 Gram edits (reweights, row removals/replacements) since the
    /// last full rebuild — the drift budget. `push_row` does not count:
    /// appending accumulates in storage order, so it is bit-identical to
    /// what a rebuild would produce and introduces no drift.
    updates_since_rebuild: usize,
}

impl NormalEq {
    /// An empty system with the default rebuild cadence.
    pub fn new() -> Self {
        Self::with_rebuild_every(DEFAULT_REBUILD_EVERY)
    }

    /// An empty system that fully rebuilds the Gram matrix on every
    /// `rebuild_every`-th reweight (clamped to at least 1; a value of 1
    /// rebuilds on every reweight, disabling rank-1 updates entirely).
    pub fn with_rebuild_every(rebuild_every: usize) -> Self {
        NormalEq {
            cols: 0,
            rows: Vec::new(),
            rhs: Vec::new(),
            weights: Vec::new(),
            gram: Vec::new(),
            atk: Vec::new(),
            chol: Vec::new(),
            solution: Vec::new(),
            unit: Vec::new(),
            wdelta: Vec::new(),
            dirty: false,
            rebuild_every: rebuild_every.max(1),
            updates_since_rebuild: 0,
        }
    }

    /// Starts a fresh system with `cols` unknowns, reusing all buffers.
    pub fn begin(&mut self, cols: usize) {
        self.cols = cols;
        self.rows.clear();
        self.rhs.clear();
        self.weights.clear();
        self.gram.clear();
        self.gram.resize(cols * cols, 0.0);
        self.atk.clear();
        self.atk.resize(cols, 0.0);
        self.dirty = false;
        self.updates_since_rebuild = 0;
    }

    /// Loads a whole pre-assembled system in one call: `begin(cols)`,
    /// then every row of the flat row-major `rows` (length a multiple of
    /// `cols`) with its `rhs` entry at unit weight. The Gram matrix is
    /// left dirty and rebuilt on the next solve — in storage order, which
    /// equals push order, so the result is bit-identical to pushing the
    /// rows one at a time (the determinism contract above).
    ///
    /// This is the batch entry point: the localizer assembles the
    /// radical-line system into its workspace matrix and bulk-loads it
    /// here instead of paying a per-row `push_row` accumulation that the
    /// first IRLS rebuild would redo anyway.
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
        self.begin(cols);
        self.rows.extend_from_slice(rows);
        self.rhs.extend_from_slice(rhs);
        self.weights.resize(rhs.len(), 1.0);
        self.dirty = true;
    }

    /// Counts `count` rank-1 Gram edits against the drift budget; once
    /// the budget is spent, marks the system dirty so the next solve (or
    /// reweight) performs a full rebuild. This is what bounds
    /// floating-point drift for callers that edit rows without ever
    /// reweighting (e.g. a uniform-weight streaming window).
    fn note_updates(&mut self, count: usize) {
        self.updates_since_rebuild = self.updates_since_rebuild.saturating_add(count);
        if self.updates_since_rebuild >= self.rebuild_every {
            self.dirty = true;
        }
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

    /// Borrows design row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of bounds.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.rows[i * self.cols..(i + 1) * self.cols]
    }

    /// Current per-row weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The most recent solution (empty before the first solve).
    pub fn solution(&self) -> &[f64] {
        &self.solution
    }

    /// Appends a row with unit weight, folding it into the Gram matrix.
    ///
    /// # Panics
    ///
    /// Panics when `a.len()` differs from the column count set by
    /// [`NormalEq::begin`].
    pub fn push_row(&mut self, a: &[f64], k: f64) {
        assert_eq!(a.len(), self.cols, "row length must equal column count");
        self.rows.extend_from_slice(a);
        self.rhs.push(k);
        self.weights.push(1.0);
        if !self.dirty {
            accumulate(&mut self.gram, &mut self.atk, self.cols, a, k, 1.0);
        }
    }

    /// Removes the first `count` rows in one batched front drain — the
    /// sliding-window case, where evicted reads retire the oldest
    /// equations. Each dropped row is rank-1 downdated (when in sync) and
    /// counted against the drift budget; the surviving rows then shift
    /// down with a single `memmove` instead of `count` of them.
    ///
    /// # Panics
    ///
    /// Panics when `count` exceeds the row count.
    pub fn remove_rows_front(&mut self, count: usize) {
        assert!(count <= self.rhs.len(), "front drain past the end");
        if count == 0 {
            return;
        }
        if !self.dirty {
            for at in 0..count {
                let start = at * self.cols;
                accumulate(
                    &mut self.gram,
                    &mut self.atk,
                    self.cols,
                    &self.rows[start..start + self.cols],
                    self.rhs[at],
                    -self.weights[at],
                );
            }
        }
        let old = self.rows.len();
        self.rows.copy_within(count * self.cols.., 0);
        self.rows.truncate(old - count * self.cols);
        self.rhs.drain(..count);
        self.weights.drain(..count);
        self.note_updates(count);
    }

    /// Replaces the row at `at` in place (resetting its weight to 1): a
    /// rank-1 downdate of the old equation plus a rank-1 update of the
    /// new one, with no row shuffling. This is the refresh primitive for
    /// equations whose underlying data changed (e.g. a smoothed phase
    /// near a window boundary) while their position in the system did
    /// not. Counts one edit against the drift budget.
    ///
    /// # Panics
    ///
    /// Panics when `a.len()` differs from the column count or `at` is out
    /// of bounds.
    pub fn replace_row(&mut self, at: usize, a: &[f64], k: f64) {
        assert_eq!(a.len(), self.cols, "row length must equal column count");
        assert!(at < self.rhs.len(), "replace position out of bounds");
        let start = at * self.cols;
        if !self.dirty {
            accumulate(
                &mut self.gram,
                &mut self.atk,
                self.cols,
                &self.rows[start..start + self.cols],
                self.rhs[at],
                -self.weights[at],
            );
            accumulate(&mut self.gram, &mut self.atk, self.cols, a, k, 1.0);
        }
        self.rows[start..start + self.cols].copy_from_slice(a);
        self.rhs[at] = k;
        self.weights[at] = 1.0;
        self.note_updates(1);
    }

    /// Replaces the weight diagonal.
    ///
    /// In-sync systems receive per-row rank-1 updates `Δwᵢ·aᵢaᵢᵀ`
    /// (skipping unchanged rows); every `rebuild_every`-th call — or any
    /// call on a dirty system — triggers a full rebuild instead, which
    /// bounds the accumulated floating-point drift of the updates.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] when `w.len()` differs from
    ///   the row count,
    /// - [`LinalgError::NotFinite`] when a weight is negative or
    ///   non-finite (matching [`crate::lstsq::solve_weighted`]).
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
        self.apply_weights(w);
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
        if self.dirty || self.updates_since_rebuild + 1 >= self.rebuild_every {
            std::mem::swap(&mut self.weights, w);
            self.rebuild();
            return;
        }
        self.updates_since_rebuild += 1;
        match self.cols {
            2 => self.reweight_fixed::<2>(w),
            3 => self.reweight_fixed::<3>(w),
            4 => self.reweight_fixed::<4>(w),
            _ => {
                self.reweight_generic(w);
                return;
            }
        }
        std::mem::swap(&mut self.weights, w);
    }

    fn apply_weights(&mut self, w: &[f64]) {
        if self.dirty || self.updates_since_rebuild + 1 >= self.rebuild_every {
            self.weights.clear();
            self.weights.extend_from_slice(w);
            self.rebuild();
            return;
        }
        self.updates_since_rebuild += 1;
        match self.cols {
            2 => {
                self.reweight_fixed::<2>(w);
                self.weights.clear();
                self.weights.extend_from_slice(w);
            }
            3 => {
                self.reweight_fixed::<3>(w);
                self.weights.clear();
                self.weights.extend_from_slice(w);
            }
            4 => {
                self.reweight_fixed::<4>(w);
                self.weights.clear();
                self.weights.extend_from_slice(w);
            }
            _ => self.reweight_generic(w),
        }
    }

    /// Per-row rank-1 reweight for arbitrary column counts, skipping
    /// unchanged rows; stores the new weights as it goes.
    fn reweight_generic(&mut self, w: &[f64]) {
        for (i, &wi) in w.iter().enumerate() {
            let dw = wi - self.weights[i];
            if dw != 0.0 {
                let start = i * self.cols;
                accumulate(
                    &mut self.gram,
                    &mut self.atk,
                    self.cols,
                    &self.rows[start..start + self.cols],
                    self.rhs[i],
                    dw,
                );
                self.weights[i] = wi;
            }
        }
    }

    /// Rank-1 reweight via [`bulk_accumulate`] over the weight deltas:
    /// one register-resident pass over the rows, then a single update of
    /// the Gram storage. IRLS changes every weight every iteration, so
    /// the per-row skip of the generic path buys nothing there. The
    /// caller stores the new weights afterwards (by copy or swap).
    fn reweight_fixed<const N: usize>(&mut self, w: &[f64]) {
        self.wdelta.clear();
        self.wdelta
            .extend(w.iter().zip(&self.weights).map(|(new, old)| new - old));
        let (dg, datk) = bulk_accumulate::<N>(&self.rows, &self.rhs, &self.wdelta);
        for r in 0..N {
            for (c, d) in dg[r][..=r].iter().enumerate() {
                self.gram[r * N + c] += d;
            }
            self.atk[r] += datk[r];
        }
    }

    /// Resets all weights to 1 (the IRLS starting point). A no-op when
    /// the weights are already uniform and the Gram matrix is in sync;
    /// otherwise rebuilds, so the resulting Gram matrix is bit-identical
    /// to a fresh unit-weight build of the same rows.
    pub fn reset_weights_uniform(&mut self) {
        if !self.dirty && self.weights.iter().all(|w| *w == 1.0) {
            return;
        }
        self.weights.iter_mut().for_each(|w| *w = 1.0);
        self.rebuild();
    }

    /// Recomputes `AᵀWA` / `AᵀWk` from the stored rows in storage order,
    /// clearing any drift from rank-1 updates and syncing after a bulk
    /// load.
    pub fn rebuild(&mut self) {
        self.gram.iter_mut().for_each(|g| *g = 0.0);
        self.atk.iter_mut().for_each(|g| *g = 0.0);
        match self.cols {
            2 => self.rebuild_fixed::<2>(),
            3 => self.rebuild_fixed::<3>(),
            4 => self.rebuild_fixed::<4>(),
            _ => {
                for i in 0..self.rhs.len() {
                    let start = i * self.cols;
                    accumulate(
                        &mut self.gram,
                        &mut self.atk,
                        self.cols,
                        &self.rows[start..start + self.cols],
                        self.rhs[i],
                        self.weights[i],
                    );
                }
            }
        }
        self.dirty = false;
        self.updates_since_rebuild = 0;
    }

    /// [`bulk_accumulate`]-backed rebuild for the column counts the
    /// localizers actually use (2 for a collinear radical-line system,
    /// 3 for 2D, 4 for 3D). Bit-identical to the generic row-at-a-time
    /// path.
    fn rebuild_fixed<const N: usize>(&mut self) {
        let (gram, atk) = bulk_accumulate::<N>(&self.rows, &self.rhs, &self.weights);
        for r in 0..N {
            for (c, &g) in gram[r][..=r].iter().enumerate() {
                self.gram[r * N + c] = g;
            }
            self.atk[r] = atk[r];
        }
    }

    /// Solves the current system, rebuilding first if the Gram matrix is
    /// out of sync with the stored rows. The returned slice aliases
    /// [`NormalEq::solution`].
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotPositiveDefinite`] when the weighted Gram matrix
    /// is singular (fewer independent rows than unknowns, or all weights
    /// collapsed to zero).
    pub fn solve(&mut self) -> Result<&[f64], LinalgError> {
        if self.dirty {
            self.rebuild();
        }
        self.chol.clear();
        self.chol.extend_from_slice(&self.gram);
        cholesky::factor_in_place(&mut self.chol, self.cols)?;
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

    /// [`NormalEq::residuals_into`] fused with a left-to-right `(Σr, Σr²)`
    /// accumulation — exactly what the Gaussian weight function consumes
    /// via [`WeightFunction::weights_into_with_stats`], one pass cheaper
    /// than computing the sums separately.
    pub fn residuals_stats_into(&self, x: &[f64], out: &mut Vec<f64>) -> (f64, f64) {
        out.clear();
        match self.cols {
            2 => residuals_fixed::<2>(&self.rows, &self.rhs, x, out),
            3 => residuals_fixed::<3>(&self.rows, &self.rhs, x, out),
            4 => residuals_fixed::<4>(&self.rows, &self.rhs, x, out),
            _ => {
                let mut sum = 0.0;
                let mut sumsq = 0.0;
                for i in 0..self.rhs.len() {
                    let start = i * self.cols;
                    let dot: f64 = self.rows[start..start + self.cols]
                        .iter()
                        .zip(x)
                        .map(|(p, q)| p * q)
                        .sum();
                    let r = dot - self.rhs[i];
                    sum += r;
                    sumsq += r * r;
                    out.push(r);
                }
                (sum, sumsq)
            }
        }
    }

    /// Diagonal of `(AᵀWA)⁻¹` — the parameter covariance up to the
    /// residual variance factor — into `out`.
    ///
    /// # Errors
    ///
    /// Same as [`NormalEq::solve`].
    pub fn covariance_diag_into(&mut self, out: &mut Vec<f64>) -> Result<(), LinalgError> {
        if self.dirty {
            self.rebuild();
        }
        self.chol.clear();
        self.chol.extend_from_slice(&self.gram);
        cholesky::factor_in_place(&mut self.chol, self.cols)?;
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

impl Default for NormalEq {
    fn default() -> Self {
        NormalEq::new()
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
    /// [`crate::IrlsReport::weights`] would hold).
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
    /// Weighted root-mean-square residual (same residuals, final weights).
    pub weighted_rms: f64,
}

/// IRLS over an incrementally maintained [`NormalEq`] system.
///
/// Solves once with uniform weights for `x₀`, then iterates the reweighting
/// map `G(x)`: residuals at `x` → weights → rank-1 (or rebuilt) Gram update
/// → Cholesky solve. Each reweight `k`:
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
    // `sum` was accumulated left-to-right over the final residuals, so
    // this is bit-identical to `stats::mean(&scratch.residuals)`.
    let mean_residual = if scratch.residuals.is_empty() {
        0.0
    } else {
        sum / scratch.residuals.len() as f64
    };
    let wsum: f64 = scratch.weights.iter().sum();
    let weighted_rms = if wsum > 0.0 {
        (scratch
            .residuals
            .iter()
            .zip(scratch.weights.iter())
            .map(|(r, w)| w * r * r)
            .sum::<f64>()
            / wsum)
            .sqrt()
    } else {
        0.0
    };
    Ok(NormalIrlsOutcome {
        iterations,
        converged,
        mean_residual,
        weighted_rms,
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
        let mut ne = NormalEq::new();
        ne.begin(2);
        for (a, k) in rows {
            ne.push_row(a, *k);
        }
        ne
    }

    fn qr_weighted(rows: &[([f64; 2], f64)], w: &[f64]) -> Vec<f64> {
        let refs: Vec<&[f64]> = rows.iter().map(|(a, _)| a.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let k = Vector::from_slice(&rows.iter().map(|(_, k)| *k).collect::<Vec<_>>());
        lstsq::solve_weighted(&a, &k, w).unwrap().into_inner()
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
    fn rank_one_updates_match_rebuild() {
        let rows = line_rows();
        // High cadence: every reweight below stays rank-1.
        let mut incremental = NormalEq::with_rebuild_every(100);
        incremental.begin(2);
        for (a, k) in &rows {
            incremental.push_row(a, *k);
        }
        // Cadence 1: every reweight is a full rebuild.
        let mut rebuilt = NormalEq::with_rebuild_every(1);
        rebuilt.begin(2);
        for (a, k) in &rows {
            rebuilt.push_row(a, *k);
        }
        let seqs: [[f64; 8]; 3] = [
            [1.0, 0.5, 2.0, 1.0, 0.1, 1.0, 3.0, 0.7],
            [0.2, 0.2, 0.2, 5.0, 1.0, 1.0, 1.0, 1.0],
            [1.0; 8],
        ];
        for w in &seqs {
            incremental.set_weights(w).unwrap();
            rebuilt.set_weights(w).unwrap();
            let a = incremental.solve().unwrap().to_vec();
            let b = rebuilt.solve().unwrap().to_vec();
            for (p, q) in a.iter().zip(&b) {
                assert!((p - q).abs() < 1e-9, "{a:?} vs {b:?}");
            }
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
        ne.begin(3);
        ne.push_row(&[1.0, 0.0, 0.0], 1.0);
        assert_eq!(ne.solve().unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn remove_rows_front_matches_suffix() {
        let rows = line_rows();
        let mut ne = build(&rows);
        ne.solve().unwrap();
        ne.remove_rows_front(3);
        assert_eq!(ne.rows(), 5);
        for (i, (a, _)) in rows[3..].iter().enumerate() {
            assert_eq!(ne.row(i), a.as_slice());
        }
        let sol = ne.solve().unwrap().to_vec();
        let qr = qr_weighted(&rows[3..], &[1.0; 5]);
        for (p, q) in sol.iter().zip(&qr) {
            assert!((p - q).abs() < 1e-9, "{sol:?} vs {qr:?}");
        }
        // Zero-count drain is a no-op.
        let before = ne.rows();
        ne.remove_rows_front(0);
        assert_eq!(ne.rows(), before);
    }

    #[test]
    fn replace_row_matches_fresh_build() {
        let rows = line_rows();
        let mut ne = build(&rows);
        ne.solve().unwrap();
        // Swap the outlier for its clean value, in place.
        let clean = ([7.0, 1.0], 15.0);
        ne.replace_row(7, &clean.0, clean.1);
        let sol = ne.solve().unwrap().to_vec();
        let mut fixed = rows.clone();
        fixed[7] = clean;
        let qr = qr_weighted(&fixed, &[1.0; 8]);
        for (p, q) in sol.iter().zip(&qr) {
            assert!((p - q).abs() < 1e-9, "{sol:?} vs {qr:?}");
        }
        assert_eq!(ne.row(7), clean.0.as_slice());
        // The clean line is recovered.
        assert!((sol[0] - 2.0).abs() < 1e-9 && (sol[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn row_edits_count_toward_rebuild_cadence() {
        // Every row edit ticks the drift budget, so a caller that only
        // edits rows (uniform weights, sliding window) cannot accumulate
        // unbounded rank-1 drift: crossing the budget forces a full
        // rebuild on the next solve.
        let rows = line_rows();
        let mut ne = NormalEq::with_rebuild_every(4);
        ne.begin(2);
        for (a, k) in &rows {
            ne.push_row(a, *k);
        }
        ne.solve().unwrap();
        // Three edits: under budget, still rank-1 (no rebuild yet).
        ne.replace_row(7, &rows[7].0, rows[7].1);
        ne.replace_row(0, &rows[0].0, rows[0].1);
        ne.remove_rows_front(1);
        assert!(!ne.dirty);
        ne.solve().unwrap();
        assert_eq!(ne.updates_since_rebuild, 3);
        // One more edit crosses the budget of 4: the next solve rebuilds.
        ne.remove_rows_front(1);
        assert!(ne.dirty);
        ne.solve().unwrap();
        assert_eq!(ne.updates_since_rebuild, 0);
        // The rebuild resets the budget: further under-budget edits stay
        // rank-1 again.
        ne.remove_rows_front(1);
        ne.solve().unwrap();
        assert!(!ne.dirty);
        assert_eq!(ne.updates_since_rebuild, 1);
        // And the answer matches a fresh build exactly (the integer line
        // data keeps every rank-1 edit exact).
        let mut fresh = build(&rows[3..]);
        assert_eq!(ne.solve().unwrap(), fresh.solve().unwrap());
    }

    #[test]
    fn row_edits_after_a_reweight_are_rebuilt_away() {
        // The streaming delta tick's shape: the previous tick's σ̂ step
        // left non-uniform weights, then the slide edits rows. The IRLS
        // restart (`reset_weights_uniform`) must rebuild from the stored
        // rows, so the rank-1 edits leave no trace: the solve equals a
        // fresh bulk load of the same rows bit for bit. Fractional data,
        // so a surviving rank-1 edit would show in the last bits.
        let row = |i: usize| {
            let t = i as f64 * 0.37;
            ([t.sin(), t.cos() * 1.3, 1.0], (t * 1.7).sin() + 0.1 * t)
        };
        let mut ne = NormalEq::new();
        ne.begin(3);
        let mut held: Vec<([f64; 3], f64)> = (0..12).map(row).collect();
        for (a, k) in &held {
            ne.push_row(a, *k);
        }
        ne.solve().unwrap();
        let w: Vec<f64> = (0..12).map(|i| 0.2 + 0.07 * i as f64).collect();
        ne.set_weights(&w).unwrap();
        ne.remove_rows_front(2);
        held.drain(..2);
        let fresh_row = row(40);
        ne.replace_row(4, &fresh_row.0, fresh_row.1);
        held[4] = fresh_row;
        for i in 12..15 {
            let (a, k) = row(i);
            ne.push_row(&a, k);
            held.push((a, k));
        }
        ne.reset_weights_uniform();
        let edited = ne.solve().unwrap().to_vec();
        let flat: Vec<f64> = held.iter().flat_map(|(a, _)| *a).collect();
        let rhs: Vec<f64> = held.iter().map(|(_, k)| *k).collect();
        let mut fresh = NormalEq::new();
        fresh.set_system(3, &flat, &rhs);
        assert_eq!(edited, fresh.solve().unwrap());
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
