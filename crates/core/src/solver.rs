//! The solver seam: a common trait over position-estimation backends.
//!
//! The paper's linear localization model is one estimator among several
//! for phase-based RFID positioning: the variant-ML line of work solves
//! the same problem with a likelihood grid, and deployments want an
//! accuracy-vs-latency dial per workload. This module extracts that seam:
//!
//! - [`Solver`] — the object-safe, workspace-aware backend contract. A
//!   backend turns a prepared [`PhaseProfile`] into an [`Estimate`] using
//!   the caller's [`Workspace`] for scratch space and stage metrics.
//! - [`LinearSolver`] — the paper's pipeline (radical-line system, QR /
//!   incremental-normal-equation IRLS) behind the trait.
//! - [`GridSolver`] — a coarse-to-fine likelihood-grid backend in the
//!   variant-ML style: score candidate antenna positions by how well
//!   they explain the measured distance deltas, then refine the grid
//!   around the best cell.
//! - [`SolverKind`] — the validated configuration knob on
//!   [`LocalizerConfig`] that selects the backend for every entry point
//!   (the [`crate::Localizer`] methods, the adaptive sweeps, the
//!   engine's batch jobs and the streaming cadence path).
//!
//! # Grid scoring
//!
//! A candidate antenna position `a` predicts the distance delta of
//! sample `i` against the reference sample `r` as `|a−pᵢ| − |a−p_r|`;
//! the measured delta `δᵢ` comes from the unwrapped phases. The score is
//! the mean squared delta residual — the unknown phase ambiguity cancels
//! in the difference, so no `d_r` column is needed. Refinement shrinks
//! the search extent by [`GridConfig::shrink`] per level, re-centering on
//! the best candidate found so far; the carried best is only replaced by
//! a strictly better score, so refinement can never rank below the
//! coarse pass.
//!
//! # Determinism
//!
//! The grid search is a pure function of its inputs: candidates are
//! visited in a fixed order (descending z, then y, then x), replacement
//! requires a strictly better score, and exact ties fall to the earlier
//! candidate — or, when [`LocalizerConfig::side_hint`] is set, to the
//! candidate nearer the hint. Descending visit order makes the hint-free
//! tie preference (+z, then +y, then +x) line up with the linear
//! backend's canonical mirror choice. Solving the same cell on any
//! worker therefore yields bit-identical results.

use std::time::Instant;

use lion_geom::{Point3, Vec3};
use lion_linalg::{LevenbergMarquardt, Vector};

use crate::error::CoreError;
use crate::localizer::{prepare_profile_in, run_with_min_in, Estimate, LocalizerConfig, Prepared};
use crate::preprocess::PhaseProfile;
use crate::workspace::{elapsed_ns, Workspace};

/// Relative half-width of the score band treated as an exact tie by the
/// grid search (mirror-symmetric geometries produce bit-identical
/// scores; anything farther apart is a real ranking).
const GRID_TIE_EPS: f64 = 1e-12;

/// Radial-sweep schedule: each coarse beam candidate is rescanned at
/// `RADIAL_STEPS` range multipliers in `[RADIAL_MIN, RADIAL_MAX]` along
/// its ray from the scan centroid (see [`grid_search`]).
const RADIAL_STEPS: usize = 120;
const RADIAL_MIN: f64 = 0.05;
const RADIAL_MAX: f64 = 3.0;

/// Maximum bearing/range alternation passes per refinement level; each
/// pass travels at most one grid step along the range valley, so the cap
/// bounds work without cutting real descents short (they stop on the
/// first pass with no strict improvement).
const LEVEL_PASSES: usize = 8;

/// The target space a solve runs in: the one representation of the
/// 2D-or-3D choice, carried as a value by [`crate::Localizer`], the
/// stream configuration and the engine. The paper's linear model is the
/// same in both; the space only sets how many coordinate columns the
/// principal-component frame may span. 2D pins the estimate's `z` to the
/// mean sample height; 3D searches (or solves) all three coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveSpace {
    /// Horizontal-plane localization.
    #[default]
    TwoD,
    /// Full 3D localization.
    ThreeD,
}

impl SolveSpace {
    /// The minimum sample count either backend needs in this space.
    pub fn min_samples(self) -> usize {
        match self {
            SolveSpace::TwoD => 4,
            SolveSpace::ThreeD => 5,
        }
    }
}

/// A position-estimation backend: prepared phase profile in, estimate
/// out, with scratch buffers and stage metrics in the caller's
/// [`Workspace`].
///
/// The trait is object-safe — `&dyn Solver` works — and both shipped
/// backends are zero-sized or `Copy`, so dispatching statically via
/// [`SolverKind`] stays allocation-free.
///
/// Implementations read the *shared* estimation parameters from the
/// [`LocalizerConfig`] (`reference_index`, `side_hint`,
/// `rank_tolerance`); backend-specific knobs live on the backend itself
/// (e.g. [`GridConfig`]). The config's own [`LocalizerConfig::solver`]
/// field is ignored here — backend selection happens in the
/// [`crate::Localizer`] entry points, which is what keeps a
/// `LinearSolver` usable as a cross-check against a grid-configured
/// pipeline.
pub trait Solver {
    /// A short stable backend name (`"linear"`, `"grid"`), used in logs
    /// and benchmark schemas.
    fn name(&self) -> &'static str;

    /// Estimates from an already unwrapped and smoothed profile.
    ///
    /// # Errors
    ///
    /// See [`CoreError`]; backends share the measurement-count,
    /// reference-index, and trajectory-geometry validation of the linear
    /// pipeline, and may add their own failure modes
    /// ([`CoreError::GridExhausted`], [`CoreError::DegenerateLikelihood`]).
    fn solve_profile_in(
        &self,
        profile: &PhaseProfile,
        config: &LocalizerConfig,
        space: SolveSpace,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError>;

    /// Estimates from raw `(position, wrapped phase)` measurements:
    /// unwraps and smooths into the workspace-owned profile, then calls
    /// [`Solver::solve_profile_in`].
    ///
    /// # Errors
    ///
    /// Preprocessing errors ([`CoreError::NonFiniteMeasurement`], ...)
    /// plus everything [`Solver::solve_profile_in`] returns.
    fn solve_in(
        &self,
        measurements: &[(Point3, f64)],
        config: &LocalizerConfig,
        space: SolveSpace,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        let mut profile = std::mem::take(&mut ws.profile);
        let result = prepare_profile_in(measurements, config, &mut profile, ws)
            .and_then(|()| self.solve_profile_in(&profile, config, space, ws));
        ws.profile = profile;
        result
    }
}

/// Which backend a [`LocalizerConfig`] runs. Defaults to
/// [`SolverKind::Linear`], the paper's pipeline.
///
/// ```
/// use lion_core::{GridConfig, LocalizerConfig, SolverKind};
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let cfg = LocalizerConfig::builder()
///     .solver(SolverKind::Grid(GridConfig::default()))
///     .build()?;
/// assert_eq!(cfg.solver.label(), "grid");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[non_exhaustive]
pub enum SolverKind {
    /// The paper's linear radical-line model ([`LinearSolver`]).
    #[default]
    Linear,
    /// The coarse-to-fine likelihood grid ([`GridSolver`]).
    Grid(GridConfig),
}

impl SolverKind {
    /// The stable backend name this kind selects.
    pub fn label(&self) -> &'static str {
        match self {
            SolverKind::Linear => "linear",
            SolverKind::Grid(_) => "grid",
        }
    }

    /// Checks the kind's standalone invariants.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending grid
    /// parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            SolverKind::Linear => Ok(()),
            SolverKind::Grid(grid) => grid.validate(),
        }
    }
}

/// The refinement schedule of the likelihood grid.
///
/// Level `L` scans `cells` candidates per spanned axis across a half
/// extent of `half_extent · shrinkᴸ` meters, centered on the best
/// candidate so far (level 0 centers on the sample centroid). With the
/// defaults the final level resolves ≈ 5 mm over an initial ±3 m search
/// region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridConfig {
    /// Half-width of the coarse search region per axis, meters
    /// (default 3).
    pub half_extent: f64,
    /// Candidates per axis and level (default 11; odd keeps the grid
    /// symmetric around its center, which preserves exact mirror ties).
    pub cells: usize,
    /// Refinement levels including the coarse pass (default 8).
    pub levels: usize,
    /// Extent multiplier per level, in `(0, 1]` (default 0.5; must stay
    /// above `1 / (cells − 1)` for the next level to cover the current
    /// level's cell).
    pub shrink: f64,
    /// Coarse candidates carried into refinement (default 8). The delta
    /// likelihood surface has shallow far-field valleys alongside the
    /// true minimum; refining only the single best coarse cell can slide
    /// down the wrong one, so the top `beam` coarse cells each get the
    /// full refinement schedule and the best final score wins.
    pub beam: usize,
    /// Relative score contrast below which the coarse surface counts as
    /// degenerate ([`CoreError::DegenerateLikelihood`]); default 1e−12,
    /// which only an (essentially) flat surface can trip.
    pub min_contrast: f64,
}

impl Default for GridConfig {
    fn default() -> Self {
        GridConfig {
            half_extent: 3.0,
            cells: 11,
            levels: 8,
            shrink: 0.5,
            beam: 8,
            min_contrast: 1e-12,
        }
    }
}

impl GridConfig {
    /// Checks the schedule invariants: positive finite half extent, at
    /// least 3 cells per axis, at least 1 level, shrink in `(0, 1]`, and
    /// a finite non-negative contrast threshold.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.half_extent > 0.0 && self.half_extent.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "grid half_extent",
                found: format!("{}", self.half_extent),
            });
        }
        if self.cells < 3 {
            return Err(CoreError::InvalidConfig {
                parameter: "grid cells",
                found: format!("{}", self.cells),
            });
        }
        if self.levels == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "grid levels",
                found: "0".to_string(),
            });
        }
        if !(self.shrink > 0.0 && self.shrink <= 1.0) {
            return Err(CoreError::InvalidConfig {
                parameter: "grid shrink",
                found: format!("{}", self.shrink),
            });
        }
        if self.beam == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "grid beam",
                found: "0".to_string(),
            });
        }
        if !(self.min_contrast >= 0.0 && self.min_contrast.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "grid min_contrast",
                found: format!("{}", self.min_contrast),
            });
        }
        Ok(())
    }

    /// The candidate spacing of the final refinement level, meters — the
    /// resolution floor of the search.
    pub fn final_step(&self) -> f64 {
        let extent = self.half_extent * self.shrink.powi(self.levels as i32 - 1);
        2.0 * extent / (self.cells - 1) as f64
    }
}

/// The paper's linear pipeline behind the [`Solver`] trait: radical-line
/// system, (iteratively reweighted) least squares, lower-dimension
/// `d_r` recovery. This is the exact code path `Localizer::locate` has
/// always run — the trait impl is a thin adapter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinearSolver;

impl Solver for LinearSolver {
    fn name(&self) -> &'static str {
        "linear"
    }

    fn solve_profile_in(
        &self,
        profile: &PhaseProfile,
        config: &LocalizerConfig,
        space: SolveSpace,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        run_with_min_in(profile, config, space, space.min_samples(), ws)
    }
}

/// The coarse-to-fine likelihood-grid backend (see the module docs for
/// the scoring model and determinism rules).
///
/// Differences from [`LinearSolver`] worth knowing:
///
/// - `pair_strategy` and `weighting` are ignored — the grid scores every
///   sample directly, no pairing step;
/// - mirror-symmetric geometries (a linear 2D track, a planar 3D scan)
///   are resolved by searching the full space: the two mirrors score as
///   exact ties and `side_hint` (or the `+z`/`+y`/`+x` default) picks;
/// - [`Estimate::lower_dimension`] is always `false` (no `d_r` recovery
///   path exists) and [`Estimate::position_std`] is zero (the grid
///   carries no covariance);
/// - [`Estimate::mean_residual`] is the signed mean per-sample delta
///   residual at the optimum and [`Estimate::weighted_rms`] its RMS, so
///   the adaptive sweep's `|mean residual|` ranking still applies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GridSolver {
    config: GridConfig,
}

impl GridSolver {
    /// Creates a grid backend with the given refinement schedule.
    pub fn new(config: GridConfig) -> Self {
        GridSolver { config }
    }

    /// The refinement schedule in use.
    pub fn config(&self) -> &GridConfig {
        &self.config
    }

    /// [`Solver::solve_profile_in`] that additionally appends the carried
    /// best score after each refinement level to `level_scores` — the
    /// observable the refinement-monotonicity property tests check
    /// (scores never increase beyond tie tolerance level over level).
    ///
    /// # Errors
    ///
    /// See [`Solver::solve_profile_in`].
    pub fn solve_profile_traced(
        &self,
        profile: &PhaseProfile,
        config: &LocalizerConfig,
        space: SolveSpace,
        ws: &mut Workspace,
        level_scores: &mut Vec<f64>,
    ) -> Result<Estimate, CoreError> {
        solve_grid_profile(profile, config, space, &self.config, ws, Some(level_scores))
    }
}

impl Solver for GridSolver {
    fn name(&self) -> &'static str {
        "grid"
    }

    fn solve_profile_in(
        &self,
        profile: &PhaseProfile,
        config: &LocalizerConfig,
        space: SolveSpace,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        solve_grid_profile(profile, config, space, &self.config, ws, None)
    }
}

/// Routes a prepared profile to the backend `config.solver` selects —
/// the single dispatch point behind every [`crate::Localizer`] method.
pub(crate) fn dispatch_profile(
    profile: &PhaseProfile,
    config: &LocalizerConfig,
    space: SolveSpace,
    ws: &mut Workspace,
) -> Result<Estimate, CoreError> {
    match &config.solver {
        SolverKind::Linear => LinearSolver.solve_profile_in(profile, config, space, ws),
        SolverKind::Grid(grid) => {
            GridSolver::new(*grid).solve_profile_in(profile, config, space, ws)
        }
    }
}

/// The immutable inputs of one grid search.
struct GridProblem<'a> {
    positions: &'a [Point3],
    deltas: &'a [f64],
    reference: usize,
    /// Search-region center; its `z` is the fixed plane height in 2D.
    anchor: Point3,
    /// 2D mode: candidates keep `z = anchor.z`.
    planar: bool,
    side_hint: Option<Point3>,
}

impl GridProblem<'_> {
    fn sample_count(&self) -> usize {
        self.positions.len()
    }

    /// Mean squared delta residual of `cand` over every sample.
    fn score(&self, cand: Point3) -> f64 {
        let d_ref = cand.distance(self.positions[self.reference]);
        let mut sum = 0.0;
        for (p, &delta) in self.positions.iter().zip(self.deltas) {
            let r = delta - (cand.distance(*p) - d_ref);
            sum += r * r;
        }
        sum / self.sample_count() as f64
    }

    /// Signed mean delta residual at `cand` (the [`Estimate::mean_residual`]
    /// analog).
    fn mean_residual(&self, cand: Point3) -> f64 {
        let d_ref = cand.distance(self.positions[self.reference]);
        let mut sum = 0.0;
        for (p, &delta) in self.positions.iter().zip(self.deltas) {
            sum += delta - (cand.distance(*p) - d_ref);
        }
        sum / self.sample_count() as f64
    }
}

#[derive(Debug, Clone, Copy)]
struct GridBest {
    position: Point3,
    score: f64,
}

/// Whether `cand` replaces `best` under the deterministic ordering:
/// strictly better score wins; within the tie band the side hint (when
/// set) prefers the nearer candidate; otherwise the incumbent stays.
fn replaces(cand: &GridBest, best: &GridBest, hint: Option<Point3>) -> bool {
    let tie = GRID_TIE_EPS * (1.0 + best.score.min(cand.score).abs());
    if cand.score < best.score - tie {
        return true;
    }
    if cand.score > best.score + tie {
        return false;
    }
    match hint {
        Some(h) => cand.position.distance(h) < best.position.distance(h),
        None => false,
    }
}

/// Scans one grid level around `center`, feeding every finite candidate
/// to `visit`. Candidates are visited in descending z, then y, then x, so
/// among exact ties the first (most positive) candidate wins downstream.
fn scan_level(
    problem: &GridProblem<'_>,
    cfg: &GridConfig,
    center: Point3,
    extent: f64,
    evaluated: &mut usize,
    mut visit: impl FnMut(GridBest),
) {
    let step = 2.0 * extent / (cfg.cells - 1) as f64;
    let offset = |i: usize| -extent + i as f64 * step;
    let z_cells = if problem.planar { 1 } else { cfg.cells };
    for iz in (0..z_cells).rev() {
        let cz = if problem.planar {
            problem.anchor.z
        } else {
            center.z + offset(iz)
        };
        for iy in (0..cfg.cells).rev() {
            let cy = center.y + offset(iy);
            for ix in (0..cfg.cells).rev() {
                let position = Point3::new(center.x + offset(ix), cy, cz);
                let score = problem.score(position);
                if score.is_finite() {
                    *evaluated += 1;
                    visit(GridBest { position, score });
                }
            }
        }
    }
}

/// Whether `p` lies inside the configured search box around the anchor.
/// On heavy multipath the likelihood's far-field range valley can score
/// below the true basin, so every stage — radial sweeps and the final
/// polish included — must confine candidates to the region the caller
/// asked to search.
fn in_search_box(problem: &GridProblem<'_>, half_extent: f64, p: Point3) -> bool {
    let limit = half_extent + 1e-9;
    (p.x - problem.anchor.x).abs() <= limit
        && (p.y - problem.anchor.y).abs() <= limit
        && (problem.planar || (p.z - problem.anchor.z).abs() <= limit)
}

/// Walks `beam` along its ray from the search anchor, keeping any
/// strictly better range — the 1-D dual of [`scan_level`] that handles
/// the delta surface's shallow range valley.
fn radial_sweep(
    problem: &GridProblem<'_>,
    half_extent: f64,
    beam: &mut GridBest,
    evaluated: &mut usize,
) {
    let dir = beam.position - problem.anchor;
    let mut carried = *beam;
    for j in 0..RADIAL_STEPS {
        let t = RADIAL_MIN + j as f64 * (RADIAL_MAX - RADIAL_MIN) / (RADIAL_STEPS - 1) as f64;
        let position = problem.anchor + dir * t;
        if !in_search_box(problem, half_extent, position) {
            continue;
        }
        let score = problem.score(position);
        if !score.is_finite() {
            continue;
        }
        *evaluated += 1;
        let cand = GridBest { position, score };
        if replaces(&cand, &carried, problem.side_hint) {
            carried = cand;
        }
    }
    *beam = carried;
}

/// The coarse-to-fine search. Pure: identical inputs give bit-identical
/// output on any thread. The coarse level keeps its [`GridConfig::beam`]
/// best cells; each runs the full refinement schedule independently
/// (re-centering on its own best per level) and the best final score
/// wins — the beam is what keeps a shallow far-field valley from
/// capturing the search when the true minimum sits in a narrower basin.
/// `level_scores` (when set) receives the carried global best score
/// after each level.
///
/// # Errors
///
/// [`CoreError::GridExhausted`] when no candidate scored finitely, and
/// [`CoreError::DegenerateLikelihood`] when the coarse level's score
/// contrast falls below [`GridConfig::min_contrast`].
fn grid_search(
    problem: &GridProblem<'_>,
    cfg: &GridConfig,
    mut level_scores: Option<&mut Vec<f64>>,
) -> Result<GridBest, CoreError> {
    let mut evaluated = 0usize;
    // Coarse pass: rank the top `beam` cells (ascending score; among
    // equal scores the earlier candidate ranks first).
    let mut beams: Vec<GridBest> = Vec::with_capacity(cfg.beam);
    let mut worst = f64::NEG_INFINITY;
    scan_level(
        problem,
        cfg,
        problem.anchor,
        cfg.half_extent,
        &mut evaluated,
        |cand| {
            if cand.score > worst {
                worst = cand.score;
            }
            if beams.len() == cfg.beam && cand.score >= beams[cfg.beam - 1].score {
                return;
            }
            let at = beams.partition_point(|b| b.score <= cand.score);
            beams.insert(at, cand);
            beams.truncate(cfg.beam);
        },
    );
    if beams.is_empty() {
        return Err(CoreError::GridExhausted { evaluated });
    }
    // Contrast check on the coarse surface: a flat likelihood cannot
    // localize no matter how far refinement descends.
    let contrast = worst - beams[0].score;
    if contrast <= cfg.min_contrast * worst.abs().max(f64::MIN_POSITIVE) {
        return Err(CoreError::DegenerateLikelihood { contrast });
    }
    // Radial sweep: the delta surface's dominant degeneracy is range —
    // bearing from the scan centroid is sharp, range is a shallow valley
    // along the ray through the candidate (a coarse cell 2× too far out
    // scores almost as well as the true position). Walk each beam along
    // its own ray and keep any strictly better range before local
    // refinement, which cannot travel along a narrow curved valley on
    // its own.
    for beam in beams.iter_mut() {
        radial_sweep(problem, cfg.half_extent, beam, &mut evaluated);
    }
    if let Some(scores) = level_scores.as_deref_mut() {
        let global = beams.iter().map(|b| b.score).fold(f64::INFINITY, f64::min);
        scores.push(global);
    }
    // Refine each beam independently, re-centering on its own carried
    // best; the per-beam best only moves on a strictly better score, so
    // no beam (and hence the global best) ever regresses.
    for level in 1..cfg.levels {
        let extent = cfg.half_extent * cfg.shrink.powi(level as i32);
        for beam in beams.iter_mut() {
            // Alternate local (bearing) and radial (range) passes at this
            // resolution until the score stops strictly improving: one
            // pass can only crawl one grid step along the range valley,
            // but repeated re-centering follows it as far as it goes.
            for _ in 0..LEVEL_PASSES {
                let before = beam.score;
                let mut carried = *beam;
                scan_level(
                    problem,
                    cfg,
                    beam.position,
                    extent,
                    &mut evaluated,
                    |cand| {
                        if replaces(&cand, &carried, problem.side_hint) {
                            carried = cand;
                        }
                    },
                );
                *beam = carried;
                radial_sweep(problem, cfg.half_extent, beam, &mut evaluated);
                if beam.score >= before - GRID_TIE_EPS * (1.0 + before.abs()) {
                    break;
                }
            }
        }
        if let Some(scores) = level_scores.as_deref_mut() {
            let global = beams.iter().map(|b| b.score).fold(f64::INFINITY, f64::min);
            scores.push(global);
        }
    }
    let mut best = beams[0];
    for cand in &beams[1..] {
        if replaces(cand, &best, problem.side_hint) {
            best = *cand;
        }
    }
    Ok(polish(problem, cfg.half_extent, best))
}

/// Deterministic Levenberg–Marquardt polish of the grid winner inside
/// its basin: the grid localizes the right basin, LM converges to its
/// floor (the range valley is too shallow for pure lattice descent to
/// finish in a bounded level schedule). The polished point is kept only
/// when it strictly improves the score, so polish can never regress the
/// search. In planar mode only `x`/`y` are free; `z` stays the plane
/// height.
fn polish(problem: &GridProblem<'_>, half_extent: f64, best: GridBest) -> GridBest {
    let dims = if problem.planar { 2 } else { 3 };
    let x0 = [best.position.x, best.position.y, best.position.z];
    let n = problem.sample_count();
    let lm = LevenbergMarquardt::new();
    let fill = |x: &Vector, out: &mut [f64]| {
        let cand = Point3::new(x[0], x[1], if dims == 2 { problem.anchor.z } else { x[2] });
        let d_ref = cand.distance(problem.positions[problem.reference]);
        for (k, (p, &delta)) in problem.positions.iter().zip(problem.deltas).enumerate() {
            out[k] = delta - (cand.distance(*p) - d_ref);
        }
    };
    let Ok(report) = lm.minimize(&Vector::from_slice(&x0[..dims]), fill, n) else {
        return best;
    };
    let position = Point3::new(
        report.solution[0],
        report.solution[1],
        if dims == 2 {
            problem.anchor.z
        } else {
            report.solution[2]
        },
    );
    if !in_search_box(problem, half_extent, position) {
        return best;
    }
    let score = problem.score(position);
    if score.is_finite() && score < best.score {
        GridBest { position, score }
    } else {
        best
    }
}

/// Resolves the mirror ambiguity of a lower-dimension trajectory: a
/// sample subspace (line in 2D, plane in 3D) cannot distinguish a
/// position from its reflection across itself, and grid refinement
/// descends into whichever basin its lattice happens to land nearer.
/// Reflect the found optimum across the subspace and keep the side the
/// hint prefers — or, without a hint, the positive side of the
/// canonical normal, matching the linear backend's convention.
fn pick_mirror_side(
    position: Point3,
    centroid: Point3,
    normal: Vec3,
    side_hint: Option<Point3>,
) -> Point3 {
    let normal = crate::localizer::canonicalize(normal);
    let d = (position - centroid).dot(normal);
    let mirrored = position - normal * (2.0 * d);
    let keep_mirror = match side_hint {
        Some(h) => mirrored.distance(h) < position.distance(h),
        None => d < 0.0,
    };
    if keep_mirror {
        mirrored
    } else {
        position
    }
}

/// Builds the [`Estimate`] for a finished grid search.
fn grid_estimate(problem: &GridProblem<'_>, best: GridBest, levels: usize) -> Estimate {
    let reference_position = problem.positions[problem.reference];
    Estimate {
        position: best.position,
        reference_distance: best.position.distance(reference_position),
        reference_position,
        mean_residual: problem.mean_residual(best.position),
        weighted_rms: best.score.max(0.0).sqrt(),
        iterations: levels,
        equation_count: problem.sample_count(),
        lower_dimension: false,
        position_std: Vec3::new(0.0, 0.0, 0.0),
    }
}

/// The full-profile grid solve: validates like the linear path, anchors
/// the search on the sample centroid, and records solve metrics.
fn solve_grid_profile(
    profile: &PhaseProfile,
    config: &LocalizerConfig,
    space: SolveSpace,
    grid: &GridConfig,
    ws: &mut Workspace,
    level_scores: Option<&mut Vec<f64>>,
) -> Result<Estimate, CoreError> {
    grid.validate()?;
    // Same validation, reference and whole-trajectory degeneracy screen
    // as the linear path — a single straight line still cannot fix a 3D
    // position (the grid would land on an arbitrary point of the
    // ambiguity ring).
    let mut prepared = std::mem::take(&mut ws.prepared);
    let result = prepared
        .prepare(profile, config, space, space.min_samples())
        .and_then(|()| grid_prepared(profile, &prepared, config, space, grid, ws, level_scores));
    ws.prepared = prepared;
    result
}

fn grid_prepared(
    profile: &PhaseProfile,
    prepared: &Prepared,
    config: &LocalizerConfig,
    space: SolveSpace,
    grid: &GridConfig,
    ws: &mut Workspace,
    level_scores: Option<&mut Vec<f64>>,
) -> Result<Estimate, CoreError> {
    let frame = &prepared.frame;
    let _span = lion_obs::span!("lion.solve");
    let t = Instant::now();
    let problem = GridProblem {
        positions: profile.positions(),
        deltas: &prepared.deltas,
        reference: prepared.reference,
        anchor: frame.centroid,
        planar: space == SolveSpace::TwoD,
        side_hint: config.side_hint,
    };
    let result = grid_search(&problem, grid, level_scores).map(|mut best| {
        if frame.spanned < frame.dims {
            let resolved = pick_mirror_side(
                best.position,
                frame.centroid,
                frame.axes[frame.spanned],
                config.side_hint,
            );
            if resolved != best.position {
                best = GridBest {
                    position: resolved,
                    score: problem.score(resolved),
                };
            }
        }
        grid_estimate(&problem, best, grid.levels)
    });
    ws.metrics.solve_ns += elapsed_ns(t);
    ws.metrics.solves += 1;
    ws.metrics.equations += problem.sample_count() as u64;
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairStrategy;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(target: Point3, p: Point3) -> f64 {
        (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
    }

    fn circle_measurements(target: Point3, n: usize, radius: f64) -> Vec<(Point3, f64)> {
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / n as f64;
                let p = Point3::new(radius * a.cos(), radius * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect()
    }

    fn clean_config() -> LocalizerConfig {
        LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.15 },
            ..LocalizerConfig::default()
        }
    }

    #[test]
    fn grid_matches_linear_on_circular_scan_2d() {
        let target = Point3::new(1.0, 0.4, 0.0);
        let m = circle_measurements(target, 240, 0.3);
        let cfg = clean_config();
        let mut ws = Workspace::new();
        let linear = LinearSolver
            .solve_in(&m, &cfg, SolveSpace::TwoD, &mut ws)
            .unwrap();
        let grid = GridSolver::default()
            .solve_in(&m, &cfg, SolveSpace::TwoD, &mut ws)
            .unwrap();
        let step = GridConfig::default().final_step();
        assert!(
            grid.position.distance(linear.position) < step,
            "grid {:?} vs linear {:?}",
            grid.position,
            linear.position
        );
        assert!(grid.distance_error(target) < step);
        assert_eq!(grid.iterations, GridConfig::default().levels);
        assert_eq!(grid.equation_count, 240);
        assert!(!grid.lower_dimension);
    }

    #[test]
    fn grid_resolves_planar_circle_3d_by_hint() {
        // The linear 3D path needs the d_r recovery for this geometry;
        // the grid searches z directly and the hint picks the mirror.
        let target = Point3::new(0.2, 0.3, 0.7);
        let m = circle_measurements(target, 240, 0.4);
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
        let mut ws = Workspace::new();
        let est = GridSolver::default()
            .solve_in(&m, &cfg, SolveSpace::ThreeD, &mut ws)
            .unwrap();
        assert!(
            est.distance_error(target) < GridConfig::default().final_step(),
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn grid_without_hint_prefers_positive_mirror() {
        // Planar circle in z = 0, antenna above: +z and −z mirrors score
        // as exact ties; the hint-free default picks +z like the linear
        // backend's canonical normal.
        let target = Point3::new(0.2, 0.3, 0.7);
        let m = circle_measurements(target, 240, 0.4);
        let mut ws = Workspace::new();
        let est = GridSolver::default()
            .solve_in(&m, &clean_config(), SolveSpace::ThreeD, &mut ws)
            .unwrap();
        assert!(est.position.z > 0.0, "picked {:?}", est.position);
    }

    #[test]
    fn grid_is_deterministic_across_repeated_solves() {
        let target = Point3::new(0.8, 0.5, 0.0);
        let m = circle_measurements(target, 150, 0.3);
        let cfg = clean_config();
        let mut ws = Workspace::new();
        let a = GridSolver::default()
            .solve_in(&m, &cfg, SolveSpace::TwoD, &mut ws)
            .unwrap();
        let b = GridSolver::default()
            .solve_in(&m, &cfg, SolveSpace::TwoD, &mut Workspace::new())
            .unwrap();
        assert_eq!(a, b, "fresh vs reused workspace must be bit-identical");
    }

    #[test]
    fn traced_refinement_scores_never_increase() {
        let target = Point3::new(0.6, 0.9, 0.0);
        let m = circle_measurements(target, 120, 0.3);
        let cfg = clean_config();
        let mut ws = Workspace::new();
        let mut profile = PhaseProfile::from_wrapped(&m, cfg.wavelength).unwrap();
        profile.smooth(cfg.smoothing_window);
        let mut scores = Vec::new();
        GridSolver::default()
            .solve_profile_traced(&profile, &cfg, SolveSpace::TwoD, &mut ws, &mut scores)
            .unwrap();
        assert_eq!(scores.len(), GridConfig::default().levels);
        for w in scores.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-9) + 1e-18,
                "refinement regressed: {scores:?}"
            );
        }
    }

    #[test]
    fn flat_surface_is_degenerate_likelihood() {
        // Force the contrast gate with an absurd threshold: any real
        // surface now counts as flat.
        let m = circle_measurements(Point3::new(1.0, 0.0, 0.0), 100, 0.3);
        let solver = GridSolver::new(GridConfig {
            min_contrast: 1e12,
            ..GridConfig::default()
        });
        let err = solver
            .solve_in(&m, &clean_config(), SolveSpace::TwoD, &mut Workspace::new())
            .unwrap_err();
        assert!(matches!(err, CoreError::DegenerateLikelihood { .. }));
        assert_eq!(err.kind(), "degenerate_likelihood");
    }

    #[test]
    fn invalid_grid_config_rejected() {
        for bad in [
            GridConfig {
                half_extent: 0.0,
                ..GridConfig::default()
            },
            GridConfig {
                cells: 2,
                ..GridConfig::default()
            },
            GridConfig {
                levels: 0,
                ..GridConfig::default()
            },
            GridConfig {
                shrink: 1.5,
                ..GridConfig::default()
            },
            GridConfig {
                beam: 0,
                ..GridConfig::default()
            },
            GridConfig {
                min_contrast: -1.0,
                ..GridConfig::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} must be rejected");
            assert!(SolverKind::Grid(bad).validate().is_err());
        }
        assert!(SolverKind::Linear.validate().is_ok());
        assert!(GridConfig::default().validate().is_ok());
    }

    #[test]
    fn solver_trait_is_object_safe() {
        let backends: [&dyn Solver; 2] = [&LinearSolver, &GridSolver::default()];
        let names: Vec<&str> = backends.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["linear", "grid"]);
        let target = Point3::new(0.9, 0.3, 0.0);
        let m = circle_measurements(target, 150, 0.3);
        let mut ws = Workspace::new();
        for backend in backends {
            let est = backend
                .solve_in(&m, &clean_config(), SolveSpace::TwoD, &mut ws)
                .unwrap();
            assert!(est.distance_error(target) < 1e-2);
        }
    }

    #[test]
    fn grid_shares_linear_validation() {
        let cfg = clean_config();
        let solver = GridSolver::default();
        let too_few = circle_measurements(Point3::new(1.0, 0.0, 0.0), 3, 0.3);
        assert!(matches!(
            solver.solve_in(&too_few, &cfg, SolveSpace::TwoD, &mut Workspace::new()),
            Err(CoreError::TooFewMeasurements { .. })
        ));
        let coincident: Vec<(Point3, f64)> = (0..10).map(|_| (Point3::ORIGIN, 0.3)).collect();
        assert!(matches!(
            solver.solve_in(&coincident, &cfg, SolveSpace::TwoD, &mut Workspace::new()),
            Err(CoreError::DegenerateGeometry { .. })
        ));
        let mut bad_ref = cfg.clone();
        bad_ref.reference_index = Some(9_999);
        let m = circle_measurements(Point3::new(1.0, 0.0, 0.0), 100, 0.3);
        assert!(matches!(
            solver.solve_in(&m, &bad_ref, SolveSpace::TwoD, &mut Workspace::new()),
            Err(CoreError::InvalidConfig { .. })
        ));
        // Single straight line in 3D stays unsolvable through the grid.
        let line: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let p = Point3::new(i as f64 * 0.01, 0.0, 0.0);
                (p, phase_of(Point3::new(0.0, 1.0, 0.2), p))
            })
            .collect();
        assert!(matches!(
            solver.solve_in(&line, &cfg, SolveSpace::ThreeD, &mut Workspace::new()),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }
}
