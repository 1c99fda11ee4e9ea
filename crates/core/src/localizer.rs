//! The LION localizer: light-weight, robust position estimation from a
//! phase profile (paper Secs. III and IV-B).
//!
//! The pipeline is:
//!
//! 1. unwrap + smooth the phases ([`crate::preprocess::PhaseProfile`]),
//! 2. pick sample pairs ([`crate::pairs::PairStrategy`]),
//! 3. stack one radical-line/plane equation per pair
//!    ([`crate::model::build_system_soa`]),
//! 4. solve by (iteratively reweighted) least squares,
//! 5. if the trajectory spans fewer dimensions than the target space,
//!    recover the perpendicular coordinate from the reference distance
//!    `d_r` (paper Sec. III-C, Observation 2).

use lion_geom::{Point3, Vec3};
use lion_linalg::{IrlsConfig, NormalEq, NormalIrlsOutcome, NormalIrlsScratch, WeightFunction};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::pairs::{LineScratch, PairLanes, PairStrategy};
use crate::preprocess::{PhaseProfile, PositionLanes};
use crate::workspace::Workspace;

/// Which estimator solves the stacked linear system.
///
/// Both solve the normal equations `X* = (AᵀWA)⁻¹AᵀWK` (paper Eq. 16)
/// through one IRLS loop; ordinary least squares is the case `W = I`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Weighting {
    /// Ordinary least squares (paper Eq. 13): IRLS with
    /// [`WeightFunction::Uniform`], which stops after the first solve.
    LeastSquares,
    /// Iteratively reweighted least squares with the Gaussian-of-residual
    /// weight (paper Eqs. 14–16) — the paper's WLS.
    Weighted(IrlsConfig),
}

impl Default for Weighting {
    fn default() -> Self {
        Weighting::Weighted(IrlsConfig::default())
    }
}

impl Weighting {
    /// The IRLS configuration every solve path runs this estimator with.
    pub(crate) fn irls(&self) -> IrlsConfig {
        match self {
            Weighting::Weighted(cfg) => *cfg,
            Weighting::LeastSquares => IrlsConfig {
                weight_fn: WeightFunction::Uniform,
                ..IrlsConfig::default()
            },
        }
    }
}

/// Configuration of a [`Localizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct LocalizerConfig {
    /// Carrier wavelength in meters (default: the paper's 920.625 MHz →
    /// ≈ 0.3256 m).
    pub wavelength: f64,
    /// Moving-average window applied to the unwrapped phases (samples);
    /// 0 or 1 disables smoothing. Default 9.
    pub smoothing_window: usize,
    /// Pair selection strategy. Default: sliding pairs 0.2 m apart.
    pub pair_strategy: PairStrategy,
    /// Estimator. Default: the paper's weighted least squares.
    pub weighting: Weighting,
    /// Reference sample index for the distance differences; default
    /// (`None`) uses the middle sample.
    pub reference_index: Option<usize>,
    /// Approximate target position used to disambiguate the mirror
    /// solution on lower-dimension trajectories. The natural choice is the
    /// antenna's manually measured physical center. Without a hint the
    /// positive side of the canonical trajectory normal is chosen.
    pub side_hint: Option<Point3>,
    /// Relative singular-value threshold below which a trajectory
    /// direction counts as unspanned (triggers the lower-dimension path).
    /// Default 0.05.
    pub rank_tolerance: f64,
}

impl Default for LocalizerConfig {
    fn default() -> Self {
        LocalizerConfig {
            wavelength: 299_792_458.0 / 920.625e6,
            smoothing_window: 9,
            pair_strategy: PairStrategy::default(),
            weighting: Weighting::default(),
            reference_index: None,
            side_hint: None,
            rank_tolerance: 0.05,
        }
    }
}

impl LocalizerConfig {
    /// The paper's configuration: 920.625 MHz carrier, window-9 smoothing,
    /// 0.2 m sliding pairs, Gaussian-residual IRLS. Identical to
    /// [`LocalizerConfig::default`], named for discoverability.
    pub fn paper() -> Self {
        LocalizerConfig::default()
    }

    /// Starts a validating builder seeded with the paper's configuration.
    ///
    /// # Example
    ///
    /// ```
    /// use lion_core::LocalizerConfig;
    ///
    /// # fn main() -> Result<(), lion_core::CoreError> {
    /// let cfg = LocalizerConfig::builder()
    ///     .smoothing_window(5)
    ///     .rank_tolerance(0.02)
    ///     .build()?;
    /// assert_eq!(cfg.smoothing_window, 5);
    /// assert!(LocalizerConfig::builder().wavelength(-1.0).build().is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> LocalizerConfigBuilder {
        LocalizerConfigBuilder {
            config: LocalizerConfig::default(),
        }
    }

    /// Checks the configuration's standalone invariants (those that do not
    /// depend on the measurement count).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.wavelength > 0.0 && self.wavelength.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "wavelength",
                found: format!("{}", self.wavelength),
            });
        }
        if self.smoothing_window == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "smoothing_window",
                found: "0".to_string(),
            });
        }
        if !(self.rank_tolerance > 0.0 && self.rank_tolerance < 1.0) {
            return Err(CoreError::InvalidConfig {
                parameter: "rank_tolerance",
                found: format!("{}", self.rank_tolerance),
            });
        }
        let interval = self.pair_strategy.interval();
        if !(interval > 0.0 && interval.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "pair interval",
                found: format!("{interval}"),
            });
        }
        if let Weighting::Weighted(irls) = &self.weighting {
            // A NaN or non-positive tolerance would run every solve to
            // the iteration cap, a bad Huber delta would yield NaN weights.
            if !(irls.tolerance > 0.0 && irls.tolerance.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    parameter: "irls tolerance",
                    found: format!("{}", irls.tolerance),
                });
            }
            if let WeightFunction::Huber { delta } = irls.weight_fn {
                if !(delta > 0.0 && delta.is_finite()) {
                    return Err(CoreError::InvalidConfig {
                        parameter: "huber delta",
                        found: format!("{delta}"),
                    });
                }
            }
        }
        validate_side_hint(self.side_hint)
    }
}

/// Rejects a side hint with a NaN or infinite coordinate: the mirror
/// choice compares distances to it, and a non-finite distance would
/// silently pick the wrong side.
pub(crate) fn validate_side_hint(hint: Option<Point3>) -> Result<(), CoreError> {
    match hint {
        Some(h) if !h.is_finite() => Err(CoreError::InvalidConfig {
            parameter: "side_hint",
            found: format!("{h:?}"),
        }),
        _ => Ok(()),
    }
}

/// Validating builder for [`LocalizerConfig`], in the style of
/// `Antenna::builder`. Created by [`LocalizerConfig::builder`]; plain
/// struct-literal construction keeps working for callers that prefer it.
#[derive(Debug, Clone)]
pub struct LocalizerConfigBuilder {
    config: LocalizerConfig,
}

impl LocalizerConfigBuilder {
    /// Sets the carrier wavelength in meters.
    pub fn wavelength(mut self, wavelength: f64) -> Self {
        self.config.wavelength = wavelength;
        self
    }

    /// Sets the moving-average smoothing window (samples, must be ≥ 1;
    /// 1 disables smoothing).
    pub fn smoothing_window(mut self, window: usize) -> Self {
        self.config.smoothing_window = window;
        self
    }

    /// Sets the pair-selection strategy.
    pub fn pair_strategy(mut self, strategy: PairStrategy) -> Self {
        self.config.pair_strategy = strategy;
        self
    }

    /// Sets the estimator (plain vs iteratively-reweighted least squares).
    pub fn weighting(mut self, weighting: Weighting) -> Self {
        self.config.weighting = weighting;
        self
    }

    /// Pins the reference sample index (default: the middle sample).
    pub fn reference_index(mut self, index: usize) -> Self {
        self.config.reference_index = Some(index);
        self
    }

    /// Sets the mirror-disambiguation hint for lower-dimension
    /// trajectories.
    pub fn side_hint(mut self, hint: Point3) -> Self {
        self.config.side_hint = Some(hint);
        self
    }

    /// Sets the relative singular-value threshold for the
    /// lower-dimension path (must lie in `(0, 1)`).
    pub fn rank_tolerance(mut self, tolerance: f64) -> Self {
        self.config.rank_tolerance = tolerance;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a non-positive or
    /// non-finite wavelength, a zero smoothing window, a rank tolerance
    /// outside `(0, 1)`, a non-positive pair interval, or a non-finite
    /// side hint.
    pub fn build(self) -> Result<LocalizerConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The result of one localization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Estimate {
    /// Estimated target position. For 2D localization, `z` is the mean
    /// height of the tag samples.
    pub position: Point3,
    /// Estimated reference distance `d_r` (meters).
    pub reference_distance: f64,
    /// The reference tag position the distances were measured against.
    pub reference_position: Point3,
    /// Mean equation residual after the final solve — the quantity the
    /// adaptive parameter selection drives toward zero (paper Sec. IV-C1).
    pub mean_residual: f64,
    /// Weighted RMS residual (diagnostic).
    pub weighted_rms: f64,
    /// IRLS reweights performed (0 for plain least squares): weighted
    /// solves of the accelerated fixed-point loop
    /// ([`lion_linalg::solve_irls_normal`]), which stops once a reweight
    /// moves the estimate less than the configured tolerance or at
    /// `max_iterations` ([`crate::StageMetrics::irls_unconverged`] counts
    /// the solves that stopped there unconverged).
    pub iterations: usize,
    /// Number of equations in the solved system.
    pub equation_count: usize,
    /// Whether the lower-dimension recovery path was taken.
    pub lower_dimension: bool,
    /// Approximate 1σ standard errors of the solved coordinates (world
    /// axes, meters), from the weighted-least-squares covariance
    /// `σ̂²·(AᵀWA)⁻¹`. Zero when the covariance could not be formed.
    /// For lower-dimension solves the recovered coordinate's uncertainty
    /// is *not* included (it is dominated by the `d_r` error and the
    /// discriminant geometry).
    pub position_std: lion_geom::Vec3,
}

impl Estimate {
    /// Euclidean distance from this estimate to a ground-truth position.
    pub fn distance_error(&self, truth: Point3) -> f64 {
        self.position.distance(truth)
    }
}

impl Default for Estimate {
    /// An all-zero placeholder (origin position, no residual statistics).
    /// Exists so outcome buffers can be pre-allocated and refilled in
    /// place; every real estimate comes from a solve.
    fn default() -> Self {
        Estimate {
            position: Point3::ORIGIN,
            reference_distance: 0.0,
            reference_position: Point3::ORIGIN,
            mean_residual: 0.0,
            weighted_rms: 0.0,
            iterations: 0,
            equation_count: 0,
            lower_dimension: false,
            position_std: Vec3::new(0.0, 0.0, 0.0),
        }
    }
}

/// The target space a solve runs in: the one representation of the
/// 2D-or-3D choice, carried as a value by [`Localizer`], the stream
/// configuration and the engine. The paper's linear model is the same in
/// both; the space only sets how many coordinate columns the
/// principal-component frame may span. 2D pins the estimate's `z` to the
/// mean sample height; 3D solves all three coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveSpace {
    /// Horizontal-plane localization.
    #[default]
    TwoD,
    /// Full 3D localization.
    ThreeD,
}

impl SolveSpace {
    /// The minimum sample count a solve needs in this space.
    pub fn min_samples(self) -> usize {
        match self {
            SolveSpace::TwoD => 4,
            SolveSpace::ThreeD => 5,
        }
    }
}

/// The LION localizer: one linear model, `A·[x y (z) d_r]ᵀ = K`, solved
/// in the target space [`SolveSpace`].
///
/// The space is a value, not a type: 2D and 3D differ only in how many
/// coordinate columns the principal-component frame spans, and the
/// lower-dimension `d_r` recovery (paper Sec. III-C, Observation 2)
/// handles both. In [`SolveSpace::TwoD`] the target and the tag
/// trajectory lie in (or are projected onto) the horizontal plane and
/// sample `z` coordinates only report the plane height;
/// [`SolveSpace::ThreeD`] needs a trajectory spanning two (planar, with
/// `d_r` recovery) or three dimensions.
///
/// # Example
///
/// ```
/// use lion_core::{Localizer, LocalizerConfig, SolveSpace};
/// use lion_geom::Point3;
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// // Noise-free synthetic measurements of an antenna at (0.5, 0.8).
/// let antenna = Point3::new(0.5, 0.8, 0.0);
/// let lambda = LocalizerConfig::default().wavelength;
/// let measurements: Vec<(Point3, f64)> = (0..60)
///     .map(|i| {
///         let a = i as f64 * 0.1;
///         let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
///         let phase = (4.0 * std::f64::consts::PI * antenna.distance(p) / lambda)
///             .rem_euclid(2.0 * std::f64::consts::PI);
///         (p, phase)
///     })
///     .collect();
/// let mut config = LocalizerConfig::default();
/// config.smoothing_window = 1;
/// let estimate = Localizer::new(config, SolveSpace::TwoD).locate(&measurements)?;
/// assert!(estimate.distance_error(antenna) < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Localizer {
    config: LocalizerConfig,
    space: SolveSpace,
}

impl Localizer {
    /// Creates a localizer solving in `space`.
    pub fn new(config: LocalizerConfig, space: SolveSpace) -> Self {
        Localizer { config, space }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LocalizerConfig {
        &self.config
    }

    /// The target space every solve runs in.
    pub fn space(&self) -> SolveSpace {
        self.space
    }

    /// Locates the target from `(position, wrapped phase)` measurements.
    ///
    /// # Errors
    ///
    /// See [`CoreError`]; notably [`CoreError::DegenerateGeometry`] when
    /// all samples coincide, or when a 3D solve gets collinear samples —
    /// the paper proves a single straight trajectory cannot fix a 3D
    /// position (Sec. III-C2) — and [`CoreError::RecoveryFailed`] when
    /// the lower-dimension discriminant is negative (heavy noise).
    pub fn locate(&self, measurements: &[(Point3, f64)]) -> Result<Estimate, CoreError> {
        self.locate_in(measurements, &mut Workspace::new())
    }

    /// [`Localizer::locate`] with a reusable [`Workspace`]: solver
    /// buffers come from (and stage metrics are recorded into) `ws`.
    /// Bit-identical to `locate`.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate`].
    pub fn locate_in(
        &self,
        measurements: &[(Point3, f64)],
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        let mut profile = std::mem::take(&mut ws.profile);
        let result = prepare_profile_in(measurements, &self.config, &mut profile, ws)
            .and_then(|()| self.locate_profile_in(&profile, ws));
        ws.profile = profile;
        result
    }

    /// Locates from an already prepared (unwrapped/smoothed) profile with
    /// a reusable [`Workspace`].
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate`].
    pub fn locate_profile_in(
        &self,
        profile: &PhaseProfile,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        run_with_min_in(
            profile,
            &self.config,
            self.space,
            self.space.min_samples(),
            ws,
        )
    }

    /// Locates from the reads held by a [`crate::SlidingWindow`] — the
    /// streaming entry point.
    ///
    /// The window's `(position, wrapped phase)` measurements are staged
    /// into `ws`'s reusable buffer and replayed through the standard
    /// unwrap → smooth → pairs → solve pipeline, so the result is
    /// **bit-identical** to [`Localizer::locate`] on the same window
    /// contents — the streaming/batch parity guarantee, and the oracle
    /// the O(delta) [`crate::IncrementalState`] path is checked against.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate`].
    pub fn locate_window_in(
        &self,
        window: &crate::SlidingWindow,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        let mut staged = std::mem::take(&mut ws.measurements);
        window.write_measurements_into(&mut staged);
        let result = self.locate_in(&staged, ws);
        ws.measurements = staged;
        result
    }
}

/// Builds and preprocesses the phase profile for a localizer config into
/// a caller-owned profile: rebuilds `profile` from the wrapped
/// measurements and smooths it using the workspace's scratch buffers, so
/// the steady-state prepare stage performs no heap allocations. The
/// `lion.unwrap` and `lion.smooth` spans time the two stages.
pub(crate) fn prepare_profile_in(
    measurements: &[(Point3, f64)],
    config: &LocalizerConfig,
    profile: &mut PhaseProfile,
    ws: &mut Workspace,
) -> Result<(), CoreError> {
    {
        let _span = lion_obs::span!("lion.unwrap");
        profile.rebuild_from_wrapped(measurements, config.wavelength)?;
    }
    let _span = lion_obs::span!("lion.smooth");
    profile.smooth_with_scratch(
        config.smoothing_window,
        &mut ws.smooth_prefix,
        &mut ws.smooth_tmp,
    );
    Ok(())
}

/// Stack-only principal-component frame shared by every solve path: a
/// 3×3 symmetric eigendecomposition of `Σ d·dᵀ` instead of an SVD of the
/// centered `n × k` matrix, so computing it allocates nothing. The square
/// roots of the eigenvalues equal the singular values of the centered
/// matrix, so the spanned-direction count matches what an SVD route would
/// report up to floating-point noise far below the rank tolerance.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameSmall {
    pub(crate) centroid: Point3,
    /// Orthonormal axes, strongest spread first. For 2D mode only the xy
    /// components are nonzero and the last axis is `±e_z`.
    pub(crate) axes: [Vec3; 3],
    /// How many directions the trajectory spans at the given tolerance.
    pub(crate) spanned: usize,
    /// The target dimensionality (2 or 3).
    pub(crate) dims: usize,
}

/// Sums `term(x, y, z)` over the positions of `lanes`, `S` sums side
/// by side, in the lane order every row sum of the solve pipeline uses
/// (`lion_linalg::simd::sum_sumsq`'s): position `i` of every whole block
/// of four adds into partial sum `i mod 4`, the partials combine as
/// `(l0 + l1) + (l2 + l3)`, and the tail positions are added after that.
/// Four explicit accumulators per sum over `chunks_exact(4)`, so the
/// adds form four independent chains instead of one.
#[inline]
fn lane_sums<const S: usize>(
    lanes: PositionLanes<'_>,
    term: impl Fn(f64, f64, f64) -> [f64; S],
) -> [f64; S] {
    let (xs, ys, zs) = (
        lanes.xs().chunks_exact(LANES),
        lanes.ys().chunks_exact(LANES),
        lanes.zs().chunks_exact(LANES),
    );
    let tail = (xs.remainder(), ys.remainder(), zs.remainder());
    // `partial[s][l]` is partial sum `l` of sum `s`.
    let mut partial = [[0.0; LANES]; S];
    for ((x, y), z) in xs.zip(ys).zip(zs) {
        let block = |c: &[f64]| -> [f64; LANES] { c.try_into().expect("a whole block") };
        let (x, y, z) = (block(x), block(y), block(z));
        for l in 0..LANES {
            let t = term(x[l], y[l], z[l]);
            for s in 0..S {
                partial[s][l] += t[s];
            }
        }
    }
    let mut sums = partial.map(|[l0, l1, l2, l3]| (l0 + l1) + (l2 + l3));
    for ((&x, &y), &z) in tail.0.iter().zip(tail.1).zip(tail.2) {
        for (sum, t) in sums.iter_mut().zip(term(x, y, z)) {
            *sum += t;
        }
    }
    sums
}

/// Partial sums per [`lane_sums`] reduction.
const LANES: usize = 4;

/// The centroid of `lanes`: each coordinate's [`lane_sums`] divided by
/// the count.
fn centroid(lanes: PositionLanes<'_>) -> Point3 {
    let n = lanes.len() as f64;
    let [x, y, z] = lane_sums(lanes, |x, y, z| [x, y, z]);
    Point3::new(x / n, y / n, z / n)
}

/// Unnormalized sample covariance `Σ d·dᵀ` of `lanes` about `centroid`;
/// its eigenvalues are the squared singular values of the centered
/// sample matrix. Only the six distinct entries of the symmetric matrix
/// are summed, each in [`lane_sums`]' lane order, and the upper triangle
/// mirrors them. That order differs from a serial per-read loop's, so a
/// frame (and the estimate built on it) moves at rounding level against
/// one; the pair choice does not depend on it. 2D mode keeps the z row
/// and column exactly +0, which `sym_eigen3` preserves.
fn covariance(lanes: PositionLanes<'_>, centroid: Point3, space: SolveSpace) -> [[f64; 3]; 3] {
    let c = centroid;
    let [xx, xy, xz, yy, yz, zz] = match space {
        SolveSpace::TwoD => {
            let [xx, xy, yy] = lane_sums(lanes, |x, y, _| {
                let (dx, dy) = (x - c.x, y - c.y);
                [dx * dx, dx * dy, dy * dy]
            });
            [xx, xy, 0.0, yy, 0.0, 0.0]
        }
        SolveSpace::ThreeD => lane_sums(lanes, |x, y, z| {
            let (dx, dy, dz) = (x - c.x, y - c.y, z - c.z);
            [dx * dx, dx * dy, dx * dz, dy * dy, dy * dz, dz * dz]
        }),
    };
    [[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]]
}

/// The principal-component frame of `lanes` in `space`, rejecting
/// geometries the linear model cannot solve at `rank_tolerance`.
pub(crate) fn analyze_geometry_small(
    lanes: PositionLanes<'_>,
    space: SolveSpace,
    rank_tolerance: f64,
) -> Result<FrameSmall, CoreError> {
    let centroid = centroid(lanes);
    let dims = match space {
        SolveSpace::TwoD => 2,
        SolveSpace::ThreeD => 3,
    };
    let cov = covariance(lanes, centroid, space);
    let (vals, vecs) = lion_linalg::sym_eigen3(&cov);
    let s1 = vals[0].max(0.0).sqrt();
    if s1 <= 1e-12 {
        return Err(CoreError::DegenerateGeometry {
            detail: "all tag positions coincide".to_string(),
        });
    }
    let axes = [
        Vec3::new(vecs[0][0], vecs[0][1], vecs[0][2]),
        Vec3::new(vecs[1][0], vecs[1][1], vecs[1][2]),
        Vec3::new(vecs[2][0], vecs[2][1], vecs[2][2]),
    ];
    let spanned = vals
        .iter()
        .take(dims)
        .filter(|&&v| v.max(0.0).sqrt() / s1 >= rank_tolerance)
        .count();
    if spanned == 0 {
        return Err(CoreError::DegenerateGeometry {
            detail: "tag positions span no direction".to_string(),
        });
    }
    if space == SolveSpace::ThreeD && spanned == 1 {
        return Err(CoreError::DegenerateGeometry {
            detail: "a single linear trajectory cannot determine a 3D position \
                     (paper Sec. III-C2); add a second line or a planar scan"
                .to_string(),
        });
    }
    if dims - spanned > 1 {
        return Err(CoreError::DegenerateGeometry {
            detail: format!(
                "trajectory spans {spanned} of {dims} dimensions; only one \
                 missing dimension can be recovered from the reference distance"
            ),
        });
    }
    Ok(FrameSmall {
        centroid,
        axes,
        spanned,
        dims,
    })
}

/// Canonical orientation for the recovery normal: flip so the dominant
/// component is positive (z, then y, then x precedence), making the
/// default "positive side" deterministic.
pub(crate) fn canonicalize(n: Vec3) -> Vec3 {
    let flip = if n.z.abs() > 1e-9 {
        n.z < 0.0
    } else if n.y.abs() > 1e-9 {
        n.y < 0.0
    } else {
        n.x < 0.0
    };
    if flip {
        -n
    } else {
        n
    }
}

/// Shared solver body with a caller-chosen sample floor: the multistatic
/// extension feeds as few as three "samples" (one per antenna).
pub(crate) fn run_with_min(
    profile: &PhaseProfile,
    config: &LocalizerConfig,
    space: SolveSpace,
    min_needed: usize,
) -> Result<Estimate, CoreError> {
    run_with_min_in(profile, config, space, min_needed, &mut Workspace::new())
}

/// [`run_with_min`] with caller-provided solver buffers and metrics:
/// the range-level [`Prepared::prepare`] step, then [`solve_prepared`].
pub(crate) fn run_with_min_in(
    profile: &PhaseProfile,
    config: &LocalizerConfig,
    space: SolveSpace,
    min_needed: usize,
    ws: &mut Workspace,
) -> Result<Estimate, CoreError> {
    let mut prepared = std::mem::take(&mut ws.prepared);
    let result = prepared
        .prepare(profile, config, space, min_needed)
        .and_then(|()| solve_prepared(profile.lanes(), &prepared, config, ws));
    ws.prepared = prepared;
    result
}

/// The interval-independent half of a solve: everything it reads that
/// depends only on the profile and the range-level settings (sample
/// floor, `reference_index`, `rank_tolerance`, the pair strategy's scan
/// lines), never on the pair interval. [`Prepared::prepare`] fills it
/// once; [`solve_prepared`] then runs pairs → rows → Gram → IRLS → σ̂
/// for any interval of the same strategy. The adaptive sweep prepares
/// each scanning range once and solves it at every interval; a single
/// solve runs the two halves back to back.
#[derive(Debug, Clone, Default)]
pub(crate) struct Prepared {
    pub(crate) frame: FrameSmall,
    pub(crate) reference: usize,
    /// Distance deltas against the reference sample.
    pub(crate) deltas: Vec<f64>,
    /// Frame coordinates of every sample, **axis-major**
    /// (`coords[c * n + i]` is coordinate `c` of sample `i`): each solved
    /// axis is one contiguous lane, the layout the
    /// `lion_linalg::simd` row-assembly kernel gathers from.
    coords: Vec<f64>,
    /// The structured pairing's scan lines.
    lines: LineScratch,
}

impl Prepared {
    /// Validates `profile` against the sample floor, the reference index,
    /// the rank tolerance and the side hint, then computes its frame,
    /// reference deltas, frame coordinates and scan-line classification,
    /// reusing this state's buffers. The `lion.prepare` span times it.
    ///
    /// # Errors
    ///
    /// [`CoreError::TooFewMeasurements`], [`CoreError::InvalidConfig`]
    /// and [`CoreError::DegenerateGeometry`].
    pub(crate) fn prepare(
        &mut self,
        profile: &PhaseProfile,
        config: &LocalizerConfig,
        space: SolveSpace,
        min_needed: usize,
    ) -> Result<(), CoreError> {
        let _span = lion_obs::span!("lion.prepare");
        let n = profile.len();
        if n < min_needed {
            return Err(CoreError::TooFewMeasurements {
                got: n,
                needed: min_needed,
            });
        }
        self.reference = match config.reference_index {
            Some(r) if r < n => r,
            Some(r) => {
                return Err(CoreError::InvalidConfig {
                    parameter: "reference_index",
                    found: format!("{r} for {n} samples"),
                })
            }
            None => n / 2,
        };
        if !(config.rank_tolerance > 0.0 && config.rank_tolerance < 1.0) {
            return Err(CoreError::InvalidConfig {
                parameter: "rank_tolerance",
                found: format!("{}", config.rank_tolerance),
            });
        }
        validate_side_hint(config.side_hint)?;
        let lanes = profile.lanes();
        self.frame = analyze_geometry_small(lanes, space, config.rank_tolerance)?;
        profile.delta_distances_into(self.reference, &mut self.deltas);
        self.project(lanes);
        config.pair_strategy.classify_into(lanes, &mut self.lines);
        Ok(())
    }

    /// Projects `lanes` onto this state's frame: the axis-major frame
    /// coordinates the rows read. [`Prepared::prepare`] runs it on the
    /// frame it just computed, and the O(delta) resolver on every delta
    /// tick, against the frame it froze at its last resync.
    pub(crate) fn project(&mut self, lanes: PositionLanes<'_>) {
        let n = lanes.len();
        let frame = &self.frame;
        let (xs, ys, zs) = (lanes.xs(), lanes.ys(), lanes.zs());
        let c = frame.centroid;
        self.coords.clear();
        self.coords.resize(n * frame.spanned, 0.0);
        // One axis lane at a time, zipped so the loop vectorizes.
        for (lane, axis) in self.coords.chunks_exact_mut(n).zip(&frame.axes) {
            for (((out, &x), &y), &z) in lane.iter_mut().zip(xs).zip(ys).zip(zs) {
                *out = (x - c.x) * axis.x + (y - c.y) * axis.y + (z - c.z) * axis.z;
            }
        }
    }
}

/// The interval-dependent half of a solve: pairs the positions `lanes`
/// under `config.pair_strategy`, stacks the rows, solves them and
/// rebuilds the world position. `prepared` must describe the same
/// positions: [`Prepared::prepare`] on their profile with a config that
/// differs from `config` at most in the pair interval, or the O(delta)
/// resolver's mirrors.
pub(crate) fn solve_prepared(
    lanes: PositionLanes<'_>,
    prepared: &Prepared,
    config: &LocalizerConfig,
    ws: &mut Workspace,
) -> Result<Estimate, CoreError> {
    let n = lanes.len();
    debug_assert_eq!(prepared.deltas.len(), n, "prepared for other positions");
    let Prepared {
        frame,
        reference,
        deltas,
        coords,
        lines,
    } = prepared;
    let lower_dimension = frame.spanned < frame.dims;
    let k = frame.spanned;
    let pairs_span = lion_obs::span!("lion.pairs");
    let mut pair_lanes = PairLanes {
        i: &mut ws.pair_i,
        j: &mut ws.pair_j,
    };
    config
        .pair_strategy
        .pairs_from(lanes, lines, &mut pair_lanes);
    drop(pairs_span);
    let _solve_span = lion_obs::span!("lion.solve");
    let Workspace {
        metrics,
        pair_i,
        pair_j,
        solution,
        param_std,
        ne,
        ne_irls,
        cov_diag,
        ..
    } = ws;
    crate::model::load_system(coords, n, k, deltas, pair_i, pair_j, ne)?;
    let m = ne.rows();
    let outcome = lion_linalg::solve_irls_normal(ne, &config.weighting.irls(), ne_irls)?;
    normal_param_std(ne, &outcome, ne_irls, param_std, cov_diag);
    solution.clear();
    solution.extend_from_slice(ne.solution());
    metrics.solves += 1;
    metrics.irls_iterations += outcome.iterations as u64;
    metrics.irls_unconverged += u64::from(!outcome.converged);
    metrics.equations += m as u64;
    drop(_solve_span);

    let reference_position = lanes.point(*reference);
    let (position, position_std) = assemble_position(
        frame.centroid,
        &frame.axes,
        k,
        solution,
        param_std,
        reference_position,
        lower_dimension,
        config.side_hint,
    )?;
    let d_r = solution[k];

    Ok(Estimate {
        position,
        reference_distance: d_r,
        reference_position,
        mean_residual: outcome.mean_residual,
        weighted_rms: outcome.weighted_rms,
        iterations: outcome.iterations,
        equation_count: m,
        lower_dimension,
        position_std,
    })
}

/// World-coordinate reconstruction of [`solve_prepared`]: rebuilds
/// the position from the frame solution, maps per-parameter standard
/// errors to world axes, and — on lower-dimension trajectories — recovers
/// the perpendicular coordinate from the reference distance (paper
/// Sec. III-C, Observation 2). `axes` must hold at least `k + 1` entries
/// when `lower_dimension` is set (entry `k` is the recovery normal).
#[allow(clippy::too_many_arguments)]
fn assemble_position(
    centroid: Point3,
    axes: &[Vec3],
    k: usize,
    solution: &[f64],
    param_std: &[f64],
    reference_position: Point3,
    lower_dimension: bool,
    side_hint: Option<Point3>,
) -> Result<(Point3, Vec3), CoreError> {
    let mut position = centroid;
    for (c, axis) in axes.iter().take(k).enumerate() {
        position = position + *axis * solution[c];
    }
    let d_r = solution[k];
    // Map per-parameter standard errors from frame axes to world axes:
    // var(world_component) = Σ_c (axis_c · e)²·σ_c².
    let position_std = if param_std.len() >= k {
        let mut var = [0.0_f64; 3];
        for (c, axis) in axes.iter().take(k).enumerate() {
            let s2 = param_std[c] * param_std[c];
            var[0] += axis.x * axis.x * s2;
            var[1] += axis.y * axis.y * s2;
            var[2] += axis.z * axis.z * s2;
        }
        Vec3::new(var[0].sqrt(), var[1].sqrt(), var[2].sqrt())
    } else {
        Vec3::new(0.0, 0.0, 0.0)
    };

    if lower_dimension {
        // Recover the perpendicular coordinate from d_r (Observation 2):
        // d_r² = Σ_c (sol_c − ref_c)² + w², reference has w = 0 because it
        // lies on the trajectory subspace.
        let ref_p = reference_position - centroid;
        let mut planar_sq = 0.0;
        for (c, axis) in axes.iter().take(k).enumerate() {
            let rc = ref_p.dot(*axis);
            planar_sq += (solution[c] - rc) * (solution[c] - rc);
        }
        let disc = d_r * d_r - planar_sq;
        // Tolerate slightly negative discriminants from noise.
        let tol = 1e-6 + 0.01 * d_r.abs() * d_r.abs();
        if disc < -tol {
            return Err(CoreError::RecoveryFailed { discriminant: disc });
        }
        let w = disc.max(0.0).sqrt();
        let normal = canonicalize(axes[k]);
        let plus = position + normal * w;
        let minus = position - normal * w;
        position = match side_hint {
            Some(h) => {
                if plus.distance(h) <= minus.distance(h) {
                    plus
                } else {
                    minus
                }
            }
            None => plus,
        };
    }
    Ok((position, position_std))
}

/// Per-parameter standard errors `√diag(σ̂²·(AᵀWA)⁻¹)` from a solved
/// normal-equation system, the IRLS run that solved it and that run's
/// scratch — the one σ̂ routine, which every solve runs through
/// [`solve_prepared`]. σ̂² comes from the run's own `Σw` and `Σw·r²`,
/// and the final weights move into `ne` by swap for the covariance.
/// Writes the 1σ errors (coordinates then `d_r`) into `param_std`,
/// leaving it empty when the covariance is unavailable (no spare degrees
/// of freedom, degenerate weights, or a singular Gram matrix).
fn normal_param_std(
    ne: &mut NormalEq,
    outcome: &NormalIrlsOutcome,
    irls: &mut NormalIrlsScratch,
    param_std: &mut Vec<f64>,
    cov_diag: &mut Vec<f64>,
) {
    param_std.clear();
    let m = ne.rows();
    let cols = ne.cols();
    if m <= cols {
        return;
    }
    let wsum = outcome.weight_sum;
    // NaN-safe: `>` is false for NaN, so NaN weight sums bail out too.
    let wsum_ok = wsum > 0.0;
    if !wsum_ok {
        return;
    }
    let dof = (m - cols) as f64;
    let sigma2 = outcome.weighted_sq_sum / dof.max(1.0) / (wsum / m as f64).max(f64::MIN_POSITIVE);
    if ne.adopt_irls_weights(irls).is_ok() && ne.covariance_diag_into(cov_diag).is_ok() {
        param_std.extend(cov_diag.iter().map(|d| (sigma2 * d).max(0.0).sqrt()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    /// Noise-free wrapped phase for an antenna at `target`.
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
    fn locates_antenna_from_circular_scan_2d() {
        // Paper Fig. 6 geometry: circle radius 0.3, antenna at 1 m.
        for target in [
            Point3::new(1.0, 0.0, 0.0),
            Point3::new(
                std::f64::consts::FRAC_1_SQRT_2,
                std::f64::consts::FRAC_1_SQRT_2,
                0.0,
            ),
            Point3::new(0.0, 1.0, 0.0),
        ] {
            let m = circle_measurements(target, 300, 0.3);
            let est = Localizer::new(clean_config(), SolveSpace::TwoD)
                .locate(&m)
                .unwrap();
            assert!(
                est.distance_error(target) < 1e-6,
                "target {target}: error {}",
                est.distance_error(target)
            );
            assert!(!est.lower_dimension);
            assert!(est.mean_residual.abs() < 1e-9);
        }
    }

    #[test]
    fn locates_antenna_from_linear_scan_2d_lower_dimension() {
        // Paper Fig. 9 geometry: tag on x ∈ [−0.3, 0.3], antenna (0.2, 1).
        let target = Point3::new(0.2, 1.0, 0.0);
        let m: Vec<(Point3, f64)> = (0..240)
            .map(|i| {
                let x = -0.3 + i as f64 * 0.0025;
                let p = Point3::new(x, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 0.5, 0.0));
        let est = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).unwrap();
        assert!(est.lower_dimension);
        assert!(
            est.distance_error(target) < 1e-6,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn validate_rejects_non_finite_side_hint() {
        for hint in [
            Point3::new(f64::NAN, 0.5, 0.0),
            Point3::new(0.0, f64::NEG_INFINITY, 0.0),
            Point3::new(0.0, 0.5, f64::INFINITY),
        ] {
            let cfg = LocalizerConfig {
                side_hint: Some(hint),
                ..LocalizerConfig::default()
            };
            assert!(matches!(
                cfg.validate(),
                Err(CoreError::InvalidConfig {
                    parameter: "side_hint",
                    ..
                })
            ));
        }
        assert!(LocalizerConfig::builder()
            .side_hint(Point3::new(0.0, 0.5, 0.0))
            .build()
            .is_ok());
    }

    #[test]
    fn locate_rejects_non_finite_side_hint() {
        // Without the check the mirror choice's `<=` is false for NaN and
        // a line solve silently returns the mirror point (y = −0.8).
        let target = Point3::new(0.1, 0.8, 0.0);
        let m: Vec<(Point3, f64)> = (0..240)
            .map(|i| {
                let p = Point3::new(-0.3 + i as f64 * 0.0025, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(f64::NAN, 0.5, 0.0));
        assert!(matches!(
            Localizer::new(cfg, SolveSpace::TwoD).locate(&m),
            Err(CoreError::InvalidConfig {
                parameter: "side_hint",
                ..
            })
        ));
    }

    #[test]
    fn diagonal_linear_track_uses_rotated_frame() {
        // A 45°-slanted track: the lower-dimension path must build its
        // frame from the principal direction, not an axis.
        let target = Point3::new(0.5, 1.2, 0.0);
        let dir = (1.0_f64 / 2.0_f64.sqrt(), 1.0 / 2.0_f64.sqrt());
        let m: Vec<(Point3, f64)> = (0..300)
            .map(|i| {
                let s = -0.4 + i as f64 * (0.8 / 299.0);
                let p = Point3::new(s * dir.0, s * dir.1, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 1.0, 0.0));
        let est = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).unwrap();
        assert!(est.lower_dimension);
        assert!(
            est.distance_error(target) < 1e-6,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn tilted_plane_3d_recovery() {
        // Circular scan in a plane tilted 30° about the x-axis; the
        // recovery normal is no longer a coordinate axis.
        let tilt = 30.0_f64.to_radians();
        let target = Point3::new(0.1, 0.3, 0.9);
        let m: Vec<(Point3, f64)> = (0..300)
            .map(|i| {
                let a = i as f64 * TAU / 300.0;
                let (u, v) = (0.35 * a.cos(), 0.35 * a.sin());
                // Plane basis: e1 = x, e2 = cos(t)·y + sin(t)·z.
                let p = Point3::new(u, v * tilt.cos(), v * tilt.sin());
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(target);
        let est = Localizer::new(cfg, SolveSpace::ThreeD).locate(&m).unwrap();
        assert!(est.lower_dimension);
        assert!(
            est.distance_error(target) < 1e-5,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn mirror_solution_follows_hint() {
        let target = Point3::new(0.1, -0.9, 0.0); // antenna on the NEGATIVE y side
        let m: Vec<(Point3, f64)> = (0..200)
            .map(|i| {
                let x = -0.4 + i as f64 * 0.004;
                let p = Point3::new(x, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, -0.5, 0.0));
        let est = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).unwrap();
        assert!(est.distance_error(target) < 1e-6);
        // Without a hint the positive-y mirror is returned.
        let mut cfg = clean_config();
        cfg.side_hint = None;
        let est = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).unwrap();
        let mirror = Point3::new(0.1, 0.9, 0.0);
        assert!(est.distance_error(mirror) < 1e-6);
    }

    #[test]
    fn locates_antenna_3d_from_three_line_scan() {
        let target = Point3::new(0.1, 0.8, 0.15);
        let scan = lion_geom::ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        // Sample along the continuous serpentine path (the paper's "move
        // the tag from the end of one line to the start of the next") so
        // unwrapping stays consistent across lines.
        use lion_geom::Trajectory;
        let m: Vec<(Point3, f64)> = scan
            .to_path()
            .sample(0.1, 50.0)
            .into_iter()
            .map(|w| (w.position, phase_of(target, w.position)))
            .collect();
        let mut cfg = clean_config();
        cfg.pair_strategy = PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.003,
        };
        let est = Localizer::new(cfg, SolveSpace::ThreeD).locate(&m).unwrap();
        assert!(
            est.distance_error(target) < 1e-6,
            "error {}",
            est.distance_error(target)
        );
        assert!(!est.lower_dimension);
    }

    #[test]
    fn locates_antenna_3d_from_planar_circle_with_recovery() {
        // Circular trajectory in the z=0 plane, antenna above it.
        let target = Point3::new(0.2, 0.3, 0.7);
        let m = circle_measurements(target, 300, 0.4);
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
        let est = Localizer::new(cfg, SolveSpace::ThreeD).locate(&m).unwrap();
        assert!(est.lower_dimension);
        assert!(
            est.distance_error(target) < 1e-6,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn single_line_cannot_do_3d() {
        let target = Point3::new(0.0, 1.0, 0.2);
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let p = Point3::new(i as f64 * 0.01, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let err = Localizer::new(clean_config(), SolveSpace::ThreeD)
            .locate(&m)
            .unwrap_err();
        assert!(matches!(err, CoreError::DegenerateGeometry { .. }));
    }

    #[test]
    fn coincident_positions_rejected() {
        let m: Vec<(Point3, f64)> = (0..10).map(|_| (Point3::ORIGIN, 0.3)).collect();
        let err = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&m)
            .unwrap_err();
        assert!(matches!(err, CoreError::DegenerateGeometry { .. }));
    }

    #[test]
    fn too_few_measurements_rejected() {
        let m = vec![(Point3::ORIGIN, 0.0), (Point3::new(0.1, 0.0, 0.0), 0.1)];
        assert!(matches!(
            Localizer::new(clean_config(), SolveSpace::TwoD).locate(&m),
            Err(CoreError::TooFewMeasurements { .. })
        ));
    }

    #[test]
    fn invalid_reference_index_rejected() {
        let target = Point3::new(0.5, 0.5, 0.0);
        let m = circle_measurements(target, 50, 0.3);
        let mut cfg = clean_config();
        cfg.reference_index = Some(999);
        assert!(matches!(
            Localizer::new(cfg, SolveSpace::TwoD).locate(&m),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn invalid_rank_tolerance_rejected() {
        let m = circle_measurements(Point3::new(0.5, 0.5, 0.0), 50, 0.3);
        let mut cfg = clean_config();
        cfg.rank_tolerance = 0.0;
        assert!(Localizer::new(cfg, SolveSpace::TwoD).locate(&m).is_err());
    }

    fn weighted(irls: IrlsConfig) -> LocalizerConfig {
        LocalizerConfig {
            weighting: Weighting::Weighted(irls),
            ..clean_config()
        }
    }

    #[test]
    fn invalid_irls_tolerance_rejected() {
        for tolerance in [f64::NAN, 0.0, -1e-8, f64::INFINITY] {
            let err = weighted(IrlsConfig {
                tolerance,
                ..IrlsConfig::default()
            })
            .validate()
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        parameter: "irls tolerance",
                        ..
                    }
                ),
                "{tolerance}: {err:?}"
            );
        }
        assert!(weighted(IrlsConfig::default()).validate().is_ok());
    }

    #[test]
    fn invalid_huber_delta_rejected() {
        for delta in [f64::NAN, 0.0, -0.01, f64::INFINITY, f64::NEG_INFINITY] {
            let err = weighted(IrlsConfig {
                weight_fn: WeightFunction::Huber { delta },
                ..IrlsConfig::default()
            })
            .validate()
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        parameter: "huber delta",
                        ..
                    }
                ),
                "{delta}: {err:?}"
            );
        }
        let huber = weighted(IrlsConfig {
            weight_fn: WeightFunction::Huber { delta: 0.01 },
            ..IrlsConfig::default()
        });
        assert!(huber.validate().is_ok());
    }

    #[test]
    fn pair_interval_too_large_yields_no_pairs() {
        let m = circle_measurements(Point3::new(0.5, 0.5, 0.0), 50, 0.1);
        let mut cfg = clean_config();
        cfg.pair_strategy = PairStrategy::Interval { interval: 5.0 };
        assert!(matches!(
            Localizer::new(cfg, SolveSpace::TwoD).locate(&m),
            Err(CoreError::NoPairs)
        ));
    }

    #[test]
    fn weighted_and_plain_agree_on_clean_data() {
        let target = Point3::new(0.6, 0.7, 0.0);
        let m = circle_measurements(target, 200, 0.3);
        let mut cfg_ls = clean_config();
        cfg_ls.weighting = Weighting::LeastSquares;
        let e_ls = Localizer::new(cfg_ls, SolveSpace::TwoD).locate(&m).unwrap();
        let e_wls = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&m)
            .unwrap();
        assert!(e_ls.position.distance(e_wls.position) < 1e-8);
        assert_eq!(e_ls.iterations, 0);
    }

    #[test]
    fn estimate_reports_metadata() {
        let target = Point3::new(0.5, 0.8, 0.0);
        let m = circle_measurements(target, 100, 0.3);
        let est = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&m)
            .unwrap();
        assert!(est.equation_count > 0);
        assert!(est.reference_distance > 0.0);
        // d_r matches the true distance to the reference position.
        let true_dr = target.distance(est.reference_position);
        assert!((est.reference_distance - true_dr).abs() < 1e-6);
    }

    #[test]
    fn wrapped_input_is_unwrapped_internally() {
        // Same as the circular test but with a noisy-free profile whose
        // phases wrap dozens of times — locate() must handle it.
        let target = Point3::new(1.0, 0.2, 0.0);
        let m = circle_measurements(target, 400, 0.3);
        // Count wraps to make sure the test is meaningful.
        let mut wraps = 0;
        for w in m.windows(2) {
            if (w[1].1 - w[0].1).abs() > PI {
                wraps += 1;
            }
        }
        assert!(wraps > 2, "test should exercise unwrapping, wraps={wraps}");
        let est = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&m)
            .unwrap();
        assert!(est.distance_error(target) < 1e-6);
    }

    /// Deterministic pseudo-Gaussian noise via a simple LCG.
    fn gauss_noise(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            let mut s = 0.0;
            for _ in 0..12 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s += (state >> 11) as f64 / (1u64 << 53) as f64;
            }
            s - 6.0 // Irwin-Hall ≈ N(0, 1)
        }
    }

    #[test]
    fn least_squares_is_uniform_irls() {
        // Plain LS is the `W = I` case of the one IRLS route: on a noisy
        // line (lower-dimension recovery included) it must equal an
        // explicit uniform-weight IRLS bit for bit.
        let mut gauss = gauss_noise(0x5eed);
        let target = Point3::new(0.1, 0.8, 0.0);
        let m: Vec<(Point3, f64)> = (0..240)
            .map(|i| {
                let p = Point3::new(-0.3 + i as f64 * 0.0025, 0.0, 0.0);
                (p, (phase_of(target, p) + 0.1 * gauss()).rem_euclid(TAU))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 0.5, 0.0));
        cfg.weighting = Weighting::LeastSquares;
        let ls = Localizer::new(cfg.clone(), SolveSpace::TwoD)
            .locate(&m)
            .unwrap();
        cfg.weighting = Weighting::Weighted(IrlsConfig {
            weight_fn: WeightFunction::Uniform,
            ..IrlsConfig::default()
        });
        let uniform = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).unwrap();
        assert_eq!(ls, uniform);
        assert!(ls.lower_dimension);
        assert_eq!(ls.iterations, 0);
        assert!(
            ls.distance_error(target) < 0.05,
            "error {}",
            ls.distance_error(target)
        );
    }

    #[test]
    fn position_std_reflects_noise_level() {
        let mut gauss = gauss_noise(0x12345678);
        let target = Point3::new(0.4, 0.9, 0.0);
        let clean = circle_measurements(target, 300, 0.3);
        let noisy: Vec<(Point3, f64)> = clean
            .iter()
            .map(|&(p, t)| (p, (t + 0.1 * gauss()).rem_euclid(TAU)))
            .collect();
        let clean_est = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&clean)
            .unwrap();
        let noisy_est = Localizer::new(clean_config(), SolveSpace::TwoD)
            .locate(&noisy)
            .unwrap();
        // Clean data: negligible uncertainty.
        assert!(clean_est.position_std.norm() < 1e-6);
        // Noisy data: uncertainty reported, and consistent with the actual
        // error (within a generous 6σ).
        let sigma = noisy_est.position_std.norm();
        assert!(sigma > 1e-5, "std {sigma}");
        assert!(
            noisy_est.distance_error(target) < 6.0 * sigma + 1e-4,
            "error {} vs sigma {}",
            noisy_est.distance_error(target),
            sigma
        );
        // The 2D solve leaves z untouched: zero uncertainty there.
        assert_eq!(noisy_est.position_std.z, 0.0);
    }

    #[test]
    fn canonicalize_orients_normals() {
        assert_eq!(
            canonicalize(Vec3::new(0.0, 0.0, -1.0)),
            Vec3::new(0.0, 0.0, 1.0)
        );
        assert_eq!(
            canonicalize(Vec3::new(0.0, -1.0, 0.0)),
            Vec3::new(0.0, 1.0, 0.0)
        );
        assert_eq!(
            canonicalize(Vec3::new(-1.0, 0.0, 0.0)),
            Vec3::new(1.0, 0.0, 0.0)
        );
        assert_eq!(
            canonicalize(Vec3::new(0.5, 0.5, 0.5)),
            Vec3::new(0.5, 0.5, 0.5)
        );
    }

    /// `terms` summed the way the frame documents it, written out with
    /// one array of four partial sums: term `i` of every whole block of
    /// four into partial `i mod 4`, the partials combined as
    /// `(l0 + l1) + (l2 + l3)`, the tail terms added after that.
    fn lane_order_reference<const S: usize>(terms: &[[f64; S]]) -> [f64; S] {
        let whole = terms.len() - terms.len() % 4;
        let mut partial = [[0.0_f64; S]; 4];
        for (i, t) in terms[..whole].iter().enumerate() {
            for s in 0..S {
                partial[i % 4][s] += t[s];
            }
        }
        let mut sums: [f64; S] = std::array::from_fn(|s| {
            (partial[0][s] + partial[1][s]) + (partial[2][s] + partial[3][s])
        });
        for t in &terms[whole..] {
            for s in 0..S {
                sums[s] += t[s];
            }
        }
        sums
    }

    /// The centroid and the six distinct covariance sums, mirrored, are
    /// bit-identical to a scalar reference in the documented lane order
    /// that sums all nine entries (in 2D with the z entries `d·0.0`
    /// summed too), at every tail length and at larger sizes, and so is
    /// the frame built on them.
    #[test]
    fn frame_sums_follow_the_documented_lane_order() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1_u64 << 53) as f64 - 0.5
        };
        let bits = |m: [[f64; 3]; 3]| m.map(|row| row.map(f64::to_bits));
        for n in (4..=13).chain([37, 101]) {
            let positions: Vec<Point3> = (0..n)
                .map(|_| Point3::new(next(), 0.3 * next(), 0.1 * next()))
                .collect();
            let xs: Vec<f64> = positions.iter().map(|p| p.x).collect();
            let ys: Vec<f64> = positions.iter().map(|p| p.y).collect();
            let zs: Vec<f64> = positions.iter().map(|p| p.z).collect();
            let lanes = PositionLanes::new(&xs, &ys, &zs);
            let coords: Vec<[f64; 3]> = positions.iter().map(|p| [p.x, p.y, p.z]).collect();
            let [sx, sy, sz] = lane_order_reference(&coords);
            let c = Point3::new(sx / n as f64, sy / n as f64, sz / n as f64);
            let frame_centroid = centroid(lanes);
            assert_eq!(
                [frame_centroid.x, frame_centroid.y, frame_centroid.z].map(f64::to_bits),
                [c.x, c.y, c.z].map(f64::to_bits),
                "centroid at n = {n}"
            );
            for space in [SolveSpace::TwoD, SolveSpace::ThreeD] {
                let frame = analyze_geometry_small(lanes, space, 1e-6).unwrap();
                let terms: Vec<[f64; 9]> = positions
                    .iter()
                    .map(|p| {
                        let d = *p - c;
                        let z = if space == SolveSpace::TwoD { 0.0 } else { d.z };
                        let v = [d.x, d.y, z];
                        std::array::from_fn(|e| v[e / 3] * v[e % 3])
                    })
                    .collect();
                let sums = lane_order_reference(&terms);
                let full: [[f64; 3]; 3] =
                    std::array::from_fn(|r| [0, 1, 2].map(|c| sums[3 * r + c]));
                let cov = covariance(lanes, frame.centroid, space);
                assert_eq!(bits(cov), bits(full), "{space:?} at n = {n}");
                let (_, vecs) = lion_linalg::sym_eigen3(&full);
                let axes = frame.axes.map(|a| [a.x, a.y, a.z]);
                assert_eq!(bits(axes), bits(vecs), "{space:?} at n = {n}");
            }
        }
    }
}
