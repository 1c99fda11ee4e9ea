//! Phase calibration (paper Sec. IV-C): turning an antenna-position
//! estimate into a **center displacement** and a **phase offset**.
//!
//! - *Center calibration*: the difference between the estimated phase
//!   center and the manually measured physical center. Localization
//!   pipelines should use the estimated center from then on.
//! - *Offset calibration* (paper Eq. 17): with the center known, every
//!   sample's geometric phase `θ_d = (4π/λ)·d` is computable; the circular
//!   mean of `θ_measured − θ_d` is the combined hardware offset
//!   `θ_T + θ_R` of this antenna–tag pair. Differences of these offsets
//!   across antennas calibrate multi-antenna deployments.

use lion_geom::{Point3, Vec3};
use lion_linalg::stats;
use serde::{Deserialize, Serialize};

use crate::adaptive::AdaptiveConfig;
use crate::error::CoreError;
use crate::localizer::{Estimate, Localizer, LocalizerConfig, SolveSpace};
use crate::preprocess::wrap_phase;
use crate::workspace::Workspace;

/// Result of a full phase calibration for one antenna–tag pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The estimated phase center (world coordinates).
    pub phase_center: Point3,
    /// `phase_center − physical_center`: what the paper reports in
    /// Fig. 19(b).
    pub center_displacement: Vec3,
    /// The combined hardware phase offset `θ_T + θ_R` in `[0, 2π)`
    /// (paper Eq. 17). Only offset *differences* between pairs are
    /// physically meaningful.
    pub phase_offset: f64,
    /// Circular standard deviation of the per-sample offset estimates —
    /// a quality indicator (large spread ⇒ poor center estimate or heavy
    /// multipath).
    pub offset_spread: f64,
    /// The localization estimate behind the center (diagnostics).
    pub estimate: Estimate,
}

impl Calibration {
    /// Converts a measured phase into the purely geometric phase by
    /// removing the calibrated hardware offset (result in `[0, 2π)`).
    pub fn corrected_phase(&self, measured: f64) -> f64 {
        wrap_phase(measured - self.phase_offset)
    }

    /// Expected wrapped phase for a tag at `tag_position`, using the
    /// calibrated center and offset.
    pub fn expected_phase(&self, tag_position: Point3, wavelength: f64) -> f64 {
        let d = self.phase_center.distance(tag_position);
        wrap_phase(4.0 * std::f64::consts::PI * d / wavelength + self.phase_offset)
    }
}

/// Calibrates antennas from scan data: estimates the phase center via the
/// LION 3D localizer (with the adaptive parameter sweep) and then the
/// phase offset from the raw measurements.
#[derive(Debug, Clone, Default)]
pub struct Calibrator {
    localizer: LocalizerConfig,
    adaptive: Option<AdaptiveConfig>,
}

impl Calibrator {
    /// Creates a calibrator with the given localizer configuration and the
    /// default adaptive sweep.
    pub fn new(localizer: LocalizerConfig) -> Self {
        Calibrator {
            localizer,
            adaptive: Some(AdaptiveConfig::default()),
        }
    }

    /// Disables or replaces the adaptive parameter sweep (`None` locates
    /// once with the base configuration).
    pub fn with_adaptive(mut self, adaptive: Option<AdaptiveConfig>) -> Self {
        self.adaptive = adaptive;
        self
    }

    /// The localizer configuration.
    pub fn localizer_config(&self) -> &LocalizerConfig {
        &self.localizer
    }

    /// Calibrates one antenna from `(tag position, wrapped phase)`
    /// measurements taken on a trajectory spanning at least two dimensions
    /// (paper Fig. 11 recommends the three-line scan).
    ///
    /// `physical_center` is the manually measured antenna position; it is
    /// also used as the mirror-disambiguation hint unless the configuration
    /// already carries one.
    ///
    /// # Errors
    ///
    /// Propagates localization errors ([`CoreError`]).
    pub fn calibrate(
        &self,
        measurements: &[(Point3, f64)],
        physical_center: Point3,
    ) -> Result<Calibration, CoreError> {
        self.calibrate_in(measurements, physical_center, &mut Workspace::new())
    }

    /// [`Calibrator::calibrate`] with a reusable [`Workspace`]: solver
    /// buffers come from (and stage metrics are recorded into) `ws`.
    /// Bit-identical to `calibrate`.
    ///
    /// # Errors
    ///
    /// See [`Calibrator::calibrate`].
    pub fn calibrate_in(
        &self,
        measurements: &[(Point3, f64)],
        physical_center: Point3,
        ws: &mut Workspace,
    ) -> Result<Calibration, CoreError> {
        let mut cfg = self.localizer.clone();
        if cfg.side_hint.is_none() {
            cfg.side_hint = Some(physical_center);
        }
        let localizer = Localizer::new(cfg.clone(), SolveSpace::ThreeD);
        let estimate = match &self.adaptive {
            Some(a) => localizer.locate_adaptive_in(measurements, a, ws)?.estimate,
            None => localizer.locate_in(measurements, ws)?,
        };
        let (phase_offset, offset_spread) =
            estimate_offset(measurements, estimate.position, cfg.wavelength)?;
        Ok(Calibration {
            phase_center: estimate.position,
            center_displacement: estimate.position - physical_center,
            phase_offset,
            offset_spread,
            estimate,
        })
    }
}

/// Estimates the combined hardware phase offset given a known phase
/// center (paper Eq. 17): the circular mean over samples of
/// `θ_measured − (4π/λ)·d`.
///
/// Returns `(offset in [0, 2π), circular standard deviation)`. The
/// per-sample offsets are folded in one pass by the
/// [`lion_linalg::simd::phase_offset_sums`] kernel, with no buffer,
/// inside a `lion.offset` span.
///
/// # Errors
///
/// - [`CoreError::TooFewMeasurements`] for empty input,
/// - [`CoreError::NonFiniteMeasurement`] for NaN/inf samples,
/// - [`CoreError::DegenerateGeometry`] when the offsets are uniformly
///   spread (no meaningful mean — the center estimate must be wrong), or
///   when an offset is not finite although every sample is (a non-finite
///   center or wavelength, or a squared distance that overflows).
pub fn estimate_offset(
    measurements: &[(Point3, f64)],
    phase_center: Point3,
    wavelength: f64,
) -> Result<(f64, f64), CoreError> {
    let _span = lion_obs::span!("lion.offset");
    if measurements.is_empty() {
        return Err(CoreError::TooFewMeasurements { got: 0, needed: 1 });
    }
    let center = [phase_center.x, phase_center.y, phase_center.z];
    let read = |&(p, theta): &(Point3, f64)| ([p.x, p.y, p.z], theta);
    let diffs = stats::CircularResultant::of_phase_offsets(measurements, read, center, wavelength);
    if !diffs.is_finite() {
        return Err(non_finite_offset(measurements, phase_center, wavelength));
    }
    let mean = diffs.mean().ok_or_else(|| CoreError::DegenerateGeometry {
        detail: "per-sample phase offsets are uniformly spread; the phase \
                 center estimate is likely wrong"
            .to_string(),
    })?;
    let spread = diffs.std_dev().unwrap_or(f64::INFINITY);
    Ok((mean, spread))
}

/// The error for a fold whose sums are not finite: the first NaN/inf
/// sample, else a degenerate fit (every sample is finite, so an offset
/// overflowed or the center or wavelength is not finite).
fn non_finite_offset(
    measurements: &[(Point3, f64)],
    phase_center: Point3,
    wavelength: f64,
) -> CoreError {
    match measurements
        .iter()
        .position(|(p, theta)| !p.is_finite() || !theta.is_finite())
    {
        Some(index) => CoreError::NonFiniteMeasurement { index },
        None => CoreError::DegenerateGeometry {
            detail: format!(
                "phase offsets against center {phase_center:?} at wavelength \
                 {wavelength} are not finite"
            ),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairStrategy;
    use lion_geom::{ThreeLineScan, Trajectory};
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(center: Point3, p: Point3, offset: f64) -> f64 {
        (4.0 * PI * center.distance(p) / LAMBDA + offset).rem_euclid(TAU)
    }

    /// Noise-free three-line scan against an antenna with displacement and
    /// offset.
    fn scan_measurements(true_center: Point3, offset: f64) -> Vec<(Point3, f64)> {
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        scan.to_path()
            .sample(0.1, 50.0)
            .into_iter()
            .map(|w| (w.position, phase_of(true_center, w.position, offset)))
            .collect()
    }

    fn calibrator() -> Calibrator {
        let cfg = LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::StructuredScan {
                scan: ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap(),
                x_interval: 0.2,
                tolerance: 0.003,
            },
            ..LocalizerConfig::default()
        };
        Calibrator::new(cfg).with_adaptive(None)
    }

    #[test]
    fn recovers_planted_center_and_offset() {
        // Physical center at (0, 0.8, 0); true phase center 2–3 cm off.
        let physical = Point3::new(0.0, 0.8, 0.0);
        let truth = Point3::new(0.025, 0.79, 0.02);
        let true_offset = 2.74;
        let m = scan_measurements(truth, true_offset);
        let cal = calibrator().calibrate(&m, physical).unwrap();
        assert!(
            cal.phase_center.distance(truth) < 1e-5,
            "center error {}",
            cal.phase_center.distance(truth)
        );
        let expected_disp = truth - physical;
        assert!((cal.center_displacement - expected_disp).norm() < 1e-5);
        let offset_err = stats::circular_diff(cal.phase_offset, true_offset).abs();
        assert!(offset_err < 1e-4, "offset error {offset_err}");
        assert!(cal.offset_spread < 1e-4);
    }

    #[test]
    fn corrected_and_expected_phase_roundtrip() {
        let truth = Point3::new(0.0, 0.8, 0.0);
        let m = scan_measurements(truth, 1.1);
        let cal = calibrator().calibrate(&m, truth).unwrap();
        let p = Point3::new(0.1, 0.0, 0.0);
        let measured = phase_of(truth, p, 1.1);
        let expected = cal.expected_phase(p, LAMBDA);
        let d = stats::circular_diff(measured, expected).abs();
        assert!(d < 1e-4, "diff {d}");
        // corrected_phase removes the offset.
        let geo = cal.corrected_phase(measured);
        let want = (4.0 * PI * truth.distance(p) / LAMBDA).rem_euclid(TAU);
        assert!(stats::circular_diff(geo, want).abs() < 1e-4);
    }

    #[test]
    fn offset_estimation_standalone() {
        let center = Point3::new(0.0, 1.0, 0.0);
        let m: Vec<(Point3, f64)> = (0..50)
            .map(|i| {
                let p = Point3::new(-0.25 + i as f64 * 0.01, 0.0, 0.0);
                (p, phase_of(center, p, 4.07))
            })
            .collect();
        let (offset, spread) = estimate_offset(&m, center, LAMBDA).unwrap();
        assert!(stats::circular_diff(offset, 4.07).abs() < 1e-9);
        // Numerically-identical diffs still leave ~1e-8 of circular spread.
        assert!(spread < 1e-6);
    }

    #[test]
    fn offset_estimation_wrap_boundary() {
        // An offset near 0 must not average to π when samples straddle 2π.
        let center = Point3::new(0.0, 1.0, 0.0);
        let m: Vec<(Point3, f64)> = (0..50)
            .map(|i| {
                let p = Point3::new(-0.25 + i as f64 * 0.01, 0.0, 0.0);
                (p, phase_of(center, p, 0.002))
            })
            .collect();
        let (offset, _) = estimate_offset(&m, center, LAMBDA).unwrap();
        assert!(stats::circular_diff(offset, 0.002).abs() < 1e-9);
    }

    #[test]
    fn offset_errors() {
        assert!(matches!(
            estimate_offset(&[], Point3::ORIGIN, LAMBDA),
            Err(CoreError::TooFewMeasurements { .. })
        ));
        let m = vec![(Point3::new(f64::NAN, 0.0, 0.0), 0.0)];
        assert!(matches!(
            estimate_offset(&m, Point3::ORIGIN, LAMBDA),
            Err(CoreError::NonFiniteMeasurement { .. })
        ));
        // Uniformly spread offsets → degenerate.
        let m = vec![
            (Point3::new(0.0, 1.0, 0.0), 0.0),
            (Point3::new(0.0, 1.0, 0.0), PI / 2.0),
            (Point3::new(0.0, 1.0, 0.0), PI),
            (Point3::new(0.0, 1.0, 0.0), 1.5 * PI),
        ];
        // All at the same position: θ_d identical, diffs uniformly spread.
        assert!(matches!(
            estimate_offset(&m, Point3::ORIGIN, LAMBDA),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }

    /// Offsets beyond the sin/cos reduction's exact range fold through
    /// libm, so a far but finite read still gives a finite offset; an
    /// offset that overflows is a typed error, never `Ok(NaN)`.
    #[test]
    fn hostile_magnitudes_never_return_a_nan_offset() {
        let center = Point3::new(0.0, 0.8, 0.0);
        let mut m = scan_measurements(center, 1.0);
        m[3].0 = Point3::new(2.0e5, 0.0, 0.0);
        let diffs: Vec<f64> = m
            .iter()
            .map(|(p, t)| t - 4.0 * PI * center.distance(*p) / LAMBDA)
            .collect();
        assert!(diffs[3].abs() > lion_linalg::simd::SIN_COS_MAX);
        let (mean, spread) = estimate_offset(&m, center, LAMBDA).unwrap();
        assert!(mean.is_finite() && spread.is_finite());
        assert_eq!(Some(mean), stats::circular_mean(&diffs));
        m[5].0 = Point3::new(1e200, 0.0, 0.0);
        assert!(matches!(
            estimate_offset(&m, center, LAMBDA),
            Err(CoreError::DegenerateGeometry { .. })
        ));
        m[7].1 = f64::NAN;
        assert_eq!(
            estimate_offset(&m, center, LAMBDA),
            Err(CoreError::NonFiniteMeasurement { index: 7 })
        );
        let far = Point3::new(f64::INFINITY, 0.8, 0.0);
        assert!(matches!(
            estimate_offset(&m[..3], far, LAMBDA),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }

    #[test]
    fn estimate_offset_equals_the_two_call_form() {
        // Seeded noisy phases around displaced centers: the one-pass fold
        // must give the very offset and spread of collecting the
        // per-sample differences and calling the two statistics.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..16 {
            let truth = Point3::new(
                0.1 * uniform() - 0.05,
                0.7 + 0.2 * uniform(),
                0.1 * uniform(),
            );
            let offset = TAU * uniform();
            let m: Vec<(Point3, f64)> = scan_measurements(truth, offset)
                .into_iter()
                .map(|(p, t)| (p, (t + 0.3 * (uniform() - 0.5)).rem_euclid(TAU)))
                .collect();
            let center = Point3::new(truth.x + 0.01, truth.y, truth.z - 0.01);
            let diffs: Vec<f64> = m
                .iter()
                .map(|(p, t)| t - 4.0 * PI * center.distance(*p) / LAMBDA)
                .collect();
            let (mean, spread) = estimate_offset(&m, center, LAMBDA).unwrap();
            assert_eq!(Some(mean), stats::circular_mean(&diffs));
            assert_eq!(Some(spread), stats::circular_std_dev(&diffs));
        }
    }

    #[test]
    fn physical_center_used_as_default_hint() {
        // Planar two-line scan (no z spread): the mirror ambiguity along z
        // is resolved toward the physical center.
        let physical = Point3::new(0.0, 0.8, 0.3);
        let truth = Point3::new(0.01, 0.81, 0.28);
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        // Only lines L1 and L3 (both z = 0): z must come from recovery.
        let mut m = Vec::new();
        let path = {
            let mut p = lion_geom::Path::new();
            p.push_line(scan.line1());
            p.connect_to(scan.line3().start());
            p.push_line(scan.line3());
            p
        };
        for w in path.sample(0.1, 50.0) {
            m.push((w.position, phase_of(truth, w.position, 0.0)));
        }
        let cfg = LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            ..LocalizerConfig::default()
        };
        let cal = Calibrator::new(cfg)
            .with_adaptive(None)
            .calibrate(&m, physical)
            .unwrap();
        assert!(cal.estimate.lower_dimension);
        assert!(
            cal.phase_center.distance(truth) < 1e-4,
            "center error {}",
            cal.phase_center.distance(truth)
        );
    }
}
