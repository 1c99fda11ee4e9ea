//! The parabola-fit baseline (paper Sec. VI, ref \[8\]).
//!
//! For a tag moving along a straight line at perpendicular distance `y₀`
//! from the antenna, the unwrapped phase is
//!
//! ```text
//! θ(x) = (4π/λ)·√((x − x₀)² + y₀²)
//!      ≈ (4π/λ)·(y₀ + (x − x₀)²/(2·y₀))        for |x − x₀| ≪ y₀,
//! ```
//!
//! i.e. approximately a parabola with vertex at the closest-approach
//! coordinate `x₀` and curvature `4π/(λ·y₀)`. Fitting a quadratic gives a
//! very fast 2D estimate — but only for linear scans, only in 2D, and with
//! an accuracy that degrades as the scan range grows beyond the
//! small-angle regime (the limitations the paper cites when motivating
//! LION).

use lion_core::PhaseProfile;
use lion_geom::Point3;
use lion_linalg::poly::Polynomial;
use serde::{Deserialize, Serialize};

use crate::BaselineError;

/// Configuration for the parabola fit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParabolaConfig {
    /// Carrier wavelength in meters.
    pub wavelength: f64,
    /// Moving-average window for the unwrapped phases.
    pub smoothing_window: usize,
    /// Maximum perpendicular deviation (meters) before the trajectory is
    /// rejected as non-linear.
    pub linearity_tolerance: f64,
}

impl Default for ParabolaConfig {
    fn default() -> Self {
        ParabolaConfig {
            wavelength: 299_792_458.0 / 920.625e6,
            smoothing_window: 9,
            linearity_tolerance: 1e-3,
        }
    }
}

/// Result of a parabola-fit localization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ParabolaEstimate {
    /// Estimated target position. The perpendicular offset is signed
    /// positive (the method cannot tell which side the antenna is on).
    pub position: Point3,
    /// Closest-approach coordinate along the scan direction.
    pub vertex_x: f64,
    /// Estimated perpendicular distance `y₀`.
    pub perpendicular_distance: f64,
    /// RMS residual of the quadratic fit (radians) — large values flag
    /// departure from the parabolic regime.
    pub fit_rms: f64,
}

/// Locates a target from a linear scan by fitting a parabola to the
/// unwrapped phase profile.
///
/// The scan is assumed to run along the x-axis (constant y and z); pass
/// measurements in scan order.
///
/// # Errors
///
/// - preprocessing errors from [`PhaseProfile::from_wrapped`],
/// - [`BaselineError::UnsupportedGeometry`] when the trajectory is not a
///   straight x-axis-parallel line within `linearity_tolerance`,
/// - [`BaselineError::UnsupportedGeometry`] when the fitted curvature is
///   not positive (the vertex is outside the scanned range),
/// - numeric errors from the polynomial fit.
pub fn locate(
    measurements: &[(Point3, f64)],
    config: &ParabolaConfig,
) -> Result<ParabolaEstimate, BaselineError> {
    let mut profile = PhaseProfile::from_wrapped(measurements, config.wavelength)?;
    profile.smooth(config.smoothing_window);
    // The scan must be an x-axis-parallel line.
    let (ys, zs) = (profile.ys(), profile.zs());
    let (y0_line, z0_line) = (ys[0], zs[0]);
    for (y, z) in ys.iter().zip(zs) {
        if (y - y0_line).abs() > config.linearity_tolerance
            || (z - z0_line).abs() > config.linearity_tolerance
        {
            return Err(BaselineError::UnsupportedGeometry {
                detail: "parabola fit requires a straight scan parallel to the x-axis".to_string(),
            });
        }
    }
    let xs = profile.xs();
    let poly = Polynomial::fit(xs, profile.phases(), 2)?;
    let Some((vertex_x, _)) = poly.vertex() else {
        return Err(BaselineError::UnsupportedGeometry {
            detail: "fitted phase profile has no parabolic vertex".to_string(),
        });
    };
    let curvature = poly.quadratic_curvature().unwrap_or(0.0);
    if curvature <= 0.0 {
        return Err(BaselineError::UnsupportedGeometry {
            detail: format!("non-positive phase curvature {curvature:.3}"),
        });
    }
    // θ'' = 4π/(λ·y₀)  ⇒  y₀ = 4π/(λ·θ'').
    let y0 = 4.0 * std::f64::consts::PI / (config.wavelength * curvature);
    let residuals: Vec<f64> = xs
        .iter()
        .zip(profile.phases())
        .map(|(&x, &t)| poly.eval(x) - t)
        .collect();
    let fit_rms = lion_linalg::stats::rms(&residuals).unwrap_or(0.0);
    Ok(ParabolaEstimate {
        position: Point3::new(vertex_x, y0_line + y0, z0_line),
        vertex_x,
        perpendicular_distance: y0,
        fit_rms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn scan(target: Point3, half_range: f64, n: usize) -> Vec<(Point3, f64)> {
        (0..n)
            .map(|i| {
                let x = -half_range + 2.0 * half_range * i as f64 / (n - 1) as f64;
                let p = Point3::new(x, 0.0, 0.0);
                let phase = (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU);
                (p, phase)
            })
            .collect()
    }

    fn cfg() -> ParabolaConfig {
        ParabolaConfig {
            smoothing_window: 1,
            ..ParabolaConfig::default()
        }
    }

    #[test]
    fn recovers_vertex_and_depth_in_small_angle_regime() {
        // Narrow scan (±0.15 m) against a 1 m deep target: the parabolic
        // approximation is excellent.
        let target = Point3::new(0.05, 1.0, 0.0);
        let m = scan(target, 0.15, 120);
        let est = locate(&m, &cfg()).unwrap();
        assert!((est.vertex_x - 0.05).abs() < 2e-3, "x {}", est.vertex_x);
        assert!(
            (est.perpendicular_distance - 1.0).abs() < 0.03,
            "depth {}",
            est.perpendicular_distance
        );
        assert!(est.position.distance(target) < 0.03);
    }

    #[test]
    fn accuracy_degrades_with_wide_scans() {
        // The wide-scan error must exceed the narrow-scan error: the
        // quadratic Taylor expansion breaks down — the limitation the
        // paper cites for ref [8].
        let target = Point3::new(0.0, 0.8, 0.0);
        let narrow = locate(&scan(target, 0.1, 100), &cfg()).unwrap();
        let wide = locate(&scan(target, 0.7, 100), &cfg()).unwrap();
        let e_narrow = narrow.position.distance(target);
        let e_wide = wide.position.distance(target);
        assert!(
            e_wide > 2.0 * e_narrow,
            "wide {e_wide} should be much worse than narrow {e_narrow}"
        );
    }

    #[test]
    fn rejects_non_linear_trajectory() {
        let target = Point3::new(0.5, 0.5, 0.0);
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let a = i as f64 * TAU / 100.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                let phase = (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU);
                (p, phase)
            })
            .collect();
        assert!(matches!(
            locate(&m, &cfg()),
            Err(BaselineError::UnsupportedGeometry { .. })
        ));
    }

    #[test]
    fn rejects_vertex_outside_scan() {
        // Target far to the side: phase is monotonic over the scan, the
        // fitted curvature can even be negative.
        let target = Point3::new(5.0, 0.3, 0.0);
        let m = scan(target, 0.2, 80);
        let r = locate(&m, &cfg());
        match r {
            Err(BaselineError::UnsupportedGeometry { .. }) => {}
            Ok(est) => {
                // If the fit happens to have positive curvature, the
                // estimate must be visibly wrong — flagged by fit quality.
                assert!(est.position.distance(target) > 0.5);
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn scan_at_height_keeps_plane() {
        let target = Point3::new(0.0, 1.0, 0.5);
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let p = Point3::new(-0.15 + i as f64 * 0.003, 0.2, 0.5);
                let phase = (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU);
                (p, phase)
            })
            .collect();
        let est = locate(&m, &cfg()).unwrap();
        assert_eq!(est.position.z, 0.5);
        // Depth estimate is relative to the scan line (distance in the
        // plane containing the line and the target).
        assert!(est.perpendicular_distance > 0.5);
    }

    #[test]
    fn fit_rms_reported() {
        let target = Point3::new(0.0, 1.0, 0.0);
        let est = locate(&scan(target, 0.12, 100), &cfg()).unwrap();
        assert!(est.fit_rms >= 0.0 && est.fit_rms < 0.2);
    }
}
