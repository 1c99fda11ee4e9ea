//! Tagspin-style rotating-tag baseline (paper Sec. VI, ref \[7\]).
//!
//! Tagspin emulates a circular antenna array by spinning a tag on a
//! turntable. For a turntable of radius `r` centered at the origin and a
//! target at distance `D ≫ r` and azimuth `φ`, the tag–target distance
//! expands as
//!
//! ```text
//! d(α) ≈ D − r·cos(α − φ) + (r²/2D)·sin²(α − φ)
//!      = const − r·cosφ·cosα − r·sinφ·sinα − (r²/4D)·cos(2(α − φ)) + …
//! ```
//!
//! so the unwrapped phase over one revolution is a **Fourier series in the
//! rotation angle**: the first harmonic gives the azimuth `φ`, the second
//! harmonic's amplitude `k·r²/(4D)` gives the range `D`. Fitting the
//! harmonics is a plain linear least-squares problem — fast, but locked to
//! circular trajectories and degrading as `r/D` grows, which is exactly
//! the trajectory-shape limitation the paper cites when motivating LION.

use lion_core::PhaseProfile;
use lion_geom::{Point2, Point3};
use lion_linalg::{lstsq, Matrix, Vector};
use serde::{Deserialize, Serialize};

use crate::BaselineError;

/// Configuration for the Tagspin-style solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagspinConfig {
    /// Carrier wavelength in meters.
    pub wavelength: f64,
    /// Moving-average window for the unwrapped phases.
    pub smoothing_window: usize,
    /// Maximum deviation of sample radii from their mean before the
    /// trajectory is rejected as non-circular (meters).
    pub circularity_tolerance: f64,
}

impl Default for TagspinConfig {
    fn default() -> Self {
        TagspinConfig {
            wavelength: 299_792_458.0 / 920.625e6,
            smoothing_window: 9,
            circularity_tolerance: 1e-3,
        }
    }
}

/// Result of a Tagspin-style localization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TagspinEstimate {
    /// Estimated target position (in the turntable plane).
    pub position: Point3,
    /// Estimated azimuth of the target from the turntable center (rad).
    pub azimuth: f64,
    /// Estimated range from the turntable center (meters).
    pub range: f64,
    /// First-harmonic amplitude consistency: the fitted amplitude divided
    /// by the expected `(4π/λ)·r` (≈ 1 when the far-field model holds).
    pub harmonic_consistency: f64,
}

/// Locates a target from one revolution of a turntable scan.
///
/// The measurements must lie on a circle in a `z = const` plane, in
/// rotation order.
///
/// # Errors
///
/// - preprocessing errors from [`PhaseProfile::from_wrapped`],
/// - [`BaselineError::UnsupportedGeometry`] when the samples are not
///   circular within tolerance or the harmonic fit degenerates,
/// - numeric errors from the least-squares fit.
pub fn locate(
    measurements: &[(Point3, f64)],
    config: &TagspinConfig,
) -> Result<TagspinEstimate, BaselineError> {
    let mut profile = PhaseProfile::from_wrapped(measurements, config.wavelength)?;
    profile.smooth(config.smoothing_window);
    let positions = profile.positions();
    if positions.len() < 8 {
        return Err(BaselineError::TooFewMeasurements {
            got: positions.len(),
            needed: 8,
        });
    }
    // Center and radius of the turntable from the samples.
    let n = positions.len() as f64;
    let z0 = positions[0].z;
    let center = positions.iter().fold(Point2::new(0.0, 0.0), |acc, p| {
        Point2::new(acc.x + p.x / n, acc.y + p.y / n)
    });
    let radii: Vec<f64> = positions
        .iter()
        .map(|p| p.to_xy().distance(center))
        .collect();
    let radius = radii.iter().sum::<f64>() / n;
    for (p, r) in positions.iter().zip(&radii) {
        if (r - radius).abs() > config.circularity_tolerance
            || (p.z - z0).abs() > config.circularity_tolerance
        {
            return Err(BaselineError::UnsupportedGeometry {
                detail: "tagspin requires a planar circular trajectory".to_string(),
            });
        }
    }
    if radius < 1e-4 {
        return Err(BaselineError::UnsupportedGeometry {
            detail: "turntable radius is degenerate".to_string(),
        });
    }
    // Harmonic regression of the unwrapped phase on the rotation angle.
    let angles: Vec<f64> = positions
        .iter()
        .map(|p| (p.y - center.y).atan2(p.x - center.x))
        .collect();
    let design = Matrix::from_fn(angles.len(), 5, |r, c| match c {
        0 => 1.0,
        1 => angles[r].cos(),
        2 => angles[r].sin(),
        3 => (2.0 * angles[r]).cos(),
        _ => (2.0 * angles[r]).sin(),
    });
    let rhs = Vector::from_slice(profile.phases());
    let coeff = lstsq::solve(&design, &rhs)?;
    let k = 4.0 * std::f64::consts::PI / config.wavelength;
    // First harmonic: θ ≈ … − k·r·cosφ·cosα − k·r·sinφ·sinα.
    let c1 = coeff[1];
    let c2 = coeff[2];
    let azimuth = (-c2).atan2(-c1);
    let amp1 = (c1 * c1 + c2 * c2).sqrt();
    let harmonic_consistency = amp1 / (k * radius);
    // Second harmonic: amplitude k·r²/(4D) ⇒ D = k·r²/(4·amp2).
    let amp2 = (coeff[3] * coeff[3] + coeff[4] * coeff[4]).sqrt();
    if amp2 < 1e-9 {
        return Err(BaselineError::UnsupportedGeometry {
            detail: "second harmonic vanished; target too far for ranging".to_string(),
        });
    }
    let range = k * radius * radius / (4.0 * amp2);
    let position = Point3::new(
        center.x + range * azimuth.cos(),
        center.y + range * azimuth.sin(),
        z0,
    );
    Ok(TagspinEstimate {
        position,
        azimuth,
        range,
        harmonic_consistency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn turntable_measurements(target: Point3, radius: f64, n: usize) -> Vec<(Point3, f64)> {
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / n as f64;
                let p = Point3::new(radius * a.cos(), radius * a.sin(), 0.0);
                let phase = (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU);
                (p, phase)
            })
            .collect()
    }

    fn cfg() -> TagspinConfig {
        TagspinConfig {
            smoothing_window: 1,
            ..TagspinConfig::default()
        }
    }

    #[test]
    fn recovers_azimuth_accurately() {
        for deg in [0.0_f64, 30.0, 120.0, 245.0] {
            let phi = deg.to_radians();
            let target = Point3::new(0.9 * phi.cos(), 0.9 * phi.sin(), 0.0);
            let m = turntable_measurements(target, 0.15, 720);
            let est = locate(&m, &cfg()).unwrap();
            let d = lion_linalg::stats::circular_diff(est.azimuth, phi).abs();
            assert!(d < 0.01, "azimuth {deg}°: error {d} rad");
            assert!((est.harmonic_consistency - 1.0).abs() < 0.05);
        }
    }

    #[test]
    fn range_estimate_is_first_order_accurate() {
        let target = Point3::new(0.8, 0.0, 0.0);
        let m = turntable_measurements(target, 0.15, 720);
        let est = locate(&m, &cfg()).unwrap();
        // Range from the 2nd harmonic is approximate (higher-order terms);
        // expect ~10% accuracy at r/D ≈ 0.19.
        assert!((est.range - 0.8).abs() < 0.1, "range {} vs 0.8", est.range);
        assert!(est.position.distance(target) < 0.12);
    }

    #[test]
    fn accuracy_degrades_relative_to_lion() {
        // On the same trace, LION's exact model beats the far-field
        // harmonic approximation — the reason the paper prefers a
        // trajectory-agnostic exact solver.
        let target = Point3::new(0.7, 0.3, 0.0);
        let m = turntable_measurements(target, 0.2, 720);
        let spin = locate(&m, &cfg()).unwrap();
        let lion = lion_core::Localizer::new(
            lion_core::LocalizerConfig {
                smoothing_window: 1,
                ..lion_core::LocalizerConfig::default()
            },
            lion_core::SolveSpace::TwoD,
        )
        .locate(&m)
        .unwrap();
        let e_spin = spin.position.distance(target);
        let e_lion = lion.distance_error(target);
        assert!(
            e_lion < e_spin,
            "LION {e_lion} should beat tagspin {e_spin}"
        );
    }

    #[test]
    fn rejects_non_circular_trajectories() {
        let target = Point3::new(0.5, 0.5, 0.0);
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let p = Point3::new(-0.3 + i as f64 * 0.006, 0.0, 0.0);
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
    fn rejects_tiny_inputs() {
        let target = Point3::new(0.5, 0.5, 0.0);
        let m = turntable_measurements(target, 0.15, 4);
        assert!(matches!(
            locate(&m, &cfg()),
            Err(BaselineError::TooFewMeasurements { .. })
        ));
    }

    #[test]
    fn constant_offset_does_not_bias_azimuth() {
        let phi = 1.1_f64;
        let target = Point3::new(0.9 * phi.cos(), 0.9 * phi.sin(), 0.0);
        let m: Vec<(Point3, f64)> = turntable_measurements(target, 0.15, 720)
            .into_iter()
            .map(|(p, t)| (p, (t + 2.2).rem_euclid(TAU)))
            .collect();
        let est = locate(&m, &cfg()).unwrap();
        let d = lion_linalg::stats::circular_diff(est.azimuth, phi).abs();
        assert!(d < 0.01, "azimuth error {d}");
    }
}
