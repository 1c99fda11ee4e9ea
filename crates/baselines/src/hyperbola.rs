//! The hyperbola (TDoA) baseline (paper Sec. VI, refs \[6, 14–19\]).
//!
//! Each pair of tag positions with phase-derived distance difference
//! `Δd_{ij}` constrains the target to a hyperbola (2D) / hyperboloid (3D):
//! `‖p − Tᵢ‖ − ‖p − Tⱼ‖ = Δd_{ij}`. Finding the common intersection of
//! many such quadratic loci is a non-linear least-squares problem; this
//! implementation solves it with Levenberg–Marquardt — which is exactly
//! the "time-consuming … optimal estimation for large amounts of quadratic
//! functions" cost the paper contrasts with LION's single linear solve.

use lion_geom::Point3;
use lion_linalg::{LevenbergMarquardt, Vector};
use serde::{Deserialize, Serialize};

use lion_core::{PairStrategy, PhaseProfile};

use crate::BaselineError;

/// Configuration for the hyperbola solver.
#[derive(Debug, Clone, PartialEq)]
pub struct HyperbolaConfig {
    /// Carrier wavelength in meters.
    pub wavelength: f64,
    /// Moving-average window for the unwrapped phases.
    pub smoothing_window: usize,
    /// Pair selection (shares LION's strategies).
    pub pair_strategy: PairStrategy,
    /// Estimate the z coordinate too (needs a trajectory spanning 3D).
    pub three_dimensional: bool,
    /// Initial guess; defaults to 1 m in front of the trajectory centroid.
    pub initial_guess: Option<Point3>,
    /// The Levenberg–Marquardt settings.
    pub lm: LevenbergMarquardt,
}

impl Default for HyperbolaConfig {
    fn default() -> Self {
        HyperbolaConfig {
            wavelength: 299_792_458.0 / 920.625e6,
            smoothing_window: 9,
            pair_strategy: PairStrategy::default(),
            three_dimensional: false,
            initial_guess: None,
            lm: LevenbergMarquardt::default(),
        }
    }
}

/// Result of a hyperbola localization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HyperbolaEstimate {
    /// Estimated target position (z is the trajectory plane height in 2D
    /// mode).
    pub position: Point3,
    /// Final cost `½Σr²` of the non-linear fit.
    pub cost: f64,
    /// Levenberg–Marquardt iterations — the work metric showing why this
    /// is slower than LION's closed-form solve.
    pub iterations: usize,
    /// Number of hyperbola constraints (pairs).
    pub constraints: usize,
}

/// Locates the target by intersecting phase-difference hyperbolas.
///
/// # Errors
///
/// - preprocessing errors from [`PhaseProfile::from_wrapped`],
/// - [`BaselineError::TooFewMeasurements`] when pair selection yields
///   fewer constraints than unknowns,
/// - numeric errors from the LM solver.
pub fn locate(
    measurements: &[(Point3, f64)],
    config: &HyperbolaConfig,
) -> Result<HyperbolaEstimate, BaselineError> {
    let mut profile = PhaseProfile::from_wrapped(measurements, config.wavelength)?;
    profile.smooth(config.smoothing_window);
    let positions: Vec<Point3> = profile.points().collect();
    let reference = positions.len() / 2;
    let deltas = profile.delta_distances(reference);
    let mut pairs = Vec::new();
    config.pair_strategy.pairs_into(profile.lanes(), &mut pairs);
    let unknowns = if config.three_dimensional { 3 } else { 2 };
    if pairs.len() < unknowns {
        return Err(BaselineError::TooFewMeasurements {
            got: pairs.len(),
            needed: unknowns,
        });
    }
    // Distance differences per pair.
    let constraints: Vec<(Point3, Point3, f64)> = pairs
        .iter()
        .map(|&(i, j)| (positions[i], positions[j], deltas[i] - deltas[j]))
        .collect();

    let n = positions.len() as f64;
    let centroid = positions.iter().fold(Point3::ORIGIN, |acc, p| {
        Point3::new(acc.x + p.x / n, acc.y + p.y / n, acc.z + p.z / n)
    });
    let guess =
        config
            .initial_guess
            .unwrap_or(Point3::new(centroid.x, centroid.y + 1.0, centroid.z));
    let z_plane = centroid.z;

    let x0 = if config.three_dimensional {
        Vector::from_slice(&[guess.x, guess.y, guess.z])
    } else {
        Vector::from_slice(&[guess.x, guess.y])
    };
    let report = config.lm.minimize(
        &x0,
        |x, out| {
            let p = if x.len() == 3 {
                Point3::new(x[0], x[1], x[2])
            } else {
                Point3::new(x[0], x[1], z_plane)
            };
            for (slot, (ti, tj, dd)) in out.iter_mut().zip(&constraints) {
                *slot = p.distance(*ti) - p.distance(*tj) - dd;
            }
        },
        constraints.len(),
    )?;
    let position = if config.three_dimensional {
        Point3::new(report.solution[0], report.solution[1], report.solution[2])
    } else {
        Point3::new(report.solution[0], report.solution[1], z_plane)
    };
    Ok(HyperbolaEstimate {
        position,
        cost: report.cost,
        iterations: report.iterations,
        constraints: constraints.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(target: Point3, p: Point3) -> f64 {
        (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
    }

    fn cfg() -> HyperbolaConfig {
        HyperbolaConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.15 },
            ..HyperbolaConfig::default()
        }
    }

    #[test]
    fn locates_from_circular_scan_2d() {
        let target = Point3::new(0.8, 0.3, 0.0);
        let m: Vec<(Point3, f64)> = (0..200)
            .map(|i| {
                let a = i as f64 * TAU / 200.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let est = locate(&m, &cfg()).unwrap();
        assert!(
            est.position.distance(target) < 1e-4,
            "error {}",
            est.position.distance(target)
        );
        assert!(est.cost < 1e-9);
        assert!(est.constraints > 10);
    }

    #[test]
    fn locates_from_linear_scan_2d() {
        let target = Point3::new(0.2, 1.0, 0.0);
        let m: Vec<(Point3, f64)> = (0..240)
            .map(|i| {
                let p = Point3::new(-0.3 + i as f64 * 0.0025, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut c = cfg();
        c.initial_guess = Some(Point3::new(0.0, 0.8, 0.0));
        let est = locate(&m, &c).unwrap();
        assert!(
            est.position.distance(target) < 1e-3,
            "error {}",
            est.position.distance(target)
        );
    }

    #[test]
    fn locates_3d_from_three_line_scan() {
        use lion_geom::{ThreeLineScan, Trajectory};
        let target = Point3::new(0.1, 0.8, 0.15);
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).unwrap();
        let m: Vec<(Point3, f64)> = scan
            .to_path()
            .sample(0.1, 50.0)
            .into_iter()
            .map(|w| (w.position, phase_of(target, w.position)))
            .collect();
        let mut c = cfg();
        c.three_dimensional = true;
        c.initial_guess = Some(Point3::new(0.0, 0.6, 0.0));
        let est = locate(&m, &c).unwrap();
        assert!(
            est.position.distance(target) < 1e-3,
            "error {}",
            est.position.distance(target)
        );
    }

    #[test]
    fn too_few_pairs_rejected() {
        let target = Point3::new(0.0, 1.0, 0.0);
        let m: Vec<(Point3, f64)> = (0..10)
            .map(|i| {
                let p = Point3::new(i as f64 * 0.001, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut c = cfg();
        c.pair_strategy = PairStrategy::Interval { interval: 10.0 };
        assert!(matches!(
            locate(&m, &c),
            Err(BaselineError::TooFewMeasurements { .. })
        ));
    }

    #[test]
    fn preprocessing_errors_propagate() {
        let m = vec![(Point3::ORIGIN, 0.1)];
        assert!(matches!(locate(&m, &cfg()), Err(BaselineError::Core(_))));
    }

    #[test]
    fn iterations_reported() {
        let target = Point3::new(0.4, 0.7, 0.0);
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| {
                let a = i as f64 * TAU / 100.0;
                let p = Point3::new(0.25 * a.cos(), 0.25 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let est = locate(&m, &cfg()).unwrap();
        assert!(est.iterations >= 1);
    }
}
