//! Fig. 21 — antenna localization from a rotating tag.
//!
//! Paper setup (Sec. V-F2): a tag spins on a turntable 0.7 m in front of a
//! calibrated antenna; the rotation radius varies. Findings: the x-error
//! (parallel to the antenna plane) is smaller than the y-error (the
//! errors distribute along the scan-center→antenna direction, cf. Fig. 6),
//! and the error shrinks as the radius grows.

use lion_baselines::tagspin::{self, TagspinConfig};
use lion_core::{Localizer, SolveSpace};
use lion_geom::{CircularArc, Point3};

use crate::experiments::ExperimentReport;
use crate::rig;

/// Result for one turntable radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadiusError {
    /// Rotation radius (meters).
    pub radius: f64,
    /// Mean |error| along x (meters).
    pub err_x: f64,
    /// Mean |error| along y (meters).
    pub err_y: f64,
    /// Mean distance error (meters).
    pub total: f64,
    /// Mean distance error of the Tagspin-style harmonic fit (meters) —
    /// the circular-only baseline of paper ref \[7\].
    pub tagspin: f64,
}

/// Runs the radius sweep.
pub fn run(seed: u64, trials: usize, radii: &[f64]) -> Vec<RadiusError> {
    // Turntable at the origin; antenna 0.7 m in front (+y), calibrated
    // (i.e. we aim at the true phase center).
    let target = Point3::new(0.0, 0.7, 0.0);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, seed);
    radii
        .iter()
        .map(|&radius| {
            let circle = CircularArc::turntable(Point3::ORIGIN, radius).expect("radius > 0");
            let mut ex = Vec::new();
            let mut ey = Vec::new();
            let mut et = Vec::new();
            let mut spin = Vec::new();
            for _ in 0..trials {
                let m = scenario
                    .scan(&circle, rig::TAG_SPEED, rig::READ_RATE)
                    .expect("valid scan")
                    .to_measurements();
                let mut cfg = rig::paper_localizer_config(target);
                // Pair spacing must fit on the circle.
                cfg.pair_strategy = cfg.pair_strategy.with_interval((radius * 0.9).min(0.2));
                if let Ok(est) = Localizer::new(cfg, SolveSpace::TwoD).locate(&m) {
                    ex.push((est.position.x - target.x).abs());
                    ey.push((est.position.y - target.y).abs());
                    et.push(est.distance_error(target));
                }
                if let Ok(est) = tagspin::locate(&m, &TagspinConfig::default()) {
                    spin.push(est.position.distance(target));
                }
            }
            RadiusError {
                radius,
                err_x: rig::mean_std(&ex).0,
                err_y: rig::mean_std(&ey).0,
                total: rig::mean_std(&et).0,
                tagspin: rig::mean_std(&spin).0,
            }
        })
        .collect()
}

/// Renders the paper-style report.
pub fn report(seed: u64) -> ExperimentReport {
    let results = run(seed, 30, &[0.05, 0.10, 0.15, 0.20]);
    let mut r = ExperimentReport::new(
        "fig21",
        "rotating-tag scanning: error vs turntable radius (Sec. V-F2)",
    );
    r.push("radius | err_x | err_y | LION total | tagspin [7]".to_string());
    for p in &results {
        r.push(format!(
            "{:.2} m | {} | {} | {} | {}",
            p.radius,
            rig::cm(p.err_x),
            rig::cm(p.err_y),
            rig::cm(p.total),
            rig::cm(p.tagspin)
        ));
    }
    r.push("paper: x-error < y-error; error decreases with radius".to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x_error_smaller_than_y_error() {
        let results = run(111, 10, &[0.10, 0.20]);
        for p in &results {
            assert!(
                p.err_x < p.err_y,
                "radius {}: err_x {} should be < err_y {}",
                p.radius,
                p.err_x,
                p.err_y
            );
        }
    }

    #[test]
    fn error_decreases_with_radius() {
        let results = run(121, 10, &[0.05, 0.20]);
        assert!(
            results[1].total < results[0].total,
            "radius 0.20 ({}) should beat 0.05 ({})",
            results[1].total,
            results[0].total
        );
    }
}
