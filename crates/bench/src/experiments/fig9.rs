//! Fig. 9 — lower-dimension 2D localization from a linear trajectory.
//!
//! Paper setup (Sec. III-C1): tag moves on x ∈ [−0.3, 0.3], antenna at
//! (0.2, 1); `N(0, 0.1)` noise; 100 trials. LION's `d_r`-based recovery of
//! the perpendicular coordinate performs comparably to the hologram.

use lion_baselines::hologram::{self, HologramConfig, SearchVolume};
use lion_core::{Localizer, SolveSpace};
use lion_geom::{LineSegment, Point3};
use lion_sim::Antenna;

use crate::experiments::ExperimentReport;
use crate::rig;

/// Error statistics over the trials.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// LION (mean, p50, p90) distance error in meters.
    pub lion: (f64, f64, f64),
    /// Hologram (mean, p50, p90) distance error in meters.
    pub dah: (f64, f64, f64),
    /// Fraction of LION trials that took the lower-dimension path (should
    /// be 1.0).
    pub lower_dimension_fraction: f64,
}

fn summarize(errors: &[f64]) -> (f64, f64, f64) {
    (
        lion_linalg::stats::mean(errors).unwrap_or(f64::NAN),
        lion_linalg::stats::median(errors).unwrap_or(f64::NAN),
        lion_linalg::stats::percentile(errors, 90.0).unwrap_or(f64::NAN),
    )
}

/// Runs the comparison with `trials` repetitions.
pub fn run(seed: u64, trials: usize, grid: f64) -> Fig9Result {
    let target = Point3::new(0.2, 1.0, 0.0);
    let antenna = Antenna::builder(target).build();
    let track = LineSegment::along_x(-0.3, 0.3, 0.0, 0.0).expect("valid track");
    let mut scenario = rig::paper_scenario(antenna, seed);
    let mut lion_errors = Vec::new();
    let mut dah_errors = Vec::new();
    let mut lowdim = 0usize;
    for _ in 0..trials {
        let m = scenario
            .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
            .expect("valid scan")
            .to_measurements();
        let cfg = rig::paper_localizer_config(Point3::new(0.0, 0.8, 0.0));
        if let Ok(est) = Localizer::new(cfg, SolveSpace::TwoD).locate(&m) {
            lion_errors.push(est.distance_error(target));
            if est.lower_dimension {
                lowdim += 1;
            }
        }
        let dec: Vec<(Point3, f64)> = m.iter().step_by(10).copied().collect();
        let volume = SearchVolume::square_2d(target, 0.06);
        let hcfg = HologramConfig {
            grid_size: grid,
            wavelength: rig::LAMBDA,
            augmented: true,
        };
        if let Ok(est) = hologram::locate(&dec, volume, &hcfg) {
            dah_errors.push(est.position.distance(target));
        }
    }
    Fig9Result {
        lion: summarize(&lion_errors),
        dah: summarize(&dah_errors),
        lower_dimension_fraction: lowdim as f64 / trials.max(1) as f64,
    }
}

/// Renders the paper-style report.
pub fn report(seed: u64) -> ExperimentReport {
    let res = run(seed, 100, 0.002);
    let mut r = ExperimentReport::new(
        "fig9",
        "2D localization from a linear trajectory (lower-dimension path, Sec. III-C1)",
    );
    r.push(format!(
        "LION: mean {}, median {}, p90 {}",
        rig::cm(res.lion.0),
        rig::cm(res.lion.1),
        rig::cm(res.lion.2)
    ));
    r.push(format!(
        "DAH:  mean {}, median {}, p90 {}",
        rig::cm(res.dah.0),
        rig::cm(res.dah.1),
        rig::cm(res.dah.2)
    ));
    r.push(format!(
        "LION lower-dimension path taken in {:.0}% of trials",
        res.lower_dimension_fraction * 100.0
    ));
    r.push("paper: LION works well with the linear trajectory, comparable to hologram".to_string());
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_trajectory_2d_is_accurate() {
        let res = run(17, 6, 0.004);
        assert_eq!(res.lower_dimension_fraction, 1.0);
        assert!(res.lion.0 < 0.05, "LION mean error {}", res.lion.0);
        assert!(res.dah.0 < 0.06, "DAH mean error {}", res.dah.0);
        // LION should be at least comparable to the (test-handicapped:
        // coarse grid, decimated input) hologram.
        assert!(res.lion.0 < 2.0 * res.dah.0.max(0.002));
    }
}
