//! Fig. 14 — impact of height and depth.
//!
//! (a) 3D localization of the antenna at six positions `P1..P6`
//!     (y ∈ {0.6, 0.8, 1.0} m, z ∈ {0, 0.2} m) from two scan lines in the
//!     xy-plane: error grows with depth, worst along y and z (the phase
//!     becomes insensitive to height at depth).
//! (b) 2D tag tracking while the depth sweeps 0.6–1.6 m: LION with
//!     adaptive parameter selection stays flat, while DAH — which ingests
//!     every (increasingly multipath-corrupted) sample — degrades sharply
//!     beyond ~1.4 m.

use lion_baselines::hologram::{self, HologramConfig, SearchVolume};
use lion_core::{AdaptiveConfig, Localizer, SolveSpace};
use lion_geom::{LineSegment, Path, Point3};

use crate::experiments::ExperimentReport;
use crate::rig;

/// Per-position 3D result.
#[derive(Debug, Clone, PartialEq)]
pub struct PositionError {
    /// Antenna position label.
    pub position: Point3,
    /// Mean |error| along (x, y, z) in meters.
    pub axis_errors: (f64, f64, f64),
    /// Mean distance error (meters).
    pub total: f64,
}

/// Runs Fig. 14(a): locate the antenna at the six paper positions.
pub fn run_3d(seed: u64, trials: usize) -> Vec<PositionError> {
    let mut out = Vec::new();
    let mut idx = 0u64;
    for &y in &[0.6, 0.8, 1.0] {
        for &z in &[0.0, 0.2] {
            idx += 1;
            let target = Point3::new(0.0, y, z);
            // Ideal antenna: this experiment isolates geometry effects.
            let antenna = rig::ideal_antenna(target);
            let mut scenario = rig::indoor_scenario(antenna, seed ^ (idx << 24));
            // Two scan lines in the xy-plane: y = 0 and y = −0.2.
            let l1 = LineSegment::along_x(-0.4, 0.4, 0.0, 0.0).expect("valid");
            let l2 = LineSegment::along_x(0.4, -0.4, -0.2, 0.0).expect("valid");
            let mut path = Path::new();
            path.push_line(l1).connect_to(l2.start()).push_line(l2);

            let mut ex = Vec::new();
            let mut ey = Vec::new();
            let mut ez = Vec::new();
            let mut et = Vec::new();
            for _ in 0..trials {
                let m = scenario
                    .scan(&path, rig::TAG_SPEED, rig::READ_RATE)
                    .expect("valid scan")
                    .to_measurements();
                let cfg = rig::paper_localizer_config(target);
                if let Ok(est) = Localizer::new(cfg, SolveSpace::ThreeD).locate(&m) {
                    ex.push((est.position.x - target.x).abs());
                    ey.push((est.position.y - target.y).abs());
                    ez.push((est.position.z - target.z).abs());
                    et.push(est.distance_error(target));
                }
            }
            out.push(PositionError {
                position: target,
                axis_errors: (
                    rig::mean_std(&ex).0,
                    rig::mean_std(&ey).0,
                    rig::mean_std(&ez).0,
                ),
                total: rig::mean_std(&et).0,
            });
        }
    }
    out
}

/// Per-depth 2D result.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthError {
    /// Tag–antenna depth (meters).
    pub depth: f64,
    /// LION mean distance error (meters).
    pub lion: f64,
    /// DAH mean distance error (meters).
    pub dah: f64,
}

/// Runs Fig. 14(b): 2D accuracy as the depth sweeps 0.6–1.6 m.
pub fn run_2d(seed: u64, trials: usize, grid: f64) -> Vec<DepthError> {
    let mut out = Vec::new();
    for (d_idx, depth) in (0..6).map(|i| (i, 0.6 + 0.2 * i as f64)) {
        // Conveyor setup: antenna above the track at the given depth,
        // locating the tag's start position (relative-frame trick as in
        // Fig. 13).
        let antenna_pos = Point3::new(0.0, depth, 0.0);
        let antenna = rig::ideal_antenna(antenna_pos);
        let mut scenario = rig::indoor_scenario(antenna, seed ^ ((d_idx as u64) << 16));
        let mut lion_errors = Vec::new();
        let mut dah_errors = Vec::new();
        for t in 0..trials {
            let p0 = Point3::new(-0.5 + 0.05 * (t % 5) as f64, 0.0, 0.0);
            let track = LineSegment::new(p0, Point3::new(p0.x + 0.8, 0.0, 0.0)).expect("valid");
            let trace = scenario
                .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
                .expect("valid scan");
            let rel: Vec<(Point3, f64)> = trace
                .samples()
                .iter()
                .map(|s| (Point3::new(s.position.x - p0.x, 0.0, 0.0), s.phase))
                .collect();
            let hint = Point3::new(0.4, depth, 0.0);
            // LION with the adaptive parameter sweep (the paper's default).
            let cfg = rig::paper_localizer_config(hint);
            let adaptive = AdaptiveConfig::default();
            if let Ok(outcome) =
                Localizer::new(cfg, SolveSpace::TwoD).locate_adaptive(&rel, &adaptive)
            {
                let est = outcome.estimate.position;
                let p0_est = Point3::new(antenna_pos.x - est.x, antenna_pos.y - est.y, 0.0);
                lion_errors.push(p0_est.to_xy().distance(p0.to_xy()));
            }
            // DAH consumes every sample, no adaptive filtering.
            let dec: Vec<(Point3, f64)> = rel.iter().step_by(20).copied().collect();
            let volume = SearchVolume::square_2d(Point3::new(0.4, depth, 0.0), 0.12);
            let hcfg = HologramConfig {
                grid_size: grid,
                wavelength: rig::LAMBDA,
                augmented: true,
            };
            if let Ok(est) = hologram::locate(&dec, volume, &hcfg) {
                let p0_est = Point3::new(
                    antenna_pos.x - est.position.x,
                    antenna_pos.y - est.position.y,
                    0.0,
                );
                dah_errors.push(p0_est.to_xy().distance(p0.to_xy()));
            }
        }
        out.push(DepthError {
            depth,
            lion: rig::mean_std(&lion_errors).0,
            dah: rig::mean_std(&dah_errors).0,
        });
    }
    out
}

/// Renders the Fig. 14(a) report.
pub fn report_3d(seed: u64) -> ExperimentReport {
    let results = run_3d(seed, 10);
    let mut r = ExperimentReport::new(
        "fig14a",
        "3D localization error vs antenna position P1..P6 (Sec. V-C1)",
    );
    r.push("position (x, y, z) | err_x | err_y | err_z | total".to_string());
    for (i, p) in results.iter().enumerate() {
        r.push(format!(
            "P{} {} | {} | {} | {} | {}",
            i + 1,
            p.position,
            rig::cm(p.axis_errors.0),
            rig::cm(p.axis_errors.1),
            rig::cm(p.axis_errors.2),
            rig::cm(p.total)
        ));
    }
    r.push("paper: <1.5 cm below 0.8 m depth; grows with depth, worst along y/z".to_string());
    r
}

/// Renders the Fig. 14(b) report.
pub fn report_2d(seed: u64) -> ExperimentReport {
    let results = run_2d(seed, 10, 0.002);
    let mut r = ExperimentReport::new(
        "fig14b",
        "2D accuracy vs depth 0.6-1.6 m, LION (adaptive) vs DAH (Sec. V-C2)",
    );
    r.push("depth | LION | DAH".to_string());
    for d in &results {
        r.push(format!(
            "{:.1} m | {} | {}",
            d.depth,
            rig::cm(d.lion),
            rig::cm(d.dah)
        ));
    }
    r.push(
        "paper: LION ~0.45 cm throughout; DAH fine to 1.2 m then degrades past 2.5 cm".to_string(),
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_grows_with_depth_in_3d() {
        let results = run_3d(31, 3);
        assert_eq!(results.len(), 6);
        // Average error at depth 1.0 exceeds that at depth 0.6.
        let near: f64 = results[0].total + results[1].total;
        let far: f64 = results[4].total + results[5].total;
        assert!(far > near, "far {far} should exceed near {near}");
        // Shallow positions are decently accurate.
        assert!(results[0].total < 0.05, "P1 error {}", results[0].total);
    }

    #[test]
    fn lion_stays_flat_longer_than_dah_in_2d() {
        let results = run_2d(7, 4, 0.004);
        assert_eq!(results.len(), 6);
        let lion_far = results[5].lion;
        let dah_far = results[5].dah;
        // At 1.6 m LION (adaptive) should not be worse than DAH.
        assert!(
            lion_far <= dah_far * 1.5,
            "LION {lion_far} vs DAH {dah_far} at 1.6 m"
        );
        // And LION remains reasonable at close depth.
        assert!(results[0].lion < 0.05, "LION at 0.6 m: {}", results[0].lion);
    }
}
