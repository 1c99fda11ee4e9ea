//! Forced-dispatch hook: CI exercises the scalar fallback end to end.
//!
//! Every SIMD kernel ships with a bit-identical scalar twin, and
//! `lion_linalg::simd::force` pins the dispatcher to one backend. This
//! suite runs the full batch and windowed localization pipelines twice
//! — once auto-dispatched (AVX2/NEON where available), once forced to
//! scalar — and demands bitwise-equal estimates. On hosts without SIMD
//! the two runs are trivially the same path; on SIMD hosts this is the
//! end-to-end proof that vectorization never changes a solve. One test
//! binary, one test fn: `force` is process-global state.

use std::f64::consts::{PI, TAU};

use lion_core::{
    Estimate, Localizer, LocalizerConfig, PairStrategy, SlidingWindow, SolveSpace, Workspace,
};
use lion_geom::Point3;
use lion_linalg::simd::{self, Backend};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn linear_scan(target: Point3, half_range: f64, step: f64) -> Vec<(Point3, f64)> {
    let n = (2.0 * half_range / step) as usize;
    (0..=n)
        .map(|i| {
            let p = Point3::new(-half_range + i as f64 * step, 0.0, 0.0);
            (p, (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU))
        })
        .collect()
}

fn assert_bit_identical(auto: &Estimate, scalar: &Estimate, path: &str) {
    let pairs = [
        ("position.x", auto.position.x, scalar.position.x),
        ("position.y", auto.position.y, scalar.position.y),
        ("position.z", auto.position.z, scalar.position.z),
        (
            "reference_distance",
            auto.reference_distance,
            scalar.reference_distance,
        ),
        ("mean_residual", auto.mean_residual, scalar.mean_residual),
        ("weighted_rms", auto.weighted_rms, scalar.weighted_rms),
        ("position_std.x", auto.position_std.x, scalar.position_std.x),
        ("position_std.y", auto.position_std.y, scalar.position_std.y),
        ("position_std.z", auto.position_std.z, scalar.position_std.z),
    ];
    for (name, a, s) in pairs {
        assert_eq!(
            a.to_bits(),
            s.to_bits(),
            "{path}: {name} differs between auto ({a}) and forced-scalar ({s}) dispatch"
        );
    }
    assert_eq!(auto.iterations, scalar.iterations, "{path}: iterations");
    assert_eq!(
        auto.equation_count, scalar.equation_count,
        "{path}: equation_count"
    );
}

#[test]
fn forced_scalar_pipeline_is_bit_identical() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = linear_scan(target, 0.6, 0.005);
    let config = LocalizerConfig {
        smoothing_window: 9,
        pair_strategy: PairStrategy::Interval { interval: 0.2 },
        side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
        ..LocalizerConfig::default()
    };
    let localizer = Localizer::new(config, SolveSpace::TwoD);
    let mut ws = Workspace::new();

    // Batch path.
    let auto = localizer.locate_in(&m, &mut ws).expect("auto solve");
    simd::force(Some(Backend::Scalar));
    let scalar = localizer.locate_in(&m, &mut ws).expect("scalar solve");
    simd::force(None);
    assert_bit_identical(&auto, &scalar, "batch locate_in");
    // The clean synthetic scan must still localize; guards against both
    // runs agreeing on garbage.
    assert!(auto.distance_error(target) < 5e-2);

    // Windowed (SoA-staged) path.
    let mut window = SlidingWindow::new(128).expect("valid capacity");
    for (i, &(p, phase)) in m.iter().take(128).enumerate() {
        window.push(i as f64 * 0.01, p, phase);
    }
    let auto = localizer
        .locate_window_in(&window, &mut ws)
        .expect("auto solve");
    simd::force(Some(Backend::Scalar));
    let scalar = localizer
        .locate_window_in(&window, &mut ws)
        .expect("scalar solve");
    simd::force(None);
    assert_bit_identical(&auto, &scalar, "windowed locate_window_in");
}
