//! Failure-injection integration tests: the public API must return typed
//! errors — never panic, never silently produce garbage — on degenerate or
//! hostile input.

use lion::baselines::{hologram, hyperbola, parabola, BaselineError};
use lion::core::{CoreError, Localizer, LocalizerConfig, SolveSpace};
use lion::geom::{CircularArc, LineSegment, Point3, Trajectory};
use lion::sim::{Antenna, FrequencyPlan, NoiseModel, ScenarioBuilder, Tag};

fn clean_circle_measurements(target: Point3, n: usize) -> Vec<(Point3, f64)> {
    let lambda = 299_792_458.0 / 920.625e6;
    (0..n)
        .map(|i| {
            let a = i as f64 * std::f64::consts::TAU / n as f64;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            let phase = (4.0 * std::f64::consts::PI * target.distance(p) / lambda)
                .rem_euclid(std::f64::consts::TAU);
            (p, phase)
        })
        .collect()
}

#[test]
fn nan_measurements_are_rejected_not_propagated() {
    let mut m = clean_circle_measurements(Point3::new(0.5, 0.5, 0.0), 100);
    m[50].1 = f64::NAN;
    let err = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
        .locate(&m)
        .unwrap_err();
    assert!(matches!(err, CoreError::NonFiniteMeasurement { index: 50 }));

    m[50].1 = 0.5;
    m[10].0 = Point3::new(f64::INFINITY, 0.0, 0.0);
    let err = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
        .locate(&m)
        .unwrap_err();
    assert!(matches!(err, CoreError::NonFiniteMeasurement { index: 10 }));
}

#[test]
fn empty_and_tiny_inputs_error_cleanly() {
    let l2 = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD);
    assert!(matches!(
        l2.locate(&[]),
        Err(CoreError::TooFewMeasurements { .. })
    ));
    let one = vec![(Point3::ORIGIN, 0.2)];
    assert!(matches!(
        l2.locate(&one),
        Err(CoreError::TooFewMeasurements { .. })
    ));
}

#[test]
fn identical_positions_are_degenerate() {
    let m: Vec<(Point3, f64)> = (0..50).map(|i| (Point3::ORIGIN, 0.01 * i as f64)).collect();
    assert!(matches!(
        Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD).locate(&m),
        Err(CoreError::DegenerateGeometry { .. })
    ));
}

#[test]
fn single_line_3d_is_rejected_with_guidance() {
    let target = Point3::new(0.0, 1.0, 0.3);
    let lambda = 299_792_458.0 / 920.625e6;
    let m: Vec<(Point3, f64)> = (0..200)
        .map(|i| {
            let p = Point3::new(-0.5 + i as f64 * 0.005, 0.0, 0.0);
            let phase = (4.0 * std::f64::consts::PI * target.distance(p) / lambda)
                .rem_euclid(std::f64::consts::TAU);
            (p, phase)
        })
        .collect();
    match Localizer::new(LocalizerConfig::default(), SolveSpace::ThreeD).locate(&m) {
        Err(CoreError::DegenerateGeometry { detail }) => {
            assert!(detail.contains("linear"), "detail: {detail}");
        }
        other => panic!("expected DegenerateGeometry, got {other:?}"),
    }
}

#[test]
fn parabola_rejects_circular_scans() {
    let m = clean_circle_measurements(Point3::new(0.5, 0.5, 0.0), 100);
    assert!(matches!(
        parabola::locate(&m, &parabola::ParabolaConfig::default()),
        Err(BaselineError::UnsupportedGeometry { .. })
    ));
}

#[test]
fn hologram_rejects_bad_volumes_and_grids() {
    let m = clean_circle_measurements(Point3::new(0.5, 0.5, 0.0), 20);
    let volume = hologram::SearchVolume::square_2d(Point3::new(0.5, 0.5, 0.0), 0.0);
    assert!(hologram::locate(&m, volume, &hologram::HologramConfig::default()).is_err());
    let volume = hologram::SearchVolume::square_2d(Point3::new(0.5, 0.5, 0.0), 0.05);
    let bad = hologram::HologramConfig {
        grid_size: -0.001,
        ..hologram::HologramConfig::default()
    };
    assert!(hologram::locate(&m, volume, &bad).is_err());
}

#[test]
fn hyperbola_errors_are_typed() {
    assert!(matches!(
        hyperbola::locate(&[], &hyperbola::HyperbolaConfig::default()),
        Err(BaselineError::Core(_))
    ));
}

#[test]
fn errors_format_and_chain() {
    use std::error::Error;
    let err = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
        .locate(&[])
        .unwrap_err();
    let s = err.to_string();
    assert!(!s.is_empty());
    // Boxing works (Send + Sync + 'static).
    let boxed: Box<dyn Error + Send + Sync> = Box::new(err);
    assert!(boxed.source().is_none());
}

#[test]
fn unified_error_preserves_kind_and_domain_across_crates() {
    // Every per-crate error funnels into `lion::Error` with its stable
    // machine-readable kind intact and a domain naming the origin crate.
    let core_err = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
        .locate(&[])
        .unwrap_err();
    let unified: lion::Error = core_err.into();
    assert_eq!(unified.kind(), "too_few_measurements");
    assert_eq!(unified.domain(), "core");

    let geom_err = LineSegment::new(Point3::ORIGIN, Point3::ORIGIN).unwrap_err();
    let unified: lion::Error = geom_err.into();
    assert_eq!(unified.kind(), "invalid_input");
    assert_eq!(unified.domain(), "geom");

    let baseline_err = hyperbola::locate(&[], &hyperbola::HyperbolaConfig::default()).unwrap_err();
    let unified: lion::Error = baseline_err.into();
    assert_eq!(unified.domain(), "baselines");

    // Display carries the domain prefix; source() chains to the inner error.
    use std::error::Error as _;
    assert!(unified.to_string().starts_with("baselines: "));
    assert!(unified.source().is_some());
}

#[test]
fn frequency_hopping_degrades_but_does_not_panic() {
    // Naive unwrapping across channel hops violates the constant-λ
    // assumption; the pipeline must survive and report *something* (with
    // large error), never panic.
    let target = Point3::new(0.3, 0.8, 0.0);
    let antenna = Antenna::builder(target).build();
    let mut sc = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("hop"))
        .noise(NoiseModel::noiseless())
        .frequency_plan(FrequencyPlan::fcc_hopping(0.2))
        .seed(5)
        .build()
        .expect("components set");
    let circle = CircularArc::turntable(Point3::ORIGIN, 0.3).expect("valid");
    let m = sc
        .scan(&circle, 0.1, 100.0)
        .expect("valid scan")
        .to_measurements();
    // May succeed with degraded accuracy or fail with a typed error; both
    // are acceptable, panicking is not.
    let _ = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD).locate(&m);
}

#[test]
fn zero_speed_scan_is_rejected() {
    let antenna = Antenna::builder(Point3::new(0.0, 1.0, 0.0)).build();
    let mut sc = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("t"))
        .seed(1)
        .build()
        .expect("components set");
    let track = LineSegment::along_x(-0.1, 0.1, 0.0, 0.0).expect("valid");
    assert!(sc.scan(&track, 0.0, 100.0).is_err());
    assert!(sc.scan(&track, 0.1, f64::NAN).is_err());
}

#[test]
fn recovery_failure_is_reported_when_hint_is_wrong_side_of_disc() {
    // Craft measurements where d_r² < planar distance² by corrupting the
    // phases so the implied reference distance shrinks drastically.
    let lambda = 299_792_458.0 / 920.625e6;
    let target = Point3::new(0.0, 0.05, 0.0); // extremely close to the track
    let m: Vec<(Point3, f64)> = (0..100)
        .map(|i| {
            let p = Point3::new(-0.5 + i as f64 * 0.01, 0.0, 0.0);
            let phase = (4.0 * std::f64::consts::PI * target.distance(p) / lambda)
                .rem_euclid(std::f64::consts::TAU);
            (p, phase)
        })
        .collect();
    // With heavy smoothing the near-field kink is distorted; whatever
    // happens must be an Ok or a typed error.
    let cfg = LocalizerConfig {
        smoothing_window: 101,
        ..LocalizerConfig::default()
    };
    let _ = Localizer::new(cfg, SolveSpace::TwoD).locate(&m);
}

#[test]
fn trajectory_validation_propagates_through_sim() {
    use lion::geom::GeomError;
    let bad = LineSegment::new(Point3::ORIGIN, Point3::ORIGIN);
    assert!(matches!(bad, Err(GeomError::InvalidInput { .. })));
    // Path with zero segments scans to an empty trace... the sampler emits
    // nothing, and the localizer then rejects it.
    let path = lion::geom::Path::new();
    assert_eq!(path.sample(0.1, 100.0).len(), 1);
}
