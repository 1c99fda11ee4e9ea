//! End-to-end integration tests: simulate hardware with hidden ground
//! truth, run the full LION pipeline, and check the truth is recovered.

use lion::core::{
    AdaptiveConfig, Calibrator, Localizer, LocalizerConfig, PairStrategy, SolveSpace, Weighting,
    Workspace,
};
use lion::geom::{CircularArc, LineSegment, Path, Point3, ThreeLineScan, Trajectory, Vec3};
use lion::linalg::{stats, IrlsConfig};
use lion::sim::{Antenna, NoiseModel, ScenarioBuilder, Tag};

fn scenario(antenna: Antenna, seed: u64) -> lion::sim::Scenario {
    ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("it").with_phase_offset(0.8))
        .noise(NoiseModel::paper_default())
        .seed(seed)
        .build()
        .expect("components set")
}

#[test]
fn full_calibration_recovers_planted_displacement_and_offset() {
    let physical = Point3::new(0.0, 0.8, 0.05);
    let antenna = Antenna::builder(physical)
        .phase_center_displacement(0.022, -0.013, 0.017)
        .phase_offset(3.1)
        .build();
    let truth_center = antenna.phase_center();
    let truth_offset = 3.1 + 0.8; // antenna + tag

    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let mut sc = scenario(antenna, 17);
    let m = sc
        .scan(&scan.to_path(), 0.1, 100.0)
        .expect("valid scan")
        .to_measurements();
    let cfg = LocalizerConfig {
        pair_strategy: PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.003,
        },
        side_hint: Some(physical),
        ..LocalizerConfig::default()
    };
    let cal = Calibrator::new(cfg)
        .with_adaptive(None)
        .calibrate(&m, physical)
        .expect("calibration succeeds");

    assert!(
        cal.phase_center.distance(truth_center) < 0.008,
        "center error {} m",
        cal.phase_center.distance(truth_center)
    );
    let off_err = stats::circular_diff(cal.phase_offset, truth_offset).abs();
    assert!(off_err < 0.3, "offset error {off_err} rad");
    // Displacement = estimated center − physical center.
    let disp_err = (cal.center_displacement - (truth_center - physical)).norm();
    assert!(disp_err < 0.008, "displacement error {disp_err}");
}

#[test]
fn calibration_with_adaptive_sweep_also_works() {
    let physical = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(physical)
        .phase_center_displacement(0.018, -0.01, 0.012)
        .build();
    let truth = antenna.phase_center();
    let scan = ThreeLineScan::new(-0.5, 0.5, 0.2, 0.2).expect("valid scan");
    let mut sc = scenario(antenna, 23);
    let m = sc
        .scan(&scan.to_path(), 0.1, 100.0)
        .expect("valid scan")
        .to_measurements();
    let cfg = LocalizerConfig {
        pair_strategy: PairStrategy::StructuredScan {
            scan,
            x_interval: 0.2,
            tolerance: 0.003,
        },
        side_hint: Some(physical),
        ..LocalizerConfig::default()
    };
    let cal = Calibrator::new(cfg)
        .with_adaptive(Some(AdaptiveConfig::default()))
        .calibrate(&m, physical)
        .expect("calibration succeeds");
    assert!(
        cal.phase_center.distance(truth) < 0.012,
        "center error {} m",
        cal.phase_center.distance(truth)
    );
}

#[test]
fn localizer_2d_matches_hologram_on_shared_trace() {
    use lion::baselines::hologram::{self, HologramConfig, SearchVolume};
    let target = Point3::new(0.4, 0.9, 0.0);
    let antenna = Antenna::builder(target).build();
    let circle = CircularArc::turntable(Point3::ORIGIN, 0.3).expect("valid");
    let mut sc = scenario(antenna, 29);
    let trace = sc.scan(&circle, 0.1, 100.0).expect("valid scan");
    let m = trace.to_measurements();

    let lion_est = Localizer::new(
        LocalizerConfig {
            side_hint: Some(Point3::new(0.3, 0.8, 0.0)),
            ..LocalizerConfig::default()
        },
        SolveSpace::TwoD,
    )
    .locate(&m)
    .expect("lion locates");

    let dec: Vec<(Point3, f64)> = m.iter().step_by(10).copied().collect();
    let dah_est = hologram::locate(
        &dec,
        SearchVolume::square_2d(target, 0.05),
        &HologramConfig {
            grid_size: 0.002,
            wavelength: trace.wavelength(),
            augmented: true,
        },
    )
    .expect("hologram locates");

    // Both close to the truth, and to each other.
    assert!(lion_est.distance_error(target) < 0.02);
    assert!(dah_est.position.distance(target) < 0.02);
    assert!(lion_est.position.distance(dah_est.position) < 0.03);
}

#[test]
fn localizer_agrees_with_hyperbola_baseline() {
    use lion::baselines::hyperbola::{self, HyperbolaConfig};
    let target = Point3::new(0.7, 0.4, 0.0);
    let antenna = Antenna::builder(target).build();
    let circle = CircularArc::turntable(Point3::ORIGIN, 0.3).expect("valid");
    let mut sc = scenario(antenna, 31);
    let m = sc
        .scan(&circle, 0.1, 100.0)
        .expect("valid scan")
        .to_measurements();

    let lion_est = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
        .locate(&m)
        .expect("lion locates");
    let hyp_est = hyperbola::locate(&m, &HyperbolaConfig::default()).expect("hyperbola locates");

    assert!(lion_est.distance_error(target) < 0.02);
    assert!(hyp_est.position.distance(target) < 0.02);
}

#[test]
fn three_d_localization_from_planar_circle_recovers_height() {
    let target = Point3::new(0.1, 0.2, 0.8);
    let antenna = Antenna::builder(target)
        .boresight(lion::geom::Vec3::new(0.0, 0.0, -1.0))
        .build();
    let circle = CircularArc::turntable(Point3::ORIGIN, 0.35).expect("valid");
    let mut sc = scenario(antenna, 43);
    let m = sc
        .scan(&circle, 0.1, 100.0)
        .expect("valid scan")
        .to_measurements();
    // Nearly-overhead geometry: the phase varies little around the circle,
    // so noisy distance differences attenuate the d_r regressor unless the
    // pairwise phase difference is enlarged — the paper's Fig. 18 lesson
    // (bigger scanning interval) plus heavier smoothing.
    let est = Localizer::new(
        LocalizerConfig {
            side_hint: Some(Point3::new(0.0, 0.0, 0.5)),
            smoothing_window: 51,
            pair_strategy: lion::core::PairStrategy::Interval { interval: 0.45 },
            ..LocalizerConfig::default()
        },
        SolveSpace::ThreeD,
    )
    .locate(&m)
    .expect("locates");
    assert!(est.lower_dimension);
    assert!(
        est.distance_error(target) < 0.03,
        "error {} m",
        est.distance_error(target)
    );
}

#[test]
fn tag_relative_localization_roundtrip() {
    // The conveyor trick: locate a tag's start position from a calibrated
    // antenna via the relative frame, end to end.
    let antenna_center = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(antenna_center).build();
    let mut sc = scenario(antenna, 41);
    let p0 = Point3::new(-0.3, 0.0, 0.0);
    let track = LineSegment::new(p0, Point3::new(0.5, 0.0, 0.0)).expect("valid");
    let trace = sc.scan(&track, 0.1, 100.0).expect("valid scan");
    let rel: Vec<(Point3, f64)> = trace
        .samples()
        .iter()
        .map(|s| (Point3::new(s.position.x - p0.x, 0.0, 0.0), s.phase))
        .collect();
    let est = Localizer::new(
        LocalizerConfig {
            side_hint: Some(Point3::new(0.3, 0.8, 0.0)),
            ..LocalizerConfig::default()
        },
        SolveSpace::TwoD,
    )
    .locate(&rel)
    .expect("locates");
    let p0_est = Point3::new(
        antenna_center.x - est.position.x,
        antenna_center.y - est.position.y,
        0.0,
    );
    assert!(
        p0_est.to_xy().distance(p0.to_xy()) < 0.01,
        "start-position error {} m",
        p0_est.to_xy().distance(p0.to_xy())
    );
}

#[test]
fn calibration_works_in_a_rotated_scan_frame() {
    // Build the scan in its local frame, place it in the world with an
    // Isometry (rotated 20° about z, pushed out to y = 0.3), and calibrate
    // in world coordinates — the localizer must not care about the frame.
    use lion::geom::{Isometry, Vec3};
    let frame = Isometry::rotation_z(20.0_f64.to_radians())
        .then(&Isometry::translation(Vec3::new(0.1, 0.3, 0.0)));
    let physical = frame.apply(Point3::new(0.0, 0.9, 0.1)); // antenna, in front of the scan
    let antenna = Antenna::builder(physical)
        .phase_center_displacement(0.02, -0.012, 0.015)
        .build();
    let truth = antenna.phase_center();
    let mut sc = scenario(antenna, 53);
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    // Sample the local path, map every waypoint into the world, measure.
    let m: Vec<(Point3, f64)> = scan
        .to_path()
        .sample(0.1, 100.0)
        .into_iter()
        .map(|w| {
            let world = frame.apply(w.position);
            let sample = sc.measure_at(w.time, world);
            (world, sample.phase)
        })
        .collect();
    // The structured strategy assumes the local frame, so use generic
    // pairs; the localizer's PCA frame handles the rotation.
    let cfg = LocalizerConfig {
        pair_strategy: PairStrategy::AllWithMinSeparation {
            min_separation: 0.18,
            max_pairs: 4000,
        },
        side_hint: Some(physical),
        ..LocalizerConfig::default()
    };
    let cal = Calibrator::new(cfg)
        .with_adaptive(None)
        .calibrate(&m, physical)
        .expect("calibration succeeds");
    assert!(
        cal.phase_center.distance(truth) < 0.01,
        "center error {} m in rotated frame",
        cal.phase_center.distance(truth)
    );
}

#[test]
fn estimates_are_reproducible_with_fixed_seed() {
    let target = Point3::new(0.5, 0.5, 0.0);
    let run = || {
        let antenna = Antenna::builder(target).build();
        let circle = CircularArc::turntable(Point3::ORIGIN, 0.3).expect("valid");
        let mut sc = scenario(antenna, 43);
        let m = sc
            .scan(&circle, 0.1, 100.0)
            .expect("valid scan")
            .to_measurements();
        Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
            .locate(&m)
            .expect("locates")
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// The paper's rig antenna at `position`: a 2–3 cm hidden phase-center
/// displacement and a hardware offset, facing the track.
fn rig_antenna(position: Point3) -> Antenna {
    Antenna::builder(position)
        .phase_center_displacement(0.021, -0.012, 0.016)
        .phase_offset(2.74)
        .boresight(Vec3::new(0.0, -1.0, 0.0))
        .build()
}

#[test]
fn default_irls_tolerance_stays_within_0_02_mm_of_the_rounding_floor() {
    // The default IRLS stops once a reweight moves the estimate by less
    // than 1 µm. Every solve must still converge, and land within
    // 0.02 mm (1.4% of the 1.47 mm Cramér–Rao bound of the calibration
    // rig) of the same solve run down to the 1e-8 m rounding floor.
    // Shapes: the Fig. 13 2D line, the planar 3D serpentine, and one
    // calibration cell (0.8 m range, 0.20 m interval) of the three-line
    // scan. Each cell is solved alone: the adaptive sweep's ranking can
    // flip on sub-µm `mean_residual` changes.
    let floor = Weighting::Weighted(IrlsConfig {
        tolerance: 1e-8,
        ..IrlsConfig::default()
    });
    let mut ws = Workspace::new();
    let mut solves = 0;
    let mut check = |m: &[(Point3, f64)], config: LocalizerConfig, space: SolveSpace| {
        let fast = Localizer::new(config.clone(), space)
            .locate_in(m, &mut ws)
            .expect("locates");
        let exact = Localizer::new(
            LocalizerConfig {
                weighting: floor,
                ..config
            },
            space,
        )
        .locate(m)
        .expect("locates");
        let gap = fast.position.distance(exact.position);
        assert!(
            gap < 2e-5,
            "solve {solves} ({space:?}): {gap:e} m from the floor"
        );
        solves += 1;
    };
    for seed in 0..6u64 {
        let p0 = Point3::new(-0.35 + 0.08 * seed as f64, 0.0, 0.0);
        let line = LineSegment::new(p0, Point3::new(p0.x + 0.6, 0.0, 0.0)).expect("valid");
        // The reads in the tag-start frame: positions relative to `p0`.
        let relative = |trace: lion::sim::PhaseTrace| -> Vec<(Point3, f64)> {
            let offset = p0 - Point3::ORIGIN;
            trace
                .samples()
                .iter()
                .map(|s| (s.position - offset, s.phase))
                .collect()
        };

        let mut sc = scenario(rig_antenna(Point3::new(0.0, 0.8, 0.0)), 100 + seed);
        let trace = sc.scan(&line, 0.1, 100.0).expect("valid scan");
        let config = LocalizerConfig {
            side_hint: Some(Point3::new(0.3, 0.8, 0.0)),
            ..LocalizerConfig::default()
        };
        check(&relative(trace), config, SolveSpace::TwoD);

        let back = LineSegment::new(
            Point3::new(p0.x + 0.6, -0.2, 0.0),
            Point3::new(p0.x, -0.2, 0.0),
        )
        .expect("valid");
        let mut path = Path::new();
        path.push_line(line)
            .connect_to(back.start())
            .push_line(back);
        let mut sc = scenario(rig_antenna(Point3::new(0.0, 0.8, 0.1)), 200 + seed);
        let trace = sc.scan(&path, 0.1, 100.0).expect("valid scan");
        let config = LocalizerConfig {
            side_hint: Some(Point3::new(0.3, 0.8, 0.1)),
            ..LocalizerConfig::default()
        };
        check(&relative(trace), config, SolveSpace::ThreeD);

        let physical = Point3::new(0.0, 0.8, 0.1);
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
        let mut sc = scenario(rig_antenna(physical), 300 + seed);
        let m = sc
            .scan(&scan.to_path(), 0.1, 100.0)
            .expect("valid scan")
            .to_measurements();
        let config = LocalizerConfig {
            pair_strategy: PairStrategy::StructuredScan {
                scan,
                x_interval: 0.2,
                tolerance: 0.003,
            },
            side_hint: Some(physical),
            ..LocalizerConfig::default()
        };
        check(&m, config, SolveSpace::ThreeD);
    }

    let metrics = ws.take_metrics();
    assert_eq!(metrics.solves, 18);
    assert_eq!(metrics.irls_unconverged, 0);
}
