//! Engine determinism and metrics consistency, end to end through the
//! facade: a 64-job batch must produce bit-identical estimates for any
//! worker count, and the aggregated metrics must equal the per-job sums.
//! Calibration jobs through the adaptive sweep, the shape of the
//! `calib_sweep` benchmark workload, must produce `==` calibrations for
//! any worker count as well.

use lion::geom::ThreeLineScan;
use lion::prelude::*;

/// 64 independent localization jobs on serially-simulated noisy traces.
fn batch() -> Vec<Job> {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(antenna_pos)
        .phase_center_displacement(0.015, -0.01, 0.0)
        .build();
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-determinism"))
        .noise(NoiseModel::paper_default())
        .seed(90_210)
        .build()
        .expect("antenna and tag are set");
    (0..64)
        .map(|i| {
            let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0).expect("valid");
            let m = scenario
                .scan(&track, 0.1, 100.0)
                .expect("valid scan")
                .to_measurements();
            let config = LocalizerConfig {
                side_hint: Some(antenna_pos),
                ..LocalizerConfig::paper()
            };
            // Every fourth job exercises the adaptive sweep so its
            // counters show up in the aggregate as well.
            if i % 4 == 3 {
                Job::adaptive_2d(m, config, AdaptiveConfig::default())
            } else {
                Job::locate_2d(m, config)
            }
        })
        .collect()
}

#[test]
fn parallel_estimates_are_bit_identical_to_serial() {
    let jobs = batch();
    let reference = Engine::serial().run(&jobs);
    assert_eq!(reference.results.len(), 64);
    for workers in [1usize, 2, 8] {
        let outcome = Engine::builder()
            .workers(workers)
            .build()
            .expect("valid")
            .run(&jobs);
        assert_eq!(outcome.results.len(), reference.results.len());
        for (i, (got, want)) in outcome.results.iter().zip(&reference.results).enumerate() {
            let got = got.as_ref().expect("job succeeds");
            let want = want.as_ref().expect("job succeeds");
            // Point3 equality is exact: bit-identical coordinates.
            assert_eq!(
                got.position(),
                want.position(),
                "job {i} diverged at {workers} workers"
            );
            assert_eq!(
                got.estimate().map(|e| e.equation_count),
                want.estimate().map(|e| e.equation_count),
                "job {i} equation count diverged at {workers} workers"
            );
        }
        // Deterministic counters match the serial run exactly.
        assert_eq!(outcome.report.total.solves, reference.report.total.solves);
        assert_eq!(
            outcome.report.total.equations,
            reference.report.total.equations
        );
        assert_eq!(
            outcome.report.total.irls_iterations,
            reference.report.total.irls_iterations
        );
        assert_eq!(
            outcome.report.total.adaptive_trials,
            reference.report.total.adaptive_trials
        );
    }
}

#[test]
fn aggregate_metrics_equal_per_job_sums_and_counters_are_live() {
    let jobs = batch();
    let outcome = Engine::builder()
        .workers(2)
        .build()
        .expect("valid")
        .run(&jobs);
    assert_eq!(outcome.job_metrics.len(), 64);

    let mut summed = StageMetrics::default();
    for m in &outcome.job_metrics {
        summed.merge(m);
    }
    assert_eq!(summed, outcome.report.total);

    let total = &outcome.report.total;
    assert!(total.solves >= 64, "solves {}", total.solves);
    assert!(total.equations > 0, "equations {}", total.equations);
    assert!(
        total.irls_iterations > 0,
        "irls_iterations {}",
        total.irls_iterations
    );
    assert!(
        total.adaptive_trials > 0,
        "adaptive_trials {}",
        total.adaptive_trials
    );
    assert!(total.solve_ns > 0, "solve_ns {}", total.solve_ns);
    assert_eq!(outcome.report.jobs, 64);
    assert_eq!(outcome.report.failed, 0);
    assert_eq!(outcome.report.workers, 2);
}

/// Six antenna calibrations on the paper's three-line scan (Fig. 11):
/// 3D `StructuredScan` pairing through the default 6 × 6 adaptive sweep.
/// The lines are 0.8 m long, so the 1.0 m and 1.1 m ranges keep the
/// same reads as the 0.9 m one and copy its cells: 12 of every job's 36
/// cells are copies.
fn calibration_batch() -> Vec<Job> {
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let physical = Point3::new(0.0, 0.8, 0.05);
    (0..6u32)
        .map(|i| {
            let antenna = Antenna::builder(physical)
                .phase_center_displacement(0.02 - 0.004 * f64::from(i), -0.012, 0.015)
                .phase_offset(0.5 * f64::from(i))
                .build();
            let mut scenario = ScenarioBuilder::new()
                .antenna(antenna)
                .tag(Tag::new("E51-calibration"))
                .noise(NoiseModel::paper_default())
                .seed(4_242 + u64::from(i))
                .build()
                .expect("antenna and tag are set");
            let m = scenario
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
            Job::calibrate(m, config, physical)
        })
        .collect()
}

#[test]
fn calibrations_are_identical_across_worker_counts() {
    let jobs = calibration_batch();
    let reference = Engine::serial().run(&jobs);
    let calibrations = |outcome: &lion::engine::BatchOutcome| -> Vec<Calibration> {
        outcome
            .results
            .iter()
            .map(|r| {
                r.as_ref()
                    .expect("calibration succeeds")
                    .calibration()
                    .expect("calibration job")
                    .clone()
            })
            .collect()
    };
    let want = calibrations(&reference);
    let total = &reference.report.total;
    assert_eq!(total.adaptive_trials, 36 * jobs.len() as u64);
    assert_eq!(total.adaptive_cells_reused, 12 * jobs.len() as u64);
    for workers in [1usize, 2, 7] {
        let outcome = Engine::builder()
            .workers(workers)
            .build()
            .expect("valid")
            .run(&jobs);
        assert_eq!(
            calibrations(&outcome),
            want,
            "calibrations diverged at {workers} workers"
        );
        assert_eq!(outcome.report.total.adaptive_trials, total.adaptive_trials);
        assert_eq!(
            outcome.report.total.adaptive_cells_reused,
            total.adaptive_cells_reused
        );
    }
}
