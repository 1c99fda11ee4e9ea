//! Cross-backend parity suite: the likelihood-grid solver must agree
//! with the linear (least-squares) solver within the documented
//! tolerance, stay bit-identical across engine worker counts, and
//! surface its typed failures through the workspace error taxonomy and
//! the engine's failure accounting.

use lion::prelude::*;
use std::f64::consts::{PI, TAU};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// Deterministic LCG standard-normal-ish draws (sum of 12 uniforms).
struct Lcg(u64);

impl Lcg {
    fn normal(&mut self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..12 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum += (self.0 >> 11) as f64 / (1u64 << 53) as f64;
        }
        sum - 6.0
    }
}

/// A fig16-style workload: a tag scanned along a ±0.75 m track in front
/// of an antenna at 0.8 m depth, with Gaussian phase noise.
fn fig16_measurements(target: Point3, sigma: f64, seed: u64) -> Vec<(Point3, f64)> {
    let mut rng = Lcg(seed);
    (0..=300)
        .map(|i| {
            let p = Point3::new(-0.75 + i as f64 * 0.005, 0.0, 0.0);
            let phase = 4.0 * PI * target.distance(p) / LAMBDA + sigma * rng.normal();
            (p, phase.rem_euclid(TAU))
        })
        .collect()
}

fn config(solver: SolverKind) -> LocalizerConfig {
    LocalizerConfig::builder()
        .pair_strategy(PairStrategy::Interval { interval: 0.2 })
        .side_hint(Point3::new(0.0, 0.5, 0.0))
        .solver(solver)
        .build()
        .expect("valid config")
}

/// DESIGN §12 documents the cross-backend agreement contract: on the
/// fig16 rig the grid backend lands within 2 cm of the linear estimate
/// under σ = 0.1 rad phase noise, and within 1 mm noiselessly.
#[test]
fn grid_matches_linear_within_documented_tolerance_on_fig16() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let linear = Localizer::new(config(SolverKind::Linear), SolveSpace::TwoD);
    let grid = Localizer::new(
        config(SolverKind::Grid(GridConfig::default())),
        SolveSpace::TwoD,
    );

    // Noiseless (smoothing off, so neither backend sees biased phases):
    // both objectives share the same global minimum, and the grid's
    // final polish converges onto it.
    let unsmoothed = |solver| {
        let mut c = config(solver);
        c.smoothing_window = 1;
        Localizer::new(c, SolveSpace::TwoD)
    };
    let clean = fig16_measurements(target, 0.0, 7);
    let ls = unsmoothed(SolverKind::Linear)
        .locate(&clean)
        .expect("linear solves");
    let lg = unsmoothed(SolverKind::Grid(GridConfig::default()))
        .locate(&clean)
        .expect("grid solves");
    let d = ls.position.distance(lg.position);
    assert!(d < 1e-3, "noiseless backends diverged by {d} m");
    assert!(lg.distance_error(target) < 1e-3);

    // Noisy: the per-sample likelihood and the pairwise WLS objective
    // weight the same data differently, so the minima separate — but
    // must stay inside the documented 2 cm agreement radius.
    for seed in [7, 42, 1234] {
        let noisy = fig16_measurements(target, 0.1, seed);
        let ls = linear.locate(&noisy).expect("linear solves");
        let lg = grid.locate(&noisy).expect("grid solves");
        let d = ls.position.distance(lg.position);
        assert!(d < 0.02, "seed {seed}: backends diverged by {d} m");
        assert!(
            lg.distance_error(target) < 0.1,
            "seed {seed}: grid error {}",
            lg.distance_error(target)
        );
    }
}

/// The adaptive sweep with a grid backend is one deterministic function
/// of its inputs: fanning the sweep plan across workers must reproduce
/// the serial outcome bit for bit.
#[test]
fn grid_sweep_is_bit_identical_across_worker_counts() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = fig16_measurements(target, 0.1, 99);
    let cfg = config(SolverKind::Grid(GridConfig::default()));
    let adaptive = AdaptiveConfig::default();

    let serial = Engine::serial()
        .locate_adaptive(&m, &cfg, SolveSpace::TwoD, &adaptive)
        .expect("serial sweep");
    for workers in [2, 4, 7] {
        let engine = Engine::builder().workers(workers).build().expect("valid");
        let fanned = engine
            .locate_adaptive(&m, &cfg, SolveSpace::TwoD, &adaptive)
            .expect("fanned sweep");
        let (s, f) = (serial.estimate.position, fanned.estimate.position);
        assert_eq!(s.x.to_bits(), f.x.to_bits(), "{workers} workers: x");
        assert_eq!(s.y.to_bits(), f.y.to_bits(), "{workers} workers: y");
        assert_eq!(s.z.to_bits(), f.z.to_bits(), "{workers} workers: z");
        assert_eq!(serial.trials.len(), fanned.trials.len());
        for (rank, (a, b)) in serial.trials.iter().zip(&fanned.trials).enumerate() {
            assert_eq!(
                (a.range, a.interval),
                (b.range, b.interval),
                "{workers} workers: ranking diverged at rank {rank}"
            );
        }
    }
}

/// A grid whose contrast gate is impossibly strict fails with
/// `DegenerateLikelihood`; the kind must survive the trip through the
/// engine's per-kind failure accounting, the workspace `lion::Error`,
/// and the flight recorder's failure dumps.
#[test]
fn degenerate_likelihood_flows_through_the_error_taxonomy() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = fig16_measurements(target, 0.0, 7);
    let poisoned = config(SolverKind::Grid(GridConfig {
        min_contrast: 1e12,
        ..GridConfig::default()
    }));
    let jobs = vec![
        Job::locate_2d(m.clone(), poisoned.clone()),
        Job::locate_2d(m.clone(), poisoned),
        Job::locate_2d(m, config(SolverKind::Linear)),
    ];
    let outcome = Engine::serial().run(&jobs);

    // The healthy linear job is unaffected; both poisoned jobs fail
    // with the typed grid error.
    assert!(outcome.results[2].is_ok(), "linear job must still solve");
    for result in &outcome.results[..2] {
        let err = result.as_ref().expect_err("poisoned grid fails");
        assert_eq!(err.kind(), "degenerate_likelihood");
    }
    assert_eq!(outcome.report.failed, 2);
    assert!(
        outcome
            .report
            .failures_by_kind
            .contains(&("degenerate_likelihood".to_string(), 2)),
        "failures_by_kind: {:?}",
        outcome.report.failures_by_kind
    );

    // Conversion into the workspace error preserves kind and domain and
    // files a flight-recorder dump.
    let recorder = install_flight_recorder(64);
    let core_err = outcome.results[0].as_ref().unwrap_err().clone();
    let unified: lion::Error = core_err.into();
    assert_eq!(unified.kind(), "degenerate_likelihood");
    assert_eq!(unified.domain(), "core");
    let failures = recorder.failures();
    lion::obs::uninstall_flight_recorder();
    let dump = failures.last().expect("conversion filed a dump");
    assert_eq!(dump.domain, "core");
    assert_eq!(dump.kind, "degenerate_likelihood");
}
