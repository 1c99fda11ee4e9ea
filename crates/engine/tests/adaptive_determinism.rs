//! The adaptive fan-out must be bit-deterministic: any engine worker
//! count produces exactly the same [`AdaptiveOutcome`] as the sequential
//! core sweep — positions, residuals, trial order, skip counts, all of
//! it, compared with `==` (no tolerances).

use std::f64::consts::{PI, TAU};

use lion_core::{AdaptiveConfig, Localizer2d, Localizer3d, LocalizerConfig, PairStrategy};
use lion_engine::Engine;
use lion_geom::Point3;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn phase_of(target: Point3, p: Point3) -> f64 {
    (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
}

/// A fig16-style linear scan with deterministic LCG phase noise, so
/// residuals differ meaningfully between grid cells.
fn noisy_linear_scan(target: Point3, half_range: f64, step: f64, sigma: f64) -> Vec<(Point3, f64)> {
    let mut state: u64 = 0x5DEECE66D;
    let mut noise = || {
        // Two LCG draws → approximately Gaussian via the sum of uniforms.
        let mut sum = 0.0;
        for _ in 0..12 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum += (state >> 11) as f64 / (1u64 << 53) as f64;
        }
        (sum - 6.0) * sigma
    };
    let n = (2.0 * half_range / step) as usize;
    (0..=n)
        .map(|i| {
            let p = Point3::new(-half_range + i as f64 * step, 0.0, 0.0);
            (p, (phase_of(target, p) + noise()).rem_euclid(TAU))
        })
        .collect()
}

fn cfg() -> LocalizerConfig {
    LocalizerConfig {
        smoothing_window: 1,
        pair_strategy: PairStrategy::Interval { interval: 0.2 },
        side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
        ..LocalizerConfig::default()
    }
}

#[test]
fn adaptive_2d_is_bit_identical_across_worker_counts() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = noisy_linear_scan(target, 0.6, 0.005, 0.05);
    let config = cfg();
    let grid = AdaptiveConfig::default();
    let sequential = Localizer2d::new(config.clone())
        .locate_adaptive(&m, &grid)
        .expect("sequential sweep succeeds");
    for workers in [1, 2, 4, 7] {
        let engine = Engine::builder().workers(workers).build().expect("valid");
        let fanned = engine
            .locate_adaptive_2d(&m, &config, &grid)
            .expect("fanned sweep succeeds");
        assert_eq!(sequential, fanned, "workers={workers}");
    }
}

#[test]
fn adaptive_fanout_with_copied_ranges_is_bit_identical() {
    // A 0.8 m track: the 0.9–1.1 m ranges keep the same reads as the
    // 0.8 m one, so the plan solves fewer cells and `finish` copies.
    let target = Point3::new(0.1, 0.8, 0.0);
    let m = noisy_linear_scan(target, 0.4, 0.005, 0.05);
    let config = cfg();
    let grid = AdaptiveConfig::default();
    let sequential = Localizer2d::new(config.clone())
        .locate_adaptive(&m, &grid)
        .expect("sequential sweep succeeds");
    for workers in [1, 2, 5, 7] {
        let engine = Engine::builder().workers(workers).build().expect("valid");
        let fanned = engine
            .locate_adaptive_2d(&m, &config, &grid)
            .expect("fanned sweep succeeds");
        assert_eq!(sequential, fanned, "workers={workers}");
    }
}

#[test]
fn adaptive_3d_is_bit_identical_across_worker_counts() {
    let target = Point3::new(0.1, 0.2, 0.7);
    let m: Vec<(Point3, f64)> = (0..400)
        .map(|i| {
            let a = i as f64 * TAU / 400.0;
            let p = Point3::new(0.35 * a.cos(), 0.35 * a.sin(), 0.0);
            (p, phase_of(target, p))
        })
        .collect();
    let mut config = cfg();
    config.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
    let grid = AdaptiveConfig {
        scanning_ranges: vec![0.5, 0.7],
        intervals: vec![0.15, 0.2, 0.25],
        keep: 2,
    };
    let sequential = Localizer3d::new(config.clone())
        .locate_adaptive(&m, &grid)
        .expect("sequential sweep succeeds");
    for workers in [1, 3, 6] {
        let engine = Engine::builder().workers(workers).build().expect("valid");
        let fanned = engine
            .locate_adaptive_3d(&m, &config, &grid)
            .expect("fanned sweep succeeds");
        assert_eq!(sequential, fanned, "workers={workers}");
    }
}

#[test]
fn per_cell_failures_count_as_skipped_in_fanout() {
    let target = Point3::new(0.0, 0.8, 0.0);
    let m = noisy_linear_scan(target, 0.5, 0.01, 0.02);
    let config = cfg();
    // The 1 mm range keeps too few samples in every interval column.
    let grid = AdaptiveConfig {
        scanning_ranges: vec![0.001, 0.8],
        intervals: vec![0.2, 0.3],
        keep: 1,
    };
    let sequential = Localizer2d::new(config.clone())
        .locate_adaptive(&m, &grid)
        .expect("usable cells remain");
    let fanned = Engine::builder()
        .workers(4)
        .build()
        .expect("valid")
        .locate_adaptive_2d(&m, &config, &grid)
        .expect("usable cells remain");
    assert_eq!(sequential, fanned);
    assert_eq!(fanned.skipped, 2);
}
