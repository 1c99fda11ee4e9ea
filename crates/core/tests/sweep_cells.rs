//! Every cell of the adaptive sweep equals a standalone solve.
//!
//! The sweep prepares each scanning range once (restriction, frame,
//! reference, deltas, coordinates, scan lines) and then solves it at every
//! interval. This oracle does none of that sharing: for each
//! `(range, interval)` cell it restricts the preprocessed profile with
//! `restrict_x(cx ± range/2)` and runs `Localizer::locate_profile_in`
//! with that cell's interval and a fresh workspace. The pooled results,
//! ranked and reduced by the documented rule, must equal the sweep with
//! `==`, skip counts included.

use std::f64::consts::{PI, TAU};

use lion_core::{
    AdaptiveConfig, AdaptiveOutcome, AdaptiveTrial, Localizer, LocalizerConfig, PairStrategy,
    PhaseProfile, SolveSpace, Workspace,
};
use lion_geom::{Point3, ThreeLineScan, Trajectory};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// Deterministic LCG, approximately Gaussian via a sum of 12 uniforms.
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

fn noisy_reads(target: Point3, positions: &[Point3], sigma: f64) -> Vec<(Point3, f64)> {
    let mut rng = Lcg(0x2F6B_1C3D);
    positions
        .iter()
        .map(|&p| {
            let phase = 4.0 * PI * target.distance(p) / LAMBDA + sigma * rng.normal();
            (p, phase.rem_euclid(TAU))
        })
        .collect()
}

struct Case {
    space: SolveSpace,
    config: LocalizerConfig,
    reads: Vec<(Point3, f64)>,
    grid: AdaptiveConfig,
}

impl Case {
    /// Solves every cell on its own and reduces the pooled trials.
    fn oracle(&self) -> AdaptiveOutcome {
        let mut profile =
            PhaseProfile::from_wrapped(&self.reads, self.config.wavelength).expect("valid reads");
        profile.smooth(self.config.smoothing_window);
        let cx = profile.xs().iter().sum::<f64>() / profile.len() as f64;
        let mut out = AdaptiveOutcome::default();
        for &range in &self.grid.scanning_ranges {
            let cell = profile.restrict_x(cx - range / 2.0, cx + range / 2.0);
            for &interval in &self.grid.intervals {
                let config = LocalizerConfig {
                    pair_strategy: self.config.pair_strategy.with_interval(interval),
                    reference_index: None,
                    ..self.config.clone()
                };
                match Localizer::new(config, self.space)
                    .locate_profile_in(&cell, &mut Workspace::new())
                {
                    Ok(estimate) => out.trials.push(AdaptiveTrial {
                        range,
                        interval,
                        estimate,
                    }),
                    Err(_) => out.skipped += 1,
                }
            }
        }
        rank_and_reduce(self.grid.keep, &mut out);
        out
    }
}

/// The documented reduction: rank by `|mean residual|`, then interval,
/// then range; average the `keep` best positions into the best trial's
/// estimate.
fn rank_and_reduce(keep: usize, out: &mut AdaptiveOutcome) {
    out.trials.sort_by(|a, b| {
        a.estimate
            .mean_residual
            .abs()
            .total_cmp(&b.estimate.mean_residual.abs())
            .then(a.interval.total_cmp(&b.interval))
            .then(a.range.total_cmp(&b.range))
    });
    let keep = keep.min(out.trials.len());
    let inv = 1.0 / keep as f64;
    let avg = out.trials[..keep].iter().fold(Point3::ORIGIN, |acc, t| {
        Point3::new(
            acc.x + t.estimate.position.x * inv,
            acc.y + t.estimate.position.y * inv,
            acc.z + t.estimate.position.z * inv,
        )
    });
    out.estimate = out.trials[0].estimate.clone();
    out.estimate.position = avg;
}

/// Checks the sweep against the per-cell oracle; returns it.
fn check(case: &Case) -> AdaptiveOutcome {
    let oracle = case.oracle();
    let localizer = Localizer::new(case.config.clone(), case.space);

    // Sequential, twice on one workspace: the second sweep starts from
    // the buffers the first left behind.
    let mut ws = Workspace::new();
    for _ in 0..2 {
        let swept = localizer
            .locate_adaptive_in(&case.reads, &case.grid, &mut ws)
            .expect("sweep succeeds");
        assert_eq!(swept, oracle);
    }
    oracle
}

#[test]
fn every_cell_matches_a_standalone_solve_2d_interval() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let line: Vec<Point3> = (0..=240)
        .map(|i| Point3::new(-0.6 + i as f64 * 0.005, 0.0, 0.0))
        .collect();
    let oracle = check(&Case {
        space: SolveSpace::TwoD,
        config: LocalizerConfig {
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        },
        reads: noisy_reads(target, &line, 0.05),
        grid: AdaptiveConfig::default(),
    });
    assert_eq!(oracle.trials.len(), 36);
}

#[test]
fn every_cell_matches_a_standalone_solve_3d_structured_scan() {
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let path = scan.to_path();
    let positions: Vec<Point3> = (0..=(path.length() / 0.002) as usize)
        .map(|i| path.position(i as f64 * 0.002))
        .collect();
    let oracle = check(&Case {
        space: SolveSpace::ThreeD,
        config: LocalizerConfig {
            pair_strategy: PairStrategy::StructuredScan {
                scan,
                x_interval: 0.2,
                tolerance: 0.003,
            },
            side_hint: Some(Point3::new(0.0, 0.8, 0.1)),
            ..LocalizerConfig::default()
        },
        reads: noisy_reads(Point3::new(0.03, 0.8, 0.12), &positions, 0.05),
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.3, 0.45, 0.6, 0.7, 0.8, 1.0],
            ..AdaptiveConfig::default()
        },
    });
    assert!(oracle.trials.len() > 20);
}

#[test]
fn failed_cells_are_skipped_like_standalone_failures() {
    // A 0.8 m line. The 1 mm range keeps too few reads and fails in
    // preparation at every interval; the 0.3 m range has no pairs at
    // 0.35 m or more; the rest solve.
    let target = Point3::new(0.1, 0.8, 0.0);
    let line: Vec<Point3> = (0..=160)
        .map(|i| Point3::new(-0.4 + i as f64 * 0.005, 0.0, 0.0))
        .collect();
    let case = Case {
        space: SolveSpace::TwoD,
        config: LocalizerConfig {
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        },
        reads: noisy_reads(target, &line, 0.05),
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.001, 0.3, 0.6, 0.9],
            intervals: vec![0.1, 0.2, 0.35, 0.5],
            keep: 2,
        },
    };
    // 4 preparation failures + 2 pairless cells of the 0.3 m range.
    assert_eq!(check(&case).skipped, 6);
}
