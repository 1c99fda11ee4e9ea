//! Identical cells solve once: a scanning range that keeps the same reads
//! as an earlier range copies that range's trials instead of solving
//! them again. The copy must be invisible in the outcome.
//!
//! The oracle runs every range as its own single-range sweep — which has
//! no earlier range to copy from — then ranks and reduces the pooled
//! trials by the documented rule. On a track shorter than the widest
//! range, the full sweep (sequential, and `SweepPlan` + `finish`) must
//! equal that oracle with `==`, and `adaptive_cells_reused` must count
//! exactly the copied trials.

use std::f64::consts::{PI, TAU};

use lion_core::{
    AdaptiveConfig, AdaptiveOutcome, AdaptiveTrial, CoreError, GridConfig, Localizer,
    LocalizerConfig, PairStrategy, SolveSpace, SolverKind, SweepPlan, Workspace,
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
    let mut rng = Lcg(0x5DEE_CE66D);
    positions
        .iter()
        .map(|&p| {
            let phase = 4.0 * PI * target.distance(p) / LAMBDA + sigma * rng.normal();
            (p, phase.rem_euclid(TAU))
        })
        .collect()
}

/// A 0.8 m line: every range from 0.8 m up keeps (nearly) all of it.
fn short_line() -> Vec<Point3> {
    (0..=160)
        .map(|i| Point3::new(-0.4 + i as f64 * 0.005, 0.0, 0.0))
        .collect()
}

/// The paper's three-line calibration scan (Fig. 11), traversed
/// serpentine-style with its connectors, one read every 2 mm.
fn three_line_scan(scan: &ThreeLineScan) -> Vec<Point3> {
    let path = scan.to_path();
    (0..=(path.length() / 0.002) as usize)
        .map(|i| path.position(i as f64 * 0.002))
        .collect()
}

struct Case {
    space: SolveSpace,
    config: LocalizerConfig,
    reads: Vec<(Point3, f64)>,
    grid: AdaptiveConfig,
}

impl Case {
    fn sweep(
        &self,
        grid: &AdaptiveConfig,
        ws: &mut Workspace,
    ) -> Result<AdaptiveOutcome, CoreError> {
        Localizer::new(self.config.clone(), self.space).locate_adaptive_in(&self.reads, grid, ws)
    }

    fn plan(&self) -> SweepPlan {
        let ws = &mut Workspace::new();
        Localizer::new(self.config.clone(), self.space)
            .sweep_plan(&self.reads, &self.grid, ws)
            .expect("plan builds")
    }

    /// Reads kept by each range, centered on the track's x centroid.
    fn kept_per_range(&self) -> Vec<usize> {
        let cx = self.reads.iter().map(|(p, _)| p.x).sum::<f64>() / self.reads.len() as f64;
        self.grid
            .scanning_ranges
            .iter()
            .map(|r| {
                let (lo, hi) = (cx - r / 2.0, cx + r / 2.0);
                self.reads
                    .iter()
                    .filter(|(p, _)| p.x >= lo && p.x <= hi)
                    .count()
            })
            .collect()
    }

    /// Runs each range alone and pools, ranks and reduces the results.
    /// Also returns how many trials the full sweep should copy: those of
    /// every range keeping as many reads as an earlier one.
    fn oracle(&self) -> (AdaptiveOutcome, u64) {
        let kept = self.kept_per_range();
        let mut out = AdaptiveOutcome::default();
        let mut copies = 0;
        for (k, &range) in self.grid.scanning_ranges.iter().enumerate() {
            let single = AdaptiveConfig {
                scanning_ranges: vec![range],
                ..self.grid.clone()
            };
            let (trials, skipped) = match self.sweep(&single, &mut Workspace::new()) {
                Ok(o) => (o.trials, o.skipped),
                Err(CoreError::NoPairs) => (Vec::new(), self.grid.intervals.len()),
                Err(e) => panic!("single-range sweep {range}: {e}"),
            };
            if kept[..k].contains(&kept[k]) {
                copies += trials.len() as u64;
            }
            out.trials.extend(trials);
            out.skipped += skipped;
        }
        rank_and_reduce(self.grid.keep, &mut out);
        (out, copies)
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

fn check(case: &Case) {
    let (oracle, copies) = case.oracle();
    assert!(copies > 0, "the case must exercise reuse");

    let mut ws = Workspace::new();
    let sequential = case.sweep(&case.grid, &mut ws).expect("sweep succeeds");
    assert_eq!(sequential, oracle);
    let metrics = ws.take_metrics();
    assert_eq!(metrics.adaptive_cells_reused, copies);
    assert_eq!(metrics.adaptive_trials, sequential.trials.len() as u64);

    // The plan hands out only the cells of ranges with new reads.
    let kept = case.kept_per_range();
    let distinct = (0..kept.len())
        .filter(|&k| !kept[..k].contains(&kept[k]))
        .count();
    let plan = case.plan();
    assert_eq!(plan.cell_count(), distinct * case.grid.intervals.len());
    let mut ws = Workspace::new();
    let results: Vec<Result<AdaptiveTrial, CoreError>> = (0..plan.cell_count())
        .map(|i| plan.solve_cell(i, &mut ws))
        .collect();
    assert_eq!(plan.finish(results).expect("plan succeeds"), sequential);
}

#[test]
fn reuse_matches_per_range_oracle_2d_interval() {
    let target = Point3::new(0.1, 0.8, 0.0);
    check(&Case {
        space: SolveSpace::TwoD,
        config: LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        },
        reads: noisy_reads(target, &short_line(), 0.05),
        // Two tiny ranges that keep too few reads: failed cells are
        // copied (as skips) too.
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.001, 0.002, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1],
            ..AdaptiveConfig::default()
        },
    });
}

#[test]
fn reuse_matches_per_range_oracle_3d_structured_scan() {
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let target = Point3::new(0.03, 0.8, 0.12);
    check(&Case {
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
        reads: noisy_reads(target, &three_line_scan(&scan), 0.05),
        grid: AdaptiveConfig::default(),
    });
}

#[test]
fn reuse_matches_per_range_oracle_grid_backend() {
    let target = Point3::new(0.1, 0.8, 0.0);
    check(&Case {
        space: SolveSpace::TwoD,
        config: LocalizerConfig {
            smoothing_window: 1,
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            solver: SolverKind::Grid(GridConfig::default()),
            ..LocalizerConfig::default()
        },
        reads: noisy_reads(target, &short_line(), 0.05),
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.6, 0.9, 1.0, 1.1],
            intervals: vec![0.2, 0.3],
            keep: 2,
        },
    });
}
