//! Forced-dispatch hook: CI exercises the scalar fallback end to end.
//!
//! Every SIMD kernel ships with a bit-identical scalar twin, and
//! `lion_linalg::simd::force` pins the dispatcher to one backend. This
//! suite runs the batch, windowed and adaptive-sweep localization paths
//! twice — once auto-dispatched (AVX2/NEON where available), once forced
//! to scalar — and demands bitwise-equal estimates. It covers every
//! width the fixed-width kernels serve: a 2D line (2 unknowns), a 2D
//! circle (3) and a 3D three-line `StructuredScan` (4). The reads are
//! noisy, so the Gaussian IRLS weights leave uniform and the reweight
//! kernels do real work. On hosts without SIMD the two runs are
//! trivially the same path; on SIMD hosts this is the end-to-end proof
//! that vectorization never changes a solve. One test binary, one test
//! fn: `force` is process-global state.

use std::f64::consts::{PI, TAU};

use lion_core::{
    AdaptiveConfig, Estimate, Localizer, LocalizerConfig, PairStrategy, SlidingWindow, SolveSpace,
    Workspace,
};
use lion_geom::{Point3, ThreeLineScan, Trajectory};
use lion_linalg::simd::{self, Backend};

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

/// Wrapped phases of `target` seen from `positions`, with 0.05 rad of
/// Gaussian phase noise.
fn noisy_reads(target: Point3, positions: &[Point3]) -> Vec<(Point3, f64)> {
    let mut rng = Lcg(0x5CA1_AB1E);
    positions
        .iter()
        .map(|&p| {
            let phase = 4.0 * PI * target.distance(p) / LAMBDA + 0.05 * rng.normal();
            (p, phase.rem_euclid(TAU))
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
    assert!(auto.iterations > 0, "{path}: IRLS never reweighted");
    assert_eq!(
        auto.equation_count, scalar.equation_count,
        "{path}: equation_count"
    );
}

/// Runs `solve` auto-dispatched, then with the scalar backend forced.
fn both<T>(mut solve: impl FnMut() -> T) -> (T, T) {
    let auto = solve();
    simd::force(Some(Backend::Scalar));
    let scalar = solve();
    simd::force(None);
    (auto, scalar)
}

struct Case {
    name: &'static str,
    /// Unknowns of the radical-line system this geometry produces.
    unknowns: usize,
    localizer: Localizer,
    target: Point3,
    reads: Vec<(Point3, f64)>,
    grid: AdaptiveConfig,
}

impl Case {
    fn check(&self) {
        let mut ws = Workspace::new();
        let name = self.name;

        // Batch path.
        let (auto, scalar) = both(|| {
            self.localizer
                .locate_in(&self.reads, &mut ws)
                .expect("batch solve")
        });
        assert_bit_identical(&auto, &scalar, &format!("{name} batch"));
        let dims = match self.localizer.space() {
            SolveSpace::TwoD => 2,
            _ => 3,
        };
        // A lower-dimension scan spans one axis fewer; `d_r` adds one.
        assert_eq!(
            dims - usize::from(auto.lower_dimension) + 1,
            self.unknowns,
            "{name}: system width"
        );
        // Guards against both runs agreeing on garbage.
        assert!(
            auto.distance_error(self.target) < 5e-2,
            "{name}: error {}",
            auto.distance_error(self.target)
        );

        // Windowed path, over a window that holds every read.
        let mut window = SlidingWindow::new(self.reads.len()).expect("valid capacity");
        for (i, &(p, phase)) in self.reads.iter().enumerate() {
            window.push(i as f64 * 0.01, p, phase);
        }
        let (auto, scalar) = both(|| {
            self.localizer
                .locate_window_in(&window, &mut ws)
                .expect("windowed solve")
        });
        assert_bit_identical(&auto, &scalar, &format!("{name} windowed"));

        // Adaptive sweep: every trial, not just the reduced estimate.
        let (auto, scalar) = both(|| {
            self.localizer
                .locate_adaptive_in(&self.reads, &self.grid, &mut ws)
                .expect("adaptive sweep")
        });
        assert_eq!(auto.skipped, scalar.skipped, "{name} sweep skipped");
        assert_eq!(auto.trials.len(), scalar.trials.len(), "{name} sweep");
        assert!(!auto.trials.is_empty(), "{name}: sweep solved no cell");
        assert_bit_identical(&auto.estimate, &scalar.estimate, &format!("{name} sweep"));
        for (a, s) in auto.trials.iter().zip(&scalar.trials) {
            let cell = format!("{name} sweep cell {}/{}", a.range, a.interval);
            assert_eq!(a.range.to_bits(), s.range.to_bits(), "{cell}");
            assert_eq!(a.interval.to_bits(), s.interval.to_bits(), "{cell}");
            assert_bit_identical(&a.estimate, &s.estimate, &cell);
        }
    }
}

fn line_2d() -> Case {
    let target = Point3::new(0.1, 0.8, 0.0);
    let positions: Vec<Point3> = (0..=240)
        .map(|i| Point3::new(-0.6 + i as f64 * 0.005, 0.0, 0.0))
        .collect();
    Case {
        name: "2D line",
        unknowns: 2,
        localizer: Localizer::new(
            LocalizerConfig {
                smoothing_window: 9,
                pair_strategy: PairStrategy::Interval { interval: 0.2 },
                side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
                ..LocalizerConfig::default()
            },
            SolveSpace::TwoD,
        ),
        target,
        reads: noisy_reads(target, &positions),
        grid: AdaptiveConfig::default(),
    }
}

fn circle_2d() -> Case {
    let target = Point3::new(0.9, 0.4, 0.0);
    let positions: Vec<Point3> = (0..360)
        .map(|i| {
            let a = i as f64 * TAU / 360.0;
            Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
        })
        .collect();
    Case {
        name: "2D circle",
        unknowns: 3,
        localizer: Localizer::new(
            LocalizerConfig {
                pair_strategy: PairStrategy::Interval { interval: 0.15 },
                ..LocalizerConfig::default()
            },
            SolveSpace::TwoD,
        ),
        target,
        reads: noisy_reads(target, &positions),
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.4, 0.5, 0.6, 0.7],
            intervals: vec![0.10, 0.15, 0.20],
            keep: 2,
        },
    }
}

fn three_line_3d() -> Case {
    let target = Point3::new(0.03, 0.8, 0.12);
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid scan");
    let path = scan.to_path();
    let positions: Vec<Point3> = (0..=(path.length() / 0.002) as usize)
        .map(|i| path.position(i as f64 * 0.002))
        .collect();
    Case {
        name: "3D three-line",
        unknowns: 4,
        localizer: Localizer::new(
            LocalizerConfig {
                pair_strategy: PairStrategy::StructuredScan {
                    scan,
                    x_interval: 0.2,
                    tolerance: 0.003,
                },
                side_hint: Some(Point3::new(0.0, 0.8, 0.1)),
                ..LocalizerConfig::default()
            },
            SolveSpace::ThreeD,
        ),
        target,
        reads: noisy_reads(target, &positions),
        grid: AdaptiveConfig {
            scanning_ranges: vec![0.6, 0.7, 0.8],
            intervals: vec![0.15, 0.2, 0.25],
            keep: 2,
        },
    }
}

#[test]
fn forced_scalar_pipeline_is_bit_identical() {
    for case in [line_2d(), circle_2d(), three_line_3d()] {
        case.check();
    }
}
