//! Per-kernel timings on one of the workload's own traces.
//!
//! The program has no spans inside its solve stage, so the row assembly,
//! the normal-equation IRLS and the five dispatched `lion_linalg::simd`
//! kernels are timed here from outside, through their public functions,
//! on inputs shaped like the workload's solves: the same sample count,
//! pair strategy, frame dimension and smoothing window. Each `_bytes`
//! figure is the size of the slices one call reads and writes.

use std::hint::black_box;

use lion_core::{LocalizerConfig, Weighting};
use lion_geom::Point3;
use lion_linalg::{simd, Matrix, NormalEq, NormalIrlsScratch, Vector};

use crate::stats::median_ns;

/// Median ns per call and bytes per call of each timed kernel.
#[derive(Debug, Clone, Default)]
pub struct KernelTimes {
    /// `lion_core::model::build_system_soa`.
    pub rows_ns: f64,
    /// `NormalEq::set_system` + `solve_irls_normal`.
    pub normal_irls_ns: f64,
    /// `(name, ns, bytes)` for the five `simd` kernels.
    pub simd: Vec<(&'static str, f64, f64)>,
}

/// Times every kernel on `measurements` solved under `config` in `dims`
/// dimensions (2 or 3). Like the localizer, the frame keeps only the axes
/// the trajectory spans; the lower-dimension recovery is not timed.
pub fn measure(
    measurements: &[(Point3, f64)],
    config: &LocalizerConfig,
    dims: usize,
) -> KernelTimes {
    let n = measurements.len();
    let positions: Vec<Point3> = measurements.iter().map(|m| m.0).collect();
    let wrapped: Vec<f64> = measurements.iter().map(|m| m.1).collect();

    let mut phases = wrapped.clone();
    let mut revs = Vec::new();
    let unwrap_ns = median_ns(101, || {
        phases.copy_from_slice(&wrapped);
        simd::phase_unwrap_in_place(&mut phases, &mut revs);
        black_box(&phases);
    });

    let window = config.smoothing_window.max(2);
    let mut prefix = vec![0.0; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + phases[i];
    }
    let mut smoothed = vec![0.0; n];
    let smooth_ns = median_ns(101, || {
        simd::sliding_mean_from_prefix(&prefix, window, &mut smoothed);
        black_box(&smoothed);
    });

    // Distance differences to the middle sample, and axis-major frame
    // coordinates centred on the trajectory.
    let reference = n / 2;
    let scale = config.wavelength / (4.0 * std::f64::consts::PI);
    let deltas: Vec<f64> = smoothed
        .iter()
        .map(|p| (p - smoothed[reference]) * scale)
        .collect();
    // The workloads' tracks are axis-aligned, so the world axes the
    // samples spread along are the frame axes the localizer solves on.
    let axes: [fn(&Point3) -> f64; 3] = [|p| p.x, |p| p.y, |p| p.z];
    let spanned: Vec<_> = axes
        .iter()
        .take(dims)
        .filter(|axis| {
            positions
                .iter()
                .any(|p| (axis(p) - axis(&positions[0])).abs() > 1e-6)
        })
        .collect();
    let k = spanned.len();
    let mut coords = Vec::with_capacity(n * k);
    for axis in spanned {
        let centre = positions.iter().map(axis).sum::<f64>() / n as f64;
        coords.extend(positions.iter().map(|p| axis(p) - centre));
    }
    let pairs = config.pair_strategy.pairs(&positions);
    let (mut pair_i, mut pair_j) = (Vec::new(), Vec::new());
    let mut design = Matrix::zeros(0, 0);
    let mut rhs = Vector::zeros(0);
    let rows_ns = median_ns(101, || {
        lion_core::model::build_system_soa(
            &coords,
            n,
            k,
            &deltas,
            &pairs,
            &mut pair_i,
            &mut pair_j,
            &mut design,
            &mut rhs,
        )
        .expect("the workload's trace yields a system");
        black_box(&rhs);
    });
    let m = pairs.len();
    let cols = k + 1;

    let (mut design_out, mut rhs_out) = (vec![0.0; m * cols], vec![0.0; m]);
    let radical_ns = median_ns(101, || {
        simd::radical_rows(
            &coords,
            n,
            k,
            &deltas,
            &pair_i,
            &pair_j,
            &mut design_out,
            &mut rhs_out,
        );
        black_box(&rhs_out);
    });

    let weights = vec![1.0; m];
    let gram_ns = median_ns(101, || {
        let (rows, rhs) = (design.as_slice(), rhs.as_slice());
        match cols {
            2 => {
                black_box(simd::gram_fixed::<2>(rows, rhs, &weights));
            }
            3 => {
                black_box(simd::gram_fixed::<3>(rows, rhs, &weights));
            }
            _ => {
                black_box(simd::gram_fixed::<4>(rows, rhs, &weights));
            }
        }
    });

    // The IRLS weight kernel on Gaussian exponents of the right-hand side's
    // spread — the shape `solve_irls_normal` feeds it.
    let rhs_mean = rhs.as_slice().iter().sum::<f64>() / m as f64;
    let var = rhs
        .as_slice()
        .iter()
        .map(|r| (r - rhs_mean).powi(2))
        .sum::<f64>()
        / m as f64;
    let exponents: Vec<f64> = rhs
        .as_slice()
        .iter()
        .map(|r| -0.5 * (r - rhs_mean).powi(2) / var.max(f64::MIN_POSITIVE))
        .collect();
    let mut xs = exponents.clone();
    let exp_ns = median_ns(101, || {
        xs.copy_from_slice(&exponents);
        simd::exp_non_positive(&mut xs);
        black_box(&xs);
    });

    let irls = match &config.weighting {
        Weighting::Weighted(cfg) => *cfg,
        _ => lion_linalg::IrlsConfig::default(),
    };
    let mut ne = NormalEq::new();
    let mut scratch = NormalIrlsScratch::new();
    let normal_irls_ns = median_ns(101, || {
        ne.set_system(cols, design.as_slice(), rhs.as_slice());
        let outcome = lion_linalg::solve_irls_normal(&mut ne, &irls, &mut scratch);
        black_box(outcome.expect("the workload's system solves"));
    });

    let (n, m, cols, k) = (n as f64, m as f64, cols as f64, k as f64);
    let f = 8.0;
    KernelTimes {
        rows_ns,
        normal_irls_ns,
        simd: vec![
            // Phases read and written, revolution counts written.
            ("phase_unwrap", unwrap_ns, 3.0 * n * f),
            // Prefix sums read, means written.
            ("sliding_mean", smooth_ns, (2.0 * n + 1.0) * f),
            // Both endpoints' coordinates and deltas gathered, two i32
            // indices read, one row and one right-hand side written.
            (
                "radical_rows",
                radical_ns,
                m * (2.0 * (k + 1.0) * f + 8.0 + (cols + 1.0) * f),
            ),
            // Rows, right-hand sides and weights read.
            ("gram_accumulate", gram_ns, m * (cols + 2.0) * f),
            // Exponents read and weights written in place.
            ("exp_weights", exp_ns, 2.0 * m * f),
        ],
    }
}
