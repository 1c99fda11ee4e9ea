//! The accelerated IRLS loop reaches the plain loop's fixed point.
//!
//! `solve_irls_normal` extrapolates between reweights (depth-2 Anderson
//! acceleration) instead of iterating `x ← G(x)`. It must stop at the same
//! fixed point the plain iteration converges to. This suite checks that on
//! seeded radical-line-shaped systems: 2 columns (a straight scan: one
//! coordinate plus the reference distance `d_r`), 3 (a 2D circle) and 4 (a
//! 3D helix), each with noisy phases and a few planted outlier equations,
//! under the paper's Gaussian weights and under Huber weights.
//!
//! The oracle is a test-local plain IRLS loop over the public `NormalEq`
//! API, run to a 1e-13 step and 500 iterations, far past the default
//! 1e-8 / 20 the accelerated loop gets.

use lion_linalg::{
    lstsq, solve_irls_normal, IrlsConfig, Matrix, NormalEq, NormalIrlsScratch, Vector,
    WeightFunction,
};

/// SplitMix64: a tiny seeded generator, so the suite needs no RNG crate.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller).
    fn normal(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * self.unit()).cos()
    }
}

/// A flat row-major radical-line system.
struct System {
    cols: usize,
    rows: Vec<f64>,
    rhs: Vec<f64>,
}

/// Builds the radical-line system of a tag scanned along a trajectory
/// spanning `dims` axes (1: line, 2: circle, 3: helix): unknowns are the
/// tag's `dims` coordinates and the reference distance `d_r`, one equation
/// per sample pair `(i, i + gap)`. Distances carry `noise` meters of
/// Gaussian noise; `outliers` equations get a gross right-hand-side error.
fn radical_system(seed: u64, dims: usize, noise: f64, outliers: usize) -> System {
    let mut rng = Rng(seed);
    let samples = 120;
    let tag = [
        0.3 + 0.4 * rng.unit(),
        0.8 + 0.4 * rng.unit(),
        0.2 + 0.3 * rng.unit(),
    ];
    let positions: Vec<[f64; 3]> = (0..samples)
        .map(|i| {
            let t = i as f64 / samples as f64;
            let angle = std::f64::consts::TAU * t;
            match dims {
                1 => [t - 0.5, 0.0, 0.0],
                2 => [0.3 * angle.cos(), 0.3 * angle.sin(), 0.0],
                _ => [0.3 * angle.cos(), 0.3 * angle.sin(), 0.4 * t],
            }
        })
        .collect();
    let distance = |p: &[f64; 3]| {
        (0..3)
            .map(|a| (p[a] - tag[a]) * (p[a] - tag[a]))
            .sum::<f64>()
            .sqrt()
    };
    let reference = samples / 2;
    let d_r = distance(&positions[reference]);
    // Measured distance differences to the reference sample.
    let deltas: Vec<f64> = positions
        .iter()
        .map(|p| distance(p) - d_r + noise * rng.normal())
        .collect();
    let norm2 = |p: &[f64; 3]| (0..dims).map(|a| p[a] * p[a]).sum::<f64>();
    let gap = samples / 6;
    let cols = dims + 1;
    let mut rows = Vec::new();
    let mut rhs = Vec::new();
    for i in 0..samples - gap {
        let j = i + gap;
        let (p, q) = (&positions[i], &positions[j]);
        for a in 0..dims {
            rows.push(2.0 * (p[a] - q[a]));
        }
        rows.push(2.0 * (deltas[i] - deltas[j]));
        rhs.push(norm2(p) - norm2(q) - deltas[i] * deltas[i] + deltas[j] * deltas[j]);
    }
    for _ in 0..outliers {
        let at = (rng.next_u64() % rhs.len() as u64) as usize;
        rhs[at] += 0.05 * (1.0 + rng.unit());
    }
    System { cols, rows, rhs }
}

/// Result of one IRLS run.
struct Run {
    solution: Vec<f64>,
    iterations: usize,
    converged: bool,
}

/// The library's accelerated loop.
fn accelerated(system: &System, config: &IrlsConfig) -> Run {
    let mut ne = NormalEq::new();
    ne.set_system(system.cols, &system.rows, &system.rhs);
    let outcome = solve_irls_normal(&mut ne, config, &mut NormalIrlsScratch::new())
        .expect("well-posed system");
    Run {
        solution: ne.solution().to_vec(),
        iterations: outcome.iterations,
        converged: outcome.converged,
    }
}

/// Plain IRLS, `x ← G(x)`: reweight from the residuals at `x`, solve,
/// stop once `‖Δx‖∞ < tolerance`.
fn plain(system: &System, config: &IrlsConfig) -> Run {
    let mut ne = NormalEq::new();
    ne.set_system(system.cols, &system.rows, &system.rhs);
    let mut x = ne.solve().expect("well-posed system").to_vec();
    let mut residuals = Vec::new();
    let mut weights = Vec::new();
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations && !converged {
        iterations += 1;
        ne.residuals_into(&x, &mut residuals);
        config.weight_fn.weights_into(&residuals, &mut weights);
        ne.set_weights(&weights).expect("weights in [0, 1]");
        let g = ne.solve().expect("well-posed system");
        let step = g
            .iter()
            .zip(&x)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()));
        x.copy_from_slice(g);
        converged = step < config.tolerance;
    }
    Run {
        solution: x,
        iterations,
        converged,
    }
}

/// The fixed point itself: plain IRLS run far past the default budget.
fn reference(system: &System, weight_fn: WeightFunction) -> Run {
    let run = plain(
        system,
        &IrlsConfig {
            max_iterations: 500,
            tolerance: 1e-13,
            weight_fn,
        },
    );
    assert!(run.converged, "reference loop did not converge");
    run
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
}

/// Seeds × column counts × weight functions × outlier counts.
fn cases() -> Vec<(String, System, WeightFunction)> {
    let mut out = Vec::new();
    for dims in 1..=3 {
        for seed in 0..12u64 {
            for (name, weight_fn) in [
                ("gaussian", WeightFunction::GaussianResidual),
                ("huber", WeightFunction::Huber { delta: 2e-3 }),
            ] {
                let outliers = (seed % 4) as usize * 2;
                let system = radical_system(1000 * dims as u64 + seed, dims, 1e-3, outliers);
                let label = format!(
                    "{} cols, seed {seed}, {outliers} outliers, {name}",
                    dims + 1
                );
                out.push((label, system, weight_fn));
            }
        }
    }
    out
}

#[test]
fn accelerated_loop_reaches_the_plain_fixed_point() {
    for (label, system, weight_fn) in cases() {
        let config = IrlsConfig {
            weight_fn,
            ..IrlsConfig::default()
        };
        let fast = accelerated(&system, &config);
        assert!(fast.converged, "{label}: did not converge");
        let fixed = reference(&system, weight_fn);
        let gap = max_abs_diff(&fast.solution, &fixed.solution);
        assert!(gap < 1e-7, "{label}: {gap:e} from the fixed point");
    }
}

#[test]
fn accelerated_loop_takes_no_more_iterations_than_plain() {
    let (mut fast_total, mut plain_total) = (0, 0);
    for (label, system, weight_fn) in cases() {
        let config = IrlsConfig {
            weight_fn,
            ..IrlsConfig::default()
        };
        let fast = accelerated(&system, &config);
        let slow = plain(&system, &config);
        assert!(
            fast.iterations <= slow.iterations,
            "{label}: {} accelerated vs {} plain iterations",
            fast.iterations,
            slow.iterations
        );
        fast_total += fast.iterations;
        plain_total += slow.iterations;
    }
    // And strictly fewer in aggregate: the acceleration is doing work.
    assert!(fast_total < plain_total, "{fast_total} vs {plain_total}");
}

#[test]
fn qr_reference_takes_the_same_steps() {
    // `lstsq::solve_irls` runs the same accelerated loop on a QR solve.
    for (label, system, weight_fn) in cases() {
        let config = IrlsConfig {
            weight_fn,
            ..IrlsConfig::default()
        };
        let fast = accelerated(&system, &config);
        let rows: Vec<&[f64]> = system.rows.chunks_exact(system.cols).collect();
        let a = Matrix::from_rows(&rows).expect("rectangular");
        let k = Vector::from_slice(&system.rhs);
        let report = lstsq::solve_irls(&a, &k, &config).expect("well-posed system");
        assert!(report.converged, "{label}: QR loop did not converge");
        let gap = max_abs_diff(&fast.solution, report.solution.as_slice());
        assert!(gap < 1e-7, "{label}: QR and normal loops {gap:e} apart");
    }
}

#[test]
fn noiseless_data_converges_on_the_first_reweight() {
    // Exact data: every residual is rounding noise, the residual spread
    // falls below the Gaussian weight's floor, the weights stay uniform,
    // and the first reweight reproduces the plain solve exactly.
    for dims in 1..=3 {
        let system = radical_system(7 + dims as u64, dims, 0.0, 0);
        let config = IrlsConfig::default();
        let fast = accelerated(&system, &config);
        assert!(fast.converged);
        assert_eq!(fast.iterations, 1, "{} cols", dims + 1);
        let mut ne = NormalEq::new();
        ne.set_system(system.cols, &system.rows, &system.rhs);
        assert_eq!(fast.solution, ne.solve().unwrap());
    }
}

#[test]
fn one_unknown_converges_through_singular_anderson_systems() {
    // With a single unknown every two difference columns are parallel, so
    // each depth-2 Anderson system is singular and the loop must fall back
    // to the plain step; it still has to reach the fixed point.
    let mut rng = Rng(42);
    let mut rows = Vec::new();
    let mut rhs = Vec::new();
    for i in 0..60 {
        let a = 0.5 + i as f64 / 60.0;
        rows.push(a);
        rhs.push(1.7 * a + 1e-3 * rng.normal());
    }
    for at in [5, 17, 40] {
        rhs[at] += 0.1;
    }
    let system = System { cols: 1, rows, rhs };
    for weight_fn in [
        WeightFunction::GaussianResidual,
        WeightFunction::Huber { delta: 2e-3 },
    ] {
        let config = IrlsConfig {
            weight_fn,
            ..IrlsConfig::default()
        };
        let fast = accelerated(&system, &config);
        assert!(fast.converged, "{weight_fn:?}");
        let fixed = reference(&system, weight_fn);
        let gap = max_abs_diff(&fast.solution, &fixed.solution);
        assert!(gap < 1e-7, "{weight_fn:?}: {gap:e}");
        assert!(fast.iterations <= plain(&system, &config).iterations);
    }
}
