//! The linear localization model: turning sample pairs into the
//! least-squares system `𝓐·𝓧 = 𝓚` (paper Eqs. 7, 9, 12).
//!
//! For a pair of tag positions `Tᵢ, Tⱼ` with distance differences
//! `Δdᵢ, Δdⱼ` relative to the common reference sample, substituting
//! `d_t = d_r + Δd_t` (Eq. 6) into the radical-line equation (Eq. 5) and
//! expanding `d² = d_r² + 2·d_r·Δd + Δd²` cancels the quadratic `d_r²`
//! term and leaves one linear equation per pair:
//!
//! ```text
//! Σ_c 2(c_i − c_j)·c  +  2(Δdᵢ − Δdⱼ)·d_r  =  Σ_c (c_i² − c_j²) − Δdᵢ² + Δdⱼ²
//! ```
//!
//! over the coordinates `c` (x, y in 2D; x, y, z in 3D) plus the unknown
//! reference distance `d_r`.

use lion_linalg::{Matrix, NormalEq, Vector};

use crate::error::CoreError;

/// Builds the design matrix and right-hand side from per-sample
/// **axis-major** coordinates and distance differences, assembled by the
/// runtime-dispatched `lion_linalg::simd` row kernel.
///
/// `coords` is `k × n` axis-major (`coords[c * n + i]` is coordinate `c`
/// of sample `i`; `k` solvable coordinates per sample, in whatever frame
/// the caller chose) — each frame axis is one contiguous lane, which is
/// what lets the kernel gather both pair endpoints with vector loads.
/// `deltas` has length `n`. Each pair `(i, j)` becomes one row with
/// `k + 1` columns — the coordinates then `d_r`. The caller-owned
/// `pair_i`/`pair_j` lanes are refilled from `pairs` (after bounds
/// validation, so the `i32` narrowing is always exact); `design` and
/// `rhs` are resized in place and fully overwritten, so a workspace that
/// owns them assembles every solve without allocating. The row
/// arithmetic is `lion_linalg::simd::radical_row`'s on every backend;
/// the kernel writes the blocked layout [`NormalEq`] stores, and `design`
/// gets it back row-major (`lion_linalg::simd::unblock_rows`).
///
/// The localizer itself pairs straight into the index lanes and writes
/// the same rows straight into its [`NormalEq`] (`load_system`); this
/// is that assembly from a pair list, with [`Matrix`]/[`Vector`]
/// outputs.
///
/// # Errors
///
/// - [`CoreError::InvalidConfig`] when buffer sizes disagree or `k == 0`,
/// - [`CoreError::NoPairs`] when `pairs` is empty,
/// - [`CoreError::TooFewMeasurements`] when there are fewer pairs than
///   unknowns (`k + 1`),
/// - [`CoreError::InvalidConfig`] when a pair index is out of bounds.
///
/// On error the buffer contents are unspecified.
#[allow(clippy::too_many_arguments)]
pub fn build_system_soa(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pairs: &[(usize, usize)],
    pair_i: &mut Vec<i32>,
    pair_j: &mut Vec<i32>,
    design: &mut Matrix,
    rhs: &mut Vector,
) -> Result<(), CoreError> {
    pair_lanes(coords, n, k, deltas, pairs, pair_i, pair_j)?;
    design.reset_zeroed(pairs.len(), k + 1);
    rhs.reset_zeroed(pairs.len());
    lion_linalg::simd::radical_rows(
        coords,
        n,
        k,
        deltas,
        pair_i,
        pair_j,
        design.as_mut_slice(),
        rhs.as_mut_slice(),
    );
    lion_linalg::simd::unblock_rows(design.as_mut_slice(), k + 1);
    Ok(())
}

/// [`build_system_soa`]'s rows written straight into `ne`'s storage
/// (`k + 1` unknowns, unit weights), from pairs already in the `i32`
/// index lanes the row kernel gathers by: what the pair strategies
/// write on the batch path, so there is no `(usize, usize)` list and no
/// narrowing pass. The same validation as [`build_system_soa`]; an index
/// is in bounds by construction (the pair strategies emit indices below
/// `n`), once `n` itself fits an `i32` index.
///
/// # Errors
///
/// As [`build_system_soa`], plus [`CoreError::InvalidConfig`] when `n`
/// exceeds 2³¹ samples; on error `ne` is left as it was.
pub(crate) fn load_system(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pair_i: &[i32],
    pair_j: &[i32],
    ne: &mut NormalEq,
) -> Result<(), CoreError> {
    validate(coords, n, k, deltas, pair_i.len())?;
    if n > i32::MAX as usize + 1 {
        return Err(CoreError::InvalidConfig {
            parameter: "pairs",
            found: format!("{n} samples exceed the i32 pair index range"),
        });
    }
    ne.load_with(k + 1, pair_i.len(), |design, rhs| {
        lion_linalg::simd::radical_rows(coords, n, k, deltas, pair_i, pair_j, design, rhs)
    });
    Ok(())
}

/// The checks every system assembly runs before its rows: `k > 0`,
/// buffer sizes that agree with `n` and `k`, and a pair count `pairs` of
/// at least `k + 1`.
fn validate(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pairs: usize,
) -> Result<(), CoreError> {
    if k == 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "k",
            found: "0".to_string(),
        });
    }
    if coords.len() != n * k || deltas.len() != n {
        return Err(CoreError::InvalidConfig {
            parameter: "coords/deltas",
            found: format!("{} coords (k={k}) vs {} deltas", coords.len(), deltas.len()),
        });
    }
    if pairs == 0 {
        return Err(CoreError::NoPairs);
    }
    if pairs < k + 1 {
        return Err(CoreError::TooFewMeasurements {
            got: pairs,
            needed: k + 1,
        });
    }
    Ok(())
}

/// Validates a system's inputs and refills the `i32` index lanes from
/// `pairs` in one pass.
fn pair_lanes(
    coords: &[f64],
    n: usize,
    k: usize,
    deltas: &[f64],
    pairs: &[(usize, usize)],
    pair_i: &mut Vec<i32>,
    pair_j: &mut Vec<i32>,
) -> Result<(), CoreError> {
    validate(coords, n, k, deltas, pairs.len())?;
    pair_i.resize(pairs.len(), 0);
    pair_j.resize(pairs.len(), 0);
    // Narrow first, check once: an index below `limit` is in bounds and
    // narrows exactly, so the largest one decides.
    let limit = n.min(i32::MAX as usize + 1);
    let mut largest = 0;
    for ((&(i, j), pi), pj) in pairs.iter().zip(pair_i.iter_mut()).zip(pair_j.iter_mut()) {
        *pi = i as i32;
        *pj = j as i32;
        largest = largest.max(i.max(j));
    }
    if largest >= limit {
        let &(i, j) = pairs
            .iter()
            .find(|&&(i, j)| i.max(j) >= limit)
            .expect("the largest index belongs to a pair");
        return Err(CoreError::InvalidConfig {
            parameter: "pairs",
            found: format!("pair ({i}, {j}) out of bounds for {n} samples"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_geom::Point3;

    /// Assembles the system into fresh buffers.
    fn build(
        coords: &[f64],
        n: usize,
        k: usize,
        deltas: &[f64],
        pairs: &[(usize, usize)],
    ) -> Result<(Matrix, Vector), CoreError> {
        let (mut pair_i, mut pair_j) = (Vec::new(), Vec::new());
        let mut design = Matrix::zeros(0, 0);
        let mut rhs = Vector::zeros(0);
        build_system_soa(
            coords,
            n,
            k,
            deltas,
            pairs,
            &mut pair_i,
            &mut pair_j,
            &mut design,
            &mut rhs,
        )?;
        Ok((design, rhs))
    }

    /// The maximum absolute equation violation at `solution`: near zero
    /// when the true target satisfies the generated equations.
    fn max_violation(design: &Matrix, rhs: &Vector, solution: &Vector) -> f64 {
        match design.mul_vector(solution) {
            Ok(ax) => ax
                .as_slice()
                .iter()
                .zip(rhs.as_slice())
                .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs())),
            Err(_) => f64::INFINITY,
        }
    }

    /// Builds exact coords/deltas for an antenna at `target` and returns
    /// the system plus the expected solution.
    fn exact_system_2d(
        target: Point3,
        tags: &[Point3],
        reference: usize,
    ) -> (Matrix, Vector, Vector) {
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let coords: Vec<f64> = tags
            .iter()
            .map(|t| t.x)
            .chain(tags.iter().map(|t| t.y))
            .collect();
        let pairs: Vec<(usize, usize)> = (0..tags.len() - 1).map(|i| (i, i + 1)).collect();
        let (a, k) = build(&coords, tags.len(), 2, &deltas, &pairs).unwrap();
        let expect = Vector::from_slice(&[target.x, target.y, d_ref]);
        (a, k, expect)
    }

    #[test]
    fn exact_solution_satisfies_equations_2d() {
        let target = Point3::new(0.5, 0.8, 0.0);
        let tags: Vec<Point3> = (0..8)
            .map(|i| {
                let a = i as f64 * 0.7;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        assert!(max_violation(&a, &k, &expect) < 1e-12);
    }

    #[test]
    fn solving_exact_system_recovers_target_2d() {
        let target = Point3::new(-0.2, 1.1, 0.0);
        let tags: Vec<Point3> = (0..10)
            .map(|i| {
                let a = i as f64 * 0.6;
                Point3::new(0.25 * a.cos() + 0.05, 0.25 * a.sin() - 0.1, 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        for (s, e) in sol.as_slice().iter().zip(expect.as_slice()) {
            assert!((s - e).abs() < 1e-9, "{s} vs {e}");
        }
    }

    #[test]
    fn exact_solution_3d() {
        let target = Point3::new(0.1, 0.9, 0.3);
        let tags: Vec<Point3> = (0..12)
            .map(|i| {
                let a = i as f64 * 0.5;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.05 * i as f64)
            })
            .collect();
        let reference = 3;
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let coords: Vec<f64> = tags
            .iter()
            .map(|t| t.x)
            .chain(tags.iter().map(|t| t.y))
            .chain(tags.iter().map(|t| t.z))
            .collect();
        let pairs: Vec<(usize, usize)> = (0..tags.len() - 1).map(|i| (i, i + 1)).collect();
        let (a, k) = build(&coords, tags.len(), 3, &deltas, &pairs).unwrap();
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        let expect = [target.x, target.y, target.z, d_ref];
        for (s, e) in sol.as_slice().iter().zip(expect) {
            assert!((s - e).abs() < 1e-8, "{s} vs {e}");
        }
    }

    #[test]
    fn one_dimensional_frame_solves_u_and_dr() {
        // Collinear tags: solve only [u, d_r] in the track frame.
        let target = Point3::new(0.2, 1.0, 0.0); // u* = 0.2, perpendicular 1.0
        let us: Vec<f64> = (0..30).map(|i| -0.3 + i as f64 * 0.02).collect();
        let tags: Vec<Point3> = us.iter().map(|&u| Point3::new(u, 0.0, 0.0)).collect();
        let reference = 15;
        let d_ref = target.distance(tags[reference]);
        let deltas: Vec<f64> = tags.iter().map(|t| target.distance(*t) - d_ref).collect();
        let pairs: Vec<(usize, usize)> = (0..20).map(|i| (i, i + 10)).collect();
        let (a, k) = build(&us, us.len(), 1, &deltas, &pairs).unwrap();
        let sol = lion_linalg::lstsq::solve(&a, &k).unwrap();
        assert!((sol[0] - 0.2).abs() < 1e-9, "u {}", sol[0]);
        assert!((sol[1] - d_ref).abs() < 1e-9, "d_r {}", sol[1]);
        // Perpendicular recovery: v = √(d_r² − (u − u_ref)²).
        let v = (sol[1] * sol[1] - (sol[0] - us[reference]).powi(2)).sqrt();
        assert!((v - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            build(&[], 0, 0, &[], &[(0, 1)]),
            Err(CoreError::InvalidConfig { parameter: "k", .. })
        ));
        assert!(matches!(
            build(&[1.0, 2.0, 3.0], 1, 2, &[0.0], &[(0, 1)]),
            Err(CoreError::InvalidConfig { .. })
        ));
        assert!(matches!(
            build(&[1.0, 2.0], 2, 1, &[0.0, 0.1], &[]),
            Err(CoreError::NoPairs)
        ));
        assert!(matches!(
            build(&[1.0, 2.0], 2, 1, &[0.0, 0.1], &[(0, 1)]),
            Err(CoreError::TooFewMeasurements { needed: 2, .. })
        ));
        assert!(matches!(
            build(&[1.0, 2.0], 2, 1, &[0.0, 0.1], &[(0, 5), (0, 1)]),
            Err(CoreError::InvalidConfig {
                parameter: "pairs",
                ..
            })
        ));
    }

    #[test]
    fn max_violation_detects_wrong_solution() {
        let target = Point3::new(0.5, 0.8, 0.0);
        let tags: Vec<Point3> = (0..6)
            .map(|i| {
                let a = i as f64;
                Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0)
            })
            .collect();
        let (a, k, expect) = exact_system_2d(target, &tags, 0);
        let mut wrong = expect.clone();
        wrong[0] += 0.1;
        assert!(max_violation(&a, &k, &wrong) > 1e-3);
        // Dimension mismatch returns infinity rather than panicking.
        assert!(max_violation(&a, &k, &Vector::zeros(1)).is_infinite());
    }
}
