use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// LU decomposition with partial (row) pivoting: `P·A = L·U`.
///
/// Solves the damped Gauss–Newton steps of [`crate::LevenbergMarquardt`],
/// and gives determinants/inverses in tests and diagnostics.
///
/// # Example
///
/// ```
/// use lion_linalg::{Lu, Matrix, Vector};
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 3.0], &[6.0, 3.0]])?;
/// let lu = Lu::decompose(&a)?;
/// let x = lu.solve(&Vector::from_slice(&[10.0, 12.0]))?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (below diagonal, unit diagonal implied) and U (on/above).
    factors: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Parity of the permutation (+1 or -1), for the determinant.
    sign: f64,
}

/// Relative pivot threshold below which a matrix is declared singular.
const PIVOT_TOL: f64 = 1e-13;

impl Lu {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] for a non-square input,
    /// - [`LinalgError::NotFinite`] when the input contains NaN/inf,
    /// - [`LinalgError::Singular`] when a pivot collapses to (near) zero.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu decompose",
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite {
                operation: "lu decompose",
            });
        }
        let n = a.rows();
        let mut f = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut sign = 1.0;
        let scale = f.norm_max().max(f64::MIN_POSITIVE);
        for k in 0..n {
            // Partial pivoting: pick the largest |entry| in column k at/below k.
            let mut pivot_row = k;
            let mut pivot_val = f[(k, k)].abs();
            for r in (k + 1)..n {
                let v = f[(r, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= PIVOT_TOL * scale {
                return Err(LinalgError::Singular);
            }
            if pivot_row != k {
                f.swap_rows(pivot_row, k);
                perm.swap(pivot_row, k);
                sign = -sign;
            }
            let pivot = f[(k, k)];
            for r in (k + 1)..n {
                let m = f[(r, k)] / pivot;
                f[(r, k)] = m;
                if m != 0.0 {
                    for c in (k + 1)..n {
                        let sub = m * f[(k, c)];
                        f[(r, c)] -= sub;
                    }
                }
            }
        }
        Ok(Lu {
            factors: f,
            perm,
            sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.factors.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "lu solve",
                found: format!("rhs length {} for dim {n}", b.len()),
            });
        }
        // Forward substitution with permuted rhs (L has unit diagonal).
        let mut y = Vector::from_fn(n, |i| b[self.perm[i]]);
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.factors[(i, j)] * y[j];
            }
            y[i] = s;
        }
        // Back substitution through U.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.factors[(i, j)] * y[j];
            }
            y[i] = s / self.factors[(i, i)];
        }
        Ok(y)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.factors[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix, column by column.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (should not occur once factorized).
    pub fn inverse(&self) -> Result<Matrix, LinalgError> {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        for c in 0..n {
            let e = Vector::from_fn(n, |i| if i == c { 1.0 } else { 0.0 });
            let col = self.solve(&e)?;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]).unwrap();
        let b = Vector::from_slice(&[8.0, -11.0, -3.0]);
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (g, e) in x.as_slice().iter().zip(expect) {
            assert!((g - e).abs() < 1e-12, "got {g}, want {e}");
        }
    }

    #[test]
    fn residual_is_tiny_for_random_like_system() {
        // Deterministic pseudo-random fill via a simple LCG.
        let mut state: u64 = 0x9E3779B97F4A7C15;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let n = 8;
        let noise = Matrix::from_fn(n, n, |_, _| next());
        let a = &noise + &(&Matrix::identity(n) * 4.0); // diagonally dominant-ish
        let x_true = Vector::from_fn(n, |i| (i as f64) - 3.5);
        let b = a.mul_vector(&x_true).unwrap();
        let x = Lu::decompose(&a).unwrap().solve(&b).unwrap();
        for (g, e) in x.as_slice().iter().zip(x_true.as_slice()) {
            assert!((g - e).abs() < 1e-9);
        }
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert_eq!(Lu::decompose(&a).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn non_square_is_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn nan_is_rejected() {
        let mut a = Matrix::identity(2);
        a[(0, 1)] = f64::NAN;
        assert!(matches!(
            Lu::decompose(&a),
            Err(LinalgError::NotFinite { .. })
        ));
    }

    #[test]
    fn determinant() {
        let a = Matrix::from_rows(&[&[3.0, 8.0], &[4.0, 6.0]]).unwrap();
        let lu = Lu::decompose(&a).unwrap();
        assert!((lu.det() - (-14.0)).abs() < 1e-12);
        // Permutation parity: swapping rows flips the sign.
        let b = Matrix::from_rows(&[&[4.0, 6.0], &[3.0, 8.0]]).unwrap();
        let lub = Lu::decompose(&b).unwrap();
        assert!((lub.det() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = Lu::decompose(&a).unwrap().inverse().unwrap();
        let prod = a.mul_matrix(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn solve_checks_rhs_length() {
        let lu = Lu::decompose(&Matrix::identity(3)).unwrap();
        assert!(lu.solve(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = Lu::decompose(&a)
            .unwrap()
            .solve(&Vector::from_slice(&[2.0, 3.0]))
            .unwrap();
        assert_eq!(x.as_slice(), &[3.0, 2.0]);
    }
}
