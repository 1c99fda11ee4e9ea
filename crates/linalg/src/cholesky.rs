use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::vector::Vector;

/// In-place Cholesky factorization of a flat row-major `n × n` buffer.
///
/// Only the lower triangle is read; on success the lower triangle holds
/// `L` (the strict upper triangle is left untouched and must never be
/// read). This is the single factorization kernel shared by
/// [`Cholesky::decompose`] and the incremental
/// [`crate::NormalEq`] solver — both paths run
/// exactly the same arithmetic, so their factors are bit-identical.
///
/// # Errors
///
/// [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
/// strictly positive (or not finite).
pub(crate) fn factor_in_place(l: &mut [f64], n: usize) -> Result<(), LinalgError> {
    debug_assert_eq!(l.len(), n * n);
    for j in 0..n {
        let mut d = l[j * n + j];
        for k in 0..j {
            d -= l[j * n + k] * l[j * n + k];
        }
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let dj = d.sqrt();
        l[j * n + j] = dj;
        for i in (j + 1)..n {
            let mut s = l[i * n + j];
            for k in 0..j {
                s -= l[i * n + k] * l[j * n + k];
            }
            l[i * n + j] = s / dj;
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place given a factor produced by
/// [`factor_in_place`]; `b` is overwritten with the solution. Shared by
/// [`Cholesky::solve`] and [`crate::NormalEq::solve`].
pub(crate) fn solve_in_place(l: &[f64], n: usize, b: &mut [f64]) {
    debug_assert_eq!(l.len(), n * n);
    debug_assert_eq!(b.len(), n);
    // L·y = b
    for i in 0..n {
        let mut s = b[i];
        for j in 0..i {
            s -= l[i * n + j] * b[j];
        }
        b[i] = s / l[i * n + i];
    }
    // Lᵀ·x = y
    for i in (0..n).rev() {
        let mut s = b[i];
        for j in (i + 1)..n {
            s -= l[j * n + i] * b[j];
        }
        b[i] = s / l[i * n + i];
    }
}

/// Cholesky decomposition `A = L·Lᵀ` for symmetric positive-definite
/// matrices.
///
/// The LION weighted-least-squares step solves `(AᵀWA)·x = AᵀWk`; the left
/// side is symmetric positive definite whenever the design matrix has full
/// column rank and all weights are positive, so Cholesky is the fastest
/// correct solver for it.
///
/// # Example
///
/// ```
/// use lion_linalg::{Cholesky, Matrix, Vector};
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::decompose(&a)?;
/// let x = ch.solve(&Vector::from_slice(&[8.0, 7.0]))?;
/// let back = a.mul_vector(&x)?;
/// assert!((back[0] - 8.0).abs() < 1e-12 && (back[1] - 7.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (upper part is garbage and never read).
    l: Matrix,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry of the upper part is
    /// assumed, matching the output of [`Matrix::gram`].
    ///
    /// # Errors
    ///
    /// - [`LinalgError::DimensionMismatch`] for non-square input,
    /// - [`LinalgError::NotFinite`] for NaN/inf input,
    /// - [`LinalgError::NotPositiveDefinite`] when a diagonal pivot is not
    ///   strictly positive.
    pub fn decompose(a: &Matrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::DimensionMismatch {
                operation: "cholesky decompose",
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        if !a.is_finite() {
            return Err(LinalgError::NotFinite {
                operation: "cholesky decompose",
            });
        }
        let n = a.rows();
        let mut l = a.clone();
        factor_in_place(l.as_mut_slice(), n)?;
        Ok(Cholesky { l })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b` via forward/back substitution.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `b.len() != dim`.
    pub fn solve(&self, b: &Vector) -> Result<Vector, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "cholesky solve",
                found: format!("rhs length {} for dim {n}", b.len()),
            });
        }
        let mut y = b.clone();
        solve_in_place(self.l.as_slice(), n, y.as_mut_slice());
        Ok(y)
    }

    /// Returns the lower-triangular factor `L` with the upper part zeroed.
    pub fn l(&self) -> Matrix {
        let n = self.dim();
        Matrix::from_fn(n, n, |r, c| if c <= r { self.l[(r, c)] } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstructs_input() {
        let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]])
            .unwrap();
        let l = Cholesky::decompose(&a).unwrap().l();
        let back = l.mul_matrix(&l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-10));
    }

    #[test]
    fn known_factor() {
        let a = Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
        .unwrap();
        let l = Cholesky::decompose(&a).unwrap().l();
        let expect =
            Matrix::from_rows(&[&[2.0, 0.0, 0.0], &[6.0, 1.0, 0.0], &[-8.0, 5.0, 3.0]]).unwrap();
        assert!(l.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn solve_agrees_with_lu() {
        let a = Matrix::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]).unwrap();
        let b = Vector::from_slice(&[4.0, 3.0]);
        let x_ch = Cholesky::decompose(&a).unwrap().solve(&b).unwrap();
        let x_lu = crate::Lu::decompose(&a).unwrap().solve(&b).unwrap();
        for (p, q) in x_ch.as_slice().iter().zip(x_lu.as_slice()) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert_eq!(
            Cholesky::decompose(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn zero_matrix_rejected() {
        assert_eq!(
            Cholesky::decompose(&Matrix::zeros(2, 2)).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn non_square_rejected() {
        assert!(Cholesky::decompose(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let ch = Cholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(ch.solve(&Vector::zeros(3)).is_err());
    }
}
