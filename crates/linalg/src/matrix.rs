use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

use crate::error::LinalgError;
use crate::vector::Vector;

/// A dense, row-major matrix of `f64` elements.
///
/// This is the workhorse type of the crate: the LION solver assembles its
/// radical-line coefficient matrix as a [`Matrix`] and hands it to the
/// least-squares routines.
///
/// # Example
///
/// ```
/// use lion_linalg::Matrix;
///
/// # fn main() -> Result<(), lion_linalg::LinalgError> {
/// let a = Matrix::identity(3);
/// let b = Matrix::filled(3, 3, 2.0);
/// let c = a.mul_matrix(&b)?;
/// assert_eq!(c[(1, 2)], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Reshapes this matrix in place to `rows × cols`, reusing the existing
    /// allocation when capacity allows, and zeroes every element.
    ///
    /// This is the buffer-reuse entry point for hot loops (the LION batch
    /// engine resizes one design matrix per worker instead of allocating a
    /// fresh [`Matrix::zeros`] per solve).
    ///
    /// # Example
    ///
    /// ```
    /// use lion_linalg::Matrix;
    ///
    /// let mut m = Matrix::filled(4, 4, 7.0);
    /// m.reset_zeroed(2, 3);
    /// assert_eq!(m.shape(), (2, 3));
    /// assert_eq!(m[(1, 2)], 0.0);
    /// ```
    pub fn reset_zeroed(&mut self, rows: usize, cols: usize) {
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Overwrites this matrix with the contents (and shape) of `src`,
    /// reusing the existing allocation when capacity allows.
    pub fn copy_from(&mut self, src: &Matrix) {
        self.data.clear();
        self.data.extend_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a square matrix with `diag` on the main diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Creates a matrix by evaluating `f` at each `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::EmptyInput`] for an empty row list and
    /// [`LinalgError::DimensionMismatch`] when rows have unequal lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self, LinalgError> {
        let first = rows.first().ok_or(LinalgError::EmptyInput {
            operation: "Matrix::from_rows",
        })?;
        let cols = first.len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "Matrix::from_rows",
                    found: format!("row of length {} vs {}", row.len(), cols),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `data.len() != rows * cols`.
    pub fn from_row_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self, LinalgError> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "Matrix::from_row_major",
                found: format!("{} elements for {rows}x{cols}", data.len()),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` for a square matrix.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrows the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Returns the element at `(r, c)`, or `None` when out of bounds.
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of bounds.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new [`Vector`].
    ///
    /// # Panics
    ///
    /// Panics when `c` is out of bounds.
    pub fn column(&self, c: usize) -> Vector {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        Vector::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Matrix–matrix product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != rhs.rows()`.
    pub fn mul_matrix(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix multiply",
                found: format!("{}x{} * {}x{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..rhs.cols {
                    out[(r, c)] += a * rhs[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix–vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `self.cols() != v.len()`.
    pub fn mul_vector(&self, v: &Vector) -> Result<Vector, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                operation: "matrix-vector multiply",
                found: format!("{}x{} * {}", self.rows, self.cols, v.len()),
            });
        }
        Ok(Vector::from_fn(self.rows, |r| {
            self.row(r)
                .iter()
                .zip(v.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        }))
    }

    /// `Aᵀ·A`, the Gram matrix used by normal-equation solvers.
    pub fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// `Aᵀ·diag(w)·A`, the weighted Gram matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when
    /// `weights.len() != self.rows()`.
    pub fn weighted_gram(&self, weights: &[f64]) -> Result<Matrix, LinalgError> {
        if weights.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "weighted gram",
                found: format!("{} weights for {} rows", weights.len(), self.rows),
            });
        }
        let mut out = Matrix::zeros(self.cols, self.cols);
        for (r, &w) in weights.iter().enumerate() {
            if w == 0.0 {
                continue;
            }
            let row = self.row(r);
            for i in 0..self.cols {
                let wri = w * row[i];
                if wri == 0.0 {
                    continue;
                }
                for j in i..self.cols {
                    out[(i, j)] += wri * row[j];
                }
            }
        }
        for i in 0..self.cols {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        Ok(out)
    }

    /// `Aᵀ·v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when `v.len() != rows`.
    pub fn transpose_mul_vector(&self, v: &Vector) -> Result<Vector, LinalgError> {
        if v.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "transpose-vector multiply",
                found: format!("{}x{} with vector {}", self.rows, self.cols, v.len()),
            });
        }
        let mut out = Vector::zeros(self.cols);
        for r in 0..self.rows {
            let x = v[r];
            if x == 0.0 {
                continue;
            }
            for c in 0..self.cols {
                out[c] += self[(r, c)] * x;
            }
        }
        Ok(out)
    }

    /// Returns a new matrix keeping only the given columns, in order.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when an index is out of
    /// bounds.
    pub fn select_columns(&self, columns: &[usize]) -> Result<Matrix, LinalgError> {
        for &c in columns {
            if c >= self.cols {
                return Err(LinalgError::DimensionMismatch {
                    operation: "select columns",
                    found: format!("column {c} of {}", self.cols),
                });
            }
        }
        Ok(Matrix::from_fn(self.rows, columns.len(), |r, j| {
            self[(r, columns[j])]
        }))
    }

    /// Vertically stacks `self` on top of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] when the column counts
    /// differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != other.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "vstack",
                found: format!("{} vs {} columns", self.cols, other.cols),
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
        })
    }

    /// Frobenius norm.
    pub fn norm_frobenius(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute element; `0.0` for an empty matrix.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Returns `true` when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Returns `true` when `self` and `other` agree element-wise within
    /// `tol`, including matching shapes.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Swaps rows `a` and `b` in place.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row swap out of bounds");
        if a == b {
            return;
        }
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let (head, tail) = self.data.split_at_mut(hi * self.cols);
        head[lo * self.cols..(lo + 1) * self.cols].swap_with_slice(&mut tail[..self.cols]);
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows {
            write!(f, "  ")?;
            for c in 0..self.cols {
                write!(f, "{:>12.6} ", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "matrix index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics when the shapes differ.
    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix add: shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;
    /// # Panics
    ///
    /// Panics when the shapes differ.
    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "matrix sub: shape mismatch");
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: f64) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn constructors() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        let d = Matrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d[(1, 1)], 3.0);
        assert_eq!(d[(1, 0)], 0.0);
        let f = Matrix::from_fn(2, 2, |r, c| (r * 10 + c) as f64);
        assert_eq!(f[(1, 1)], 11.0);
    }

    #[test]
    fn from_rows_validates() {
        assert!(matches!(
            Matrix::from_rows(&[]),
            Err(LinalgError::EmptyInput { .. })
        ));
        assert!(matches!(
            Matrix::from_rows(&[&[1.0], &[1.0, 2.0]]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_row_major_validates() {
        assert!(Matrix::from_row_major(2, 2, vec![1.0; 4]).is_ok());
        assert!(Matrix::from_row_major(2, 2, vec![1.0; 3]).is_err());
    }

    #[test]
    fn row_column_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(2).as_slice(), &[3.0, 6.0]);
        assert_eq!(m.get(0, 0), Some(1.0));
        assert_eq!(m.get(2, 0), None);
        assert_eq!(m.get(0, 3), None);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn multiply() {
        let m = sample();
        let t = m.transpose();
        let g = m.mul_matrix(&t).unwrap();
        // [1 2 3; 4 5 6] * [1 4; 2 5; 3 6] = [14 32; 32 77]
        assert_eq!(g[(0, 0)], 14.0);
        assert_eq!(g[(0, 1)], 32.0);
        assert_eq!(g[(1, 1)], 77.0);
        assert!(m.mul_matrix(&m).is_err());
    }

    #[test]
    fn multiply_identity_is_noop() {
        let m = sample();
        assert_eq!(m.mul_matrix(&Matrix::identity(3)).unwrap(), m);
        assert_eq!(Matrix::identity(2).mul_matrix(&m).unwrap(), m);
    }

    #[test]
    fn mat_vec() {
        let m = sample();
        let v = Vector::from_slice(&[1.0, 0.0, -1.0]);
        assert_eq!(m.mul_vector(&v).unwrap().as_slice(), &[-2.0, -2.0]);
        assert!(m.mul_vector(&Vector::zeros(2)).is_err());
    }

    #[test]
    fn gram_matches_explicit_product() {
        let m = sample();
        let g = m.gram();
        let expect = m.transpose().mul_matrix(&m).unwrap();
        assert!(g.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn weighted_gram_matches_explicit_product() {
        let m = sample();
        let w = [2.0, 0.5];
        let g = m.weighted_gram(&w).unwrap();
        let dw = Matrix::from_diagonal(&w);
        let expect = m
            .transpose()
            .mul_matrix(&dw)
            .unwrap()
            .mul_matrix(&m)
            .unwrap();
        assert!(g.approx_eq(&expect, 1e-12));
        assert!(m.weighted_gram(&[1.0]).is_err());
    }

    #[test]
    fn transpose_mul_vector_matches_explicit() {
        let m = sample();
        let v = Vector::from_slice(&[1.0, 2.0]);
        let got = m.transpose_mul_vector(&v).unwrap();
        let expect = m.transpose().mul_vector(&v).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn select_columns_and_vstack() {
        let m = sample();
        let s = m.select_columns(&[2, 0]).unwrap();
        assert_eq!(s.row(0), &[3.0, 1.0]);
        assert!(m.select_columns(&[3]).is_err());
        let v = m.vstack(&m).unwrap();
        assert_eq!(v.shape(), (4, 3));
        assert_eq!(v.row(3), m.row(1));
        assert!(m.vstack(&Matrix::zeros(1, 2)).is_err());
    }

    #[test]
    fn swap_rows_works() {
        let mut m = sample();
        m.swap_rows(0, 1);
        assert_eq!(m.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]).unwrap();
        assert_eq!(m.norm_frobenius(), 5.0);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn finite_and_approx_eq() {
        let m = sample();
        assert!(m.is_finite());
        let mut n = m.clone();
        n[(0, 0)] += 1e-9;
        assert!(m.approx_eq(&n, 1e-8));
        assert!(!m.approx_eq(&n, 1e-10));
        assert!(!m.approx_eq(&Matrix::zeros(2, 2), 1.0));
        n[(0, 0)] = f64::NAN;
        assert!(!n.is_finite());
    }

    #[test]
    fn display_nonempty() {
        assert!(format!("{}", sample()).contains("Matrix 2x3"));
    }
}
