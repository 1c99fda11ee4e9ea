//! # lion-linalg
//!
//! Small, self-contained dense linear-algebra toolkit used by the LION
//! reproduction (ICDCS 2022, "Pinpoint Achilles' Heel in RFID Localization").
//!
//! The LION localization model reduces RFID phase localization to solving an
//! overdetermined linear system `A·x = k` with (iteratively re-)weighted
//! least squares. Every LION solve runs one route: the normal equations
//! `(AᵀWA)·x = AᵀWk` (paper Eq. 16) accumulated in a [`NormalEq`] and
//! iterated by [`solve_irls_normal`], with ordinary least squares (Eq. 13)
//! as the uniform-weight case `W = I`. This crate provides everything
//! that pipeline needs, built from scratch on `std` only:
//!
//! - [`Matrix`] / [`Vector`]: dense row-major matrices and vectors,
//! - [`Lu`]: LU decomposition with partial pivoting (solve / det / inverse),
//! - [`Qr`]: Householder QR (least-squares solve, rank detection),
//! - [`Cholesky`]: for symmetric positive-definite systems,
//! - [`NormalEq`] and [`solve_irls_normal`]: weighted normal equations
//!   over stored rows (bulk loads and reweights; the Gram matrix is
//!   recomputed from the rows on the next solve) and the
//!   Anderson-accelerated IRLS loop over them — the solver behind every
//!   batch, sweep and streaming solve,
//! - [`sym_eigen3`]: stack-only symmetric 3×3 eigensolver for geometry
//!   frames,
//! - [`lstsq`]: the weight functions and [`IrlsConfig`] the IRLS loop
//!   runs with (the paper's Gaussian-of-residual weight, Eq. 15), plus
//!   QR-based plain, weighted and iteratively-reweighted least squares —
//!   the better-conditioned reference the normal-equation route is
//!   tested against, and the solver of the baseline methods,
//! - [`lm`]: Levenberg–Marquardt for the non-linear hyperbola baseline,
//! - [`stats`]: summary statistics, circular (phase) statistics, filters,
//! - [`poly`]: polynomial fitting for the parabola baseline,
//! - [`simd`]: runtime-dispatched (AVX2/NEON) kernels for the solve
//!   pipeline's hot loops, bit-identical to their scalar references.
//!
//! # Example
//!
//! Solve an overdetermined system in the least-squares sense:
//!
//! ```
//! use lion_linalg::{Matrix, Vector, lstsq};
//!
//! # fn main() -> Result<(), lion_linalg::LinalgError> {
//! // y = 2x + 1 sampled at x = 0, 1, 2 with a design matrix [x 1].
//! let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0]])?;
//! let k = Vector::from_slice(&[1.0, 3.0, 5.0]);
//! let x = lstsq::solve(&a, &k)?;
//! assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

// `simd` is the single sanctioned exception to the no-unsafe rule: it
// needs `core::arch` intrinsics, and it opts in module-locally.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod anderson;
mod cholesky;
mod eigen;
mod error;
pub mod lm;
pub mod lstsq;
mod lu;
mod matrix;
pub mod normal;
pub mod poly;
mod qr;
pub mod simd;
pub mod stats;
mod vector;

pub use cholesky::Cholesky;
pub use eigen::sym_eigen3;
pub use error::LinalgError;
pub use lm::{LevenbergMarquardt, LmOutcome, LmReport};
pub use lstsq::{IrlsConfig, IrlsReport, WeightFunction};
pub use lu::Lu;
pub use matrix::Matrix;
pub use normal::{solve_irls_normal, NormalEq, NormalIrlsOutcome, NormalIrlsScratch};
pub use qr::Qr;
pub use vector::Vector;

/// Convenience result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
