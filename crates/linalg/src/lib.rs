//! # dra-linalg
//!
//! Small, dependency-free linear algebra tailored to the needs of the
//! DRA reproduction's Markov solvers:
//!
//! * [`DenseMatrix`] — row-major dense matrices with an LU
//!   decomposition (partial pivoting) for the moderate state spaces of
//!   the paper's models (tens to hundreds of states).
//! * [`CsrMatrix`] / [`CooBuilder`] — compressed-sparse-row matrices
//!   for generator matrices and the uniformized DTMC, where each state
//!   has only a handful of outgoing transitions.
//! * [`iterative`] — Gauss–Seidel and power iteration for
//!   steady-state distributions on larger chains.
//! * [`vector`] — the handful of BLAS-1 style kernels everything else
//!   is built from.
//!
//! The crate is deliberately `f64`-only: dependability analysis needs
//! the precision (availability values like 0.999999998 must survive the
//! arithmetic), and genericity over scalars would buy nothing here.

#![warn(missing_docs)]
// Index-parallel numerical kernels (walking several arrays by the same
// index) read better with explicit indices than zipped iterators.
#![allow(clippy::needless_range_loop)]

pub mod dense;
pub mod error;
pub mod expm;
pub mod iterative;
pub mod sparse;
pub mod vector;

pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use expm::expm;
pub use sparse::{CooBuilder, CsrMatrix};

/// Convenience result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;

/// Absolute tolerance used by default across solvers and tests.
///
/// Chosen so that availability figures with nine significant nines are
/// still resolved: the solvers iterate to well below the last digit the
/// paper reports.
pub(crate) const DEFAULT_TOL: f64 = 1e-12;
