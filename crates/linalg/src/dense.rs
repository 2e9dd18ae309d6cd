//! Row-major dense matrices and an LU solver with partial pivoting.
//!
//! The paper's Markov models have at most a few hundred states
//! (`(N-2)·(M-1)` interior states plus boundaries for N ≤ 9, M ≤ 8),
//! so a dense LU factorization is both the simplest and the most robust
//! way to solve the steady-state balance equations exactly. Larger
//! chains go through [`crate::iterative`] instead.

use crate::error::LinalgError;
use crate::vector;
use crate::Result;

/// A dense, row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Create a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Create an identity matrix of order `n`.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Build a matrix from a row-major slice of data.
    ///
    /// Returns a `DimensionMismatch` error when `data.len() != rows*cols`.
    #[cfg(test)]
    pub(crate) fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::DimensionMismatch {
                op: "from_rows",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Number of rows.
    #[inline]
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    /// Panics when the index is out of bounds.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    /// Panics when the index is out of bounds.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Add `v` to the element at `(r, c)`.
    #[inline]
    pub fn add_to(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] += v;
    }

    /// Borrow a row as a slice.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow a row as a slice.
    #[inline]
    pub(crate) fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `A x` (reference for the solver tests).
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Vector–matrix product `x^T A` (row vector times matrix).
    ///
    /// This is the natural operation for probability vectors: the
    /// Chapman–Kolmogorov step is `pi' = pi P`.
    pub fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "vecmat",
                lhs: (1, x.len()),
                rhs: (self.rows, self.cols),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr != 0.0 {
                vector::axpy(xr, self.row(r), &mut out);
            }
        }
        Ok(out)
    }

    /// Dense matrix product `A B`.
    pub(crate) fn matmul(&self, other: &DenseMatrix) -> Result<DenseMatrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (other.rows, other.cols),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a != 0.0 {
                    let src_row = other.row(k);
                    let dst_row = out.row_mut(r);
                    vector::axpy(a, src_row, dst_row);
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy (reference for the `vecmat` tests).
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Factorize the (square) matrix as `P A = L U` with partial pivoting.
    pub fn lu(&self) -> Result<LuDecomposition> {
        if !self.is_square() {
            return Err(LinalgError::DimensionMismatch {
                op: "lu",
                lhs: (self.rows, self.cols),
                rhs: (self.cols, self.rows),
            });
        }
        if !vector::all_finite(&self.data) {
            return Err(LinalgError::NotFinite {
                context: "lu input",
            });
        }
        let n = self.rows;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Find the pivot: the largest magnitude entry in this column
            // at or below the diagonal.
            let mut pivot_row = col;
            let mut pivot_val = lu[col * n + col].abs();
            for r in (col + 1)..n {
                let v = lu[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < f64::MIN_POSITIVE {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for c in 0..n {
                    lu.swap(col * n + c, pivot_row * n + c);
                }
                perm.swap(col, pivot_row);
            }
            let diag = lu[col * n + col];
            for r in (col + 1)..n {
                let factor = lu[r * n + col] / diag;
                lu[r * n + col] = factor;
                if factor != 0.0 {
                    for c in (col + 1)..n {
                        lu[r * n + c] -= factor * lu[col * n + c];
                    }
                }
            }
        }
        Ok(LuDecomposition { n, lu, perm })
    }

    /// Solve `A x = b` via LU factorization.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        self.lu()?.solve(b)
    }

    /// Maximum absolute element, used as a cheap magnitude estimate.
    pub(crate) fn max_abs(&self) -> f64 {
        vector::norm_inf(&self.data)
    }
}

/// The result of `P A = L U` factorization.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    n: usize,
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Vec<f64>,
    /// Row permutation: `perm[i]` is the original row now living at row `i`.
    perm: Vec<usize>,
}

impl LuDecomposition {
    /// Solve `A x = b` using the stored factors.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.n;
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "lu solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // Apply the permutation to b, then forward- and back-substitute.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc / self.lu[r * n + r];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_and_identity() {
        let z = DenseMatrix::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!((0..2).all(|r| z.row(r).iter().all(|&v| v == 0.0)));

        let i = DenseMatrix::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(1, 2), 0.0);
    }

    #[test]
    fn from_rows_validates_length() {
        assert!(DenseMatrix::from_rows(2, 2, vec![1.0; 3]).is_err());
        assert!(DenseMatrix::from_rows(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn matvec_and_vecmat() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        assert_eq!(a.vecmat(&[1.0, 1.0]).unwrap(), vec![5.0, 7.0, 9.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn transpose_involution() {
        let a = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn lu_solves_known_system() {
        // 2x + y = 5 ; x + 3y = 10  => x = 1, y = 3
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_requires_pivoting() {
        // Leading zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singularity() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        match a.solve(&[1.0, 1.0]) {
            Err(LinalgError::Singular { .. }) => {}
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn lu_rejects_nonfinite() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, f64::NAN, 0.0, 1.0]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::NotFinite { .. })));
    }

    #[test]
    fn lu_rejects_rectangular() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(a.lu().is_err());
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let a = DenseMatrix::identity(3);
        assert!(a.solve(&[1.0, 2.0]).is_err());
    }

    /// Strategy yielding diagonally dominant matrices, which are always
    /// nonsingular — so LU must succeed and the residual must be tiny.
    fn diag_dominant(n: usize) -> impl Strategy<Value = DenseMatrix> {
        proptest::collection::vec(-1.0..1.0_f64, n * n).prop_map(move |mut data| {
            for i in 0..n {
                let row_sum: f64 = (0..n).map(|j| data[i * n + j].abs()).sum();
                data[i * n + i] = row_sum + 1.0;
            }
            DenseMatrix::from_rows(n, n, data).unwrap()
        })
    }

    proptest! {
        #[test]
        fn lu_residual_small(a in diag_dominant(6), b in proptest::collection::vec(-10.0..10.0_f64, 6)) {
            let x = a.solve(&b).unwrap();
            let ax = a.matvec(&x).unwrap();
            for (l, r) in ax.iter().zip(&b) {
                prop_assert!((l - r).abs() < 1e-8, "residual too large: {} vs {}", l, r);
            }
        }

        #[test]
        fn matvec_linear(a in diag_dominant(5),
                         x in proptest::collection::vec(-5.0..5.0_f64, 5),
                         y in proptest::collection::vec(-5.0..5.0_f64, 5)) {
            let sum: Vec<f64> = x.iter().zip(&y).map(|(p, q)| p + q).collect();
            let lhs = a.matvec(&sum).unwrap();
            let ax = a.matvec(&x).unwrap();
            let ay = a.matvec(&y).unwrap();
            for i in 0..5 {
                prop_assert!((lhs[i] - (ax[i] + ay[i])).abs() < 1e-9);
            }
        }

        #[test]
        fn vecmat_agrees_with_transpose_matvec(a in diag_dominant(5),
                                               x in proptest::collection::vec(-5.0..5.0_f64, 5)) {
            let lhs = a.vecmat(&x).unwrap();
            let rhs = a.transpose().matvec(&x).unwrap();
            for i in 0..5 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-9);
            }
        }
    }
}
