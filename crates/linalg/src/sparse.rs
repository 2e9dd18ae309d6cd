//! Compressed-sparse-row matrices and their COO builder.
//!
//! CTMC generator matrices are extremely sparse — a state in the
//! paper's models has at most five outgoing transitions — so the Markov
//! crate stores generators in CSR and the uniformization loop is a
//! sequence of sparse vector–matrix products.

use crate::error::LinalgError;
use crate::Result;

/// Triplet (COO) accumulator for building a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are summed, which is exactly what a
/// Markov model builder wants: adding two transitions between the same
/// pair of states accumulates their rates.
#[derive(Debug, Clone)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Start building a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooBuilder {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Add `value` at `(row, col)`; duplicates accumulate.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(LinalgError::OutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            });
        }
        if !value.is_finite() {
            return Err(LinalgError::NotFinite {
                context: "CooBuilder::push",
            });
        }
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
        Ok(())
    }

    /// Finish building: sort, merge duplicates, and compress to CSR.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; self.rows + 1];
        let mut col_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());

        let mut iter = self.entries.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(nr, nc, nv)) = iter.peek() {
                if nr == r && nc == c {
                    v += nv;
                    iter.next();
                } else {
                    break;
                }
            }
            // A merged duplicate pair can cancel to exactly zero; keep it
            // anyway so the structural nonzero pattern stays predictable.
            col_idx.push(c);
            values.push(v);
            row_ptr[r + 1] += 1;
        }
        for r in 0..self.rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
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

    /// Number of stored (structural) nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Iterate over the stored entries of one row as `(col, value)` pairs.
    #[inline]
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Value at `(r, c)`, zero when not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.row_entries(r)
            .find(|&(col, _)| col == c)
            .map(|(_, v)| v)
            .unwrap_or(0.0)
    }

    /// Sparse matrix–vector product `y = A x` (reference for the
    /// solver tests).
    #[cfg(test)]
    pub(crate) fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "csr matvec",
                lhs: (self.rows, self.cols),
                rhs: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row_entries(r).map(|(c, v)| v * x[c]).sum())
            .collect())
    }

    /// Row-vector product `y = x^T A` (the tests' allocating form of
    /// [`CsrMatrix::vecmat_into`]).
    #[cfg(test)]
    pub(crate) fn vecmat(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "csr vecmat",
                lhs: (1, x.len()),
                rhs: (self.rows, self.cols),
            });
        }
        let mut y = vec![0.0; self.cols];
        self.vecmat_into(x, &mut y)?;
        Ok(y)
    }

    /// `vecmat` into a caller-provided buffer. `y` is cleared first.
    pub fn vecmat_into(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.rows || y.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "csr vecmat_into",
                lhs: (1, x.len()),
                rhs: (self.rows, self.cols),
            });
        }
        y.fill(0.0);
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            let lo = self.row_ptr[r];
            let hi = self.row_ptr[r + 1];
            for k in lo..hi {
                y[self.col_idx[k]] += xr * self.values[k];
            }
        }
        Ok(())
    }

    /// Transpose into a new CSR matrix (reference for the `vecmat`
    /// tests).
    #[cfg(test)]
    pub(crate) fn transpose(&self) -> CsrMatrix {
        let mut builder = CooBuilder::new(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                // Indices came from a valid matrix; push cannot fail.
                builder.push(c, r, v).expect("transpose push");
            }
        }
        builder.build()
    }

    /// Densify (the dense reference in the solver tests).
    #[cfg(test)]
    pub(crate) fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                d.add_to(r, c, v);
            }
        }
        d
    }

    /// Sum of each row, returned as a vector. For a CTMC generator this
    /// must be (numerically) zero for every row — a key model invariant.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows)
            .map(|r| self.row_entries(r).map(|(_, v)| v).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> CsrMatrix {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 0, 1.0).unwrap();
        b.push(0, 2, 2.0).unwrap();
        b.push(1, 2, 3.0).unwrap();
        b.push(2, 0, 4.0).unwrap();
        b.push(2, 1, 5.0).unwrap();
        b.build()
    }

    #[test]
    fn build_and_get() {
        let m = sample();
        assert_eq!(m.nnz(), 5);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 1), 5.0);
    }

    #[test]
    fn duplicates_accumulate() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 1.5).unwrap();
        b.push(0, 0, 2.5).unwrap();
        let m = b.build();
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn zero_pushes_are_dropped() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 0.0).unwrap();
        assert_eq!(b.build().nnz(), 0);
    }

    #[test]
    fn push_validates() {
        let mut b = CooBuilder::new(2, 2);
        assert!(b.push(2, 0, 1.0).is_err());
        assert!(b.push(0, 0, f64::NAN).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let sparse = m.matvec(&x).unwrap();
        let dense = m.to_dense().matvec(&x).unwrap();
        assert_eq!(sparse, dense);
        assert_eq!(sparse, vec![7.0, 9.0, 14.0]);
    }

    #[test]
    fn vecmat_matches_dense() {
        let m = sample();
        let x = [1.0, 2.0, 3.0];
        let sparse = m.vecmat(&x).unwrap();
        let dense = m.to_dense().vecmat(&x).unwrap();
        assert_eq!(sparse, dense);
        assert_eq!(sparse, vec![13.0, 15.0, 8.0]);
    }

    #[test]
    fn transpose_swaps_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 2), 5.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn dimension_errors() {
        let m = sample();
        assert!(m.matvec(&[1.0]).is_err());
        assert!(m.vecmat(&[1.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(m.vecmat_into(&[1.0, 2.0, 3.0], &mut y).is_err());
    }

    #[test]
    fn row_sums_add_each_row() {
        let m = sample();
        assert_eq!(m.row_sums(), vec![3.0, 3.0, 9.0]);
    }

    prop_compose! {
        fn coo_entries(n: usize, max_entries: usize)
                      (entries in proptest::collection::vec(
                          (0..n, 0..n, -100.0..100.0_f64), 0..max_entries))
                      -> Vec<(usize, usize, f64)> {
            entries
        }
    }

    proptest! {
        #[test]
        fn csr_agrees_with_dense_on_random_matrices(
            entries in coo_entries(8, 40),
            x in proptest::collection::vec(-10.0..10.0_f64, 8),
        ) {
            let mut b = CooBuilder::new(8, 8);
            for &(r, c, v) in &entries {
                b.push(r, c, v).unwrap();
            }
            let m = b.build();
            let d = m.to_dense();
            let mv_s = m.matvec(&x).unwrap();
            let mv_d = d.matvec(&x).unwrap();
            let vm_s = m.vecmat(&x).unwrap();
            let vm_d = d.vecmat(&x).unwrap();
            for i in 0..8 {
                prop_assert!((mv_s[i] - mv_d[i]).abs() < 1e-9);
                prop_assert!((vm_s[i] - vm_d[i]).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_is_involution(entries in coo_entries(6, 24)) {
            let mut b = CooBuilder::new(6, 6);
            for &(r, c, v) in &entries {
                b.push(r, c, v).unwrap();
            }
            let m = b.build();
            // Compare via dense form: double-transpose may reorder
            // structurally-zero entries, but values must match.
            let round = m.transpose().transpose().to_dense();
            let orig = m.to_dense();
            for r in 0..6 {
                for c in 0..6 {
                    prop_assert!((round.get(r, c) - orig.get(r, c)).abs() < 1e-12);
                }
            }
        }

        #[test]
        fn vecmat_is_transpose_matvec(entries in coo_entries(7, 30),
                                      x in proptest::collection::vec(-5.0..5.0_f64, 7)) {
            let mut b = CooBuilder::new(7, 7);
            for &(r, c, v) in &entries {
                b.push(r, c, v).unwrap();
            }
            let m = b.build();
            let lhs = m.vecmat(&x).unwrap();
            let rhs = m.transpose().matvec(&x).unwrap();
            for i in 0..7 {
                prop_assert!((lhs[i] - rhs[i]).abs() < 1e-9);
            }
        }
    }
}
