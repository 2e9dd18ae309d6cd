//! Iterative solvers: Gauss–Seidel and power iteration (plus a Jacobi
//! reference the tests compare Gauss–Seidel with).
//!
//! These exist for chains too large for dense LU (the simulator's
//! composite models can reach thousands of states) and to cross-check
//! the direct solver in tests. All methods report the iteration count
//! they used, so benches can compare convergence behaviour.

use crate::error::LinalgError;
use crate::sparse::CsrMatrix;
use crate::vector;
use crate::Result;

/// Options shared by the iterative solvers.
#[derive(Debug, Clone, Copy)]
pub struct IterOptions {
    /// Stop when the max-norm change between successive iterates drops
    /// below this value.
    pub tol: f64,
    /// Hard iteration cap; exceeded means [`LinalgError::NoConvergence`].
    pub max_iters: usize,
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions {
            tol: crate::DEFAULT_TOL,
            max_iters: 200_000,
        }
    }
}

/// Outcome of an iterative solve: the solution plus convergence data.
#[derive(Debug, Clone)]
pub struct IterSolution {
    /// The converged vector.
    pub x: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final max-norm update size.
    pub residual: f64,
}

/// Solve `A x = b` by Gauss–Seidel iteration (in-place sweeps).
///
/// Requires a nonzero diagonal. Converges for strictly diagonally
/// dominant systems, which covers shifted generator systems.
pub fn gauss_seidel(a: &CsrMatrix, b: &[f64], opts: IterOptions) -> Result<IterSolution> {
    let n = a.rows();
    if a.cols() != n || b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "iterative solve",
            lhs: (a.rows(), a.cols()),
            rhs: (b.len(), 1),
        });
    }
    // Extract the diagonal once; fail fast on a zero pivot.
    let mut diag = vec![0.0; n];
    for i in 0..n {
        let d = a.get(i, i);
        if d == 0.0 {
            return Err(LinalgError::Singular { pivot: i });
        }
        diag[i] = d;
    }

    let mut x = vec![0.0; n];
    for it in 1..=opts.max_iters {
        let mut delta = 0.0_f64;
        for i in 0..n {
            let mut acc = b[i];
            for (c, v) in a.row_entries(i) {
                if c != i {
                    acc -= v * x[c];
                }
            }
            let new = acc / diag[i];
            delta = delta.max((new - x[i]).abs());
            x[i] = new;
        }
        if !delta.is_finite() {
            return Err(LinalgError::NotFinite {
                context: "iterative solve diverged",
            });
        }
        if delta < opts.tol {
            return Ok(IterSolution {
                x,
                iterations: it,
                residual: delta,
            });
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: opts.max_iters,
        residual: f64::NAN,
    })
}

/// Stationary distribution of a row-stochastic matrix `P` by power
/// iteration: repeat `pi <- pi P` until the iterate stops moving.
///
/// `P` must be row-stochastic (rows summing to one); the caller is
/// expected to have produced it via uniformization of a generator. The
/// result is L1-normalized. Periodic chains will not converge — the
/// uniformized DTMC of any CTMC is aperiodic whenever the uniformization
/// rate strictly exceeds the largest exit rate, which
/// `dra-markov` guarantees by inflating the rate.
pub fn power_iteration(p: &CsrMatrix, opts: IterOptions) -> Result<IterSolution> {
    let n = p.rows();
    if p.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            op: "power iteration",
            lhs: (p.rows(), p.cols()),
            rhs: (p.cols(), p.rows()),
        });
    }
    if n == 0 {
        return Ok(IterSolution {
            x: Vec::new(),
            iterations: 0,
            residual: 0.0,
        });
    }
    let mut pi = vec![1.0 / n as f64; n];
    let mut next = vec![0.0; n];
    for it in 1..=opts.max_iters {
        p.vecmat_into(&pi, &mut next)?;
        if !vector::normalize_l1(&mut next) {
            return Err(LinalgError::NotFinite {
                context: "power iteration produced a zero/non-finite vector",
            });
        }
        let delta = vector::dist_inf(&pi, &next);
        std::mem::swap(&mut pi, &mut next);
        if delta < opts.tol {
            return Ok(IterSolution {
                x: pi,
                iterations: it,
                residual: delta,
            });
        }
    }
    Err(LinalgError::NoConvergence {
        iterations: opts.max_iters,
        residual: f64::NAN,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::CooBuilder;
    use proptest::prelude::*;

    /// Jacobi iteration: the reference Gauss–Seidel is compared with.
    fn jacobi(a: &CsrMatrix, b: &[f64], opts: IterOptions) -> Result<IterSolution> {
        let n = a.rows();
        if a.cols() != n || b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                op: "jacobi",
                lhs: (a.rows(), a.cols()),
                rhs: (b.len(), 1),
            });
        }
        let mut x = vec![0.0; n];
        let mut x_next = vec![0.0; n];
        for it in 1..=opts.max_iters {
            let mut delta = 0.0_f64;
            for i in 0..n {
                let mut acc = b[i];
                let mut diag = 0.0;
                for (c, v) in a.row_entries(i) {
                    if c == i {
                        diag = v;
                    } else {
                        acc -= v * x[c];
                    }
                }
                x_next[i] = acc / diag;
                delta = delta.max((x_next[i] - x[i]).abs());
            }
            std::mem::swap(&mut x, &mut x_next);
            if delta < opts.tol {
                return Ok(IterSolution {
                    x,
                    iterations: it,
                    residual: delta,
                });
            }
        }
        Err(LinalgError::NoConvergence {
            iterations: opts.max_iters,
            residual: f64::NAN,
        })
    }

    fn diag_dominant_csr(n: usize, seed: u64) -> CsrMatrix {
        // Simple deterministic pseudo-random fill, then make the
        // diagonal dominant.
        let mut b = CooBuilder::new(n, n);
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        };
        let mut row_abs = vec![0.0; n];
        for r in 0..n {
            for c in 0..n {
                if r != c && (r + c) % 3 != 0 {
                    let v = next();
                    b.push(r, c, v).unwrap();
                    row_abs[r] += v.abs();
                }
            }
        }
        for r in 0..n {
            b.push(r, r, row_abs[r] + 1.0).unwrap();
        }
        b.build()
    }

    #[test]
    fn jacobi_and_gs_agree_with_lu() {
        let a = diag_dominant_csr(10, 42);
        let b: Vec<f64> = (0..10).map(|i| i as f64 - 3.0).collect();
        let exact = a.to_dense().solve(&b).unwrap();
        let opts = IterOptions::default();

        let j = jacobi(&a, &b, opts).unwrap();
        let g = gauss_seidel(&a, &b, opts).unwrap();
        for i in 0..10 {
            assert!((j.x[i] - exact[i]).abs() < 1e-8, "jacobi off at {i}");
            assert!((g.x[i] - exact[i]).abs() < 1e-8, "gs off at {i}");
        }
        // Gauss–Seidel should need no more sweeps than Jacobi here.
        assert!(g.iterations <= j.iterations);
    }

    #[test]
    fn zero_diagonal_is_rejected() {
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 1, 1.0).unwrap();
        b.push(1, 0, 1.0).unwrap();
        let a = b.build();
        assert!(matches!(
            gauss_seidel(&a, &[1.0, 1.0], IterOptions::default()),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn nonconvergence_is_reported() {
        // A rotation-like system Jacobi cannot solve in 3 iterations.
        let a = diag_dominant_csr(6, 7);
        let b = vec![1.0; 6];
        let opts = IterOptions {
            tol: 1e-15,
            max_iters: 2,
        };
        assert!(matches!(
            jacobi(&a, &b, opts),
            Err(LinalgError::NoConvergence { .. })
        ));
    }

    #[test]
    fn power_iteration_two_state_chain() {
        // P = [[0.9, 0.1], [0.5, 0.5]] has stationary pi = (5/6, 1/6).
        let mut b = CooBuilder::new(2, 2);
        b.push(0, 0, 0.9).unwrap();
        b.push(0, 1, 0.1).unwrap();
        b.push(1, 0, 0.5).unwrap();
        b.push(1, 1, 0.5).unwrap();
        let p = b.build();
        let sol = power_iteration(&p, IterOptions::default()).unwrap();
        assert!((sol.x[0] - 5.0 / 6.0).abs() < 1e-9);
        assert!((sol.x[1] - 1.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn power_iteration_identity_converges_immediately() {
        let mut b = CooBuilder::new(3, 3);
        for i in 0..3 {
            b.push(i, i, 1.0).unwrap();
        }
        let p = b.build();
        let sol = power_iteration(&p, IterOptions::default()).unwrap();
        for v in &sol.x {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
        assert_eq!(sol.iterations, 1);
    }

    #[test]
    fn power_iteration_empty_matrix() {
        let p = CooBuilder::new(0, 0).build();
        let sol = power_iteration(&p, IterOptions::default()).unwrap();
        assert!(sol.x.is_empty());
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = CooBuilder::new(3, 2).build();
        assert!(gauss_seidel(&a, &[1.0; 3], IterOptions::default()).is_err());
        assert!(power_iteration(&a, IterOptions::default()).is_err());
    }

    proptest! {
        #[test]
        fn gs_residual_small_on_random_dd_systems(seed in 0u64..1000,
                                                  scale in 0.1..10.0_f64) {
            let a = diag_dominant_csr(8, seed);
            let b: Vec<f64> = (0..8).map(|i| scale * (i as f64 - 4.0)).collect();
            let sol = gauss_seidel(&a, &b, IterOptions::default()).unwrap();
            let ax = a.matvec(&sol.x).unwrap();
            for i in 0..8 {
                prop_assert!((ax[i] - b[i]).abs() < 1e-7);
            }
        }

        #[test]
        fn power_iteration_fixed_point(p00 in 0.01..0.99_f64, p10 in 0.01..0.99_f64) {
            // Random 2-state stochastic matrix: stationary distribution
            // satisfies pi P = pi.
            let mut b = CooBuilder::new(2, 2);
            b.push(0, 0, p00).unwrap();
            b.push(0, 1, 1.0 - p00).unwrap();
            b.push(1, 0, p10).unwrap();
            b.push(1, 1, 1.0 - p10).unwrap();
            let p = b.build();
            let sol = power_iteration(&p, IterOptions::default()).unwrap();
            let pi_p = p.vecmat(&sol.x).unwrap();
            for i in 0..2 {
                prop_assert!((pi_p[i] - sol.x[i]).abs() < 1e-8);
            }
            // Closed form: pi_0 = p10 / (p10 + (1 - p00)).
            let expect0 = p10 / (p10 + 1.0 - p00);
            prop_assert!((sol.x[0] - expect0).abs() < 1e-6);
        }
    }
}
