//! Steady-state distributions: π Q = 0, Σπ = 1.
//!
//! All methods require a chain with a *unique* stationary distribution
//! (irreducible, as the paper's availability models with repair are).
//! Reducible chains make the balance system singular, which the direct
//! method reports as an error rather than returning garbage.

use crate::ctmc::{Ctmc, MarkovError};
use crate::Result;
use dra_linalg::iterative::{self, IterOptions};
use dra_linalg::DenseMatrix;

/// Which algorithm computes the stationary distribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteadyMethod {
    /// Dense LU on the balance equations with one equation replaced by
    /// the normalization constraint. Exact (to rounding); the default
    /// for the paper's model sizes.
    DirectLu,
    /// Gauss–Seidel on the same (replaced) system. For chains too large
    /// to densify.
    GaussSeidel,
    /// Power iteration on the uniformized DTMC. Never needs a matrix
    /// factorization; slowest convergence.
    Power,
}

/// Compute the stationary distribution of `chain` using `method`.
pub fn steady_state(chain: &Ctmc, method: SteadyMethod) -> Result<Vec<f64>> {
    let n = chain.n_states();
    if n == 1 {
        return Ok(vec![1.0]);
    }
    match method {
        SteadyMethod::DirectLu => direct_lu(chain),
        SteadyMethod::GaussSeidel => gauss_seidel(chain),
        SteadyMethod::Power => power(chain),
    }
}

/// Build the dense system `A x = b` encoding `Q^T x = 0` with row
/// `anchor` replaced by `1^T x = 1`.
fn balance_system(chain: &Ctmc, anchor: usize) -> (DenseMatrix, Vec<f64>) {
    let n = chain.n_states();
    let q = chain.generator();
    let mut a = DenseMatrix::zeros(n, n);
    for r in 0..n {
        for (c, v) in q.row_entries(r) {
            // Q^T: entry (c, r) gets Q[r][c].
            if c != anchor {
                a.add_to(c, r, v);
            }
        }
    }
    for c in 0..n {
        a.set(anchor, c, 1.0);
    }
    let mut b = vec![0.0; n];
    b[anchor] = 1.0;
    (a, b)
}

fn direct_lu(chain: &Ctmc) -> Result<Vec<f64>> {
    let (a, b) = balance_system(chain, 0);
    let mut x = a.solve(&b)?;
    sanitize(&mut x)?;
    Ok(x)
}

fn gauss_seidel(chain: &Ctmc) -> Result<Vec<f64>> {
    // The replaced-row system has diagonal entries −exit_i (nonzero for
    // non-absorbing states) and 1.0 on the anchor row. Build it sparse.
    let n = chain.n_states();
    let q = chain.generator();
    let anchor = 0usize;
    let mut coo = dra_linalg::CooBuilder::new(n, n);
    for r in 0..n {
        for (c, v) in q.row_entries(r) {
            if c != anchor {
                coo.push(c, r, v)?;
            }
        }
    }
    for c in 0..n {
        coo.push(anchor, c, 1.0)?;
    }
    let a = coo.build();
    let mut b = vec![0.0; n];
    b[anchor] = 1.0;
    let sol = iterative::gauss_seidel(&a, &b, IterOptions::default())?;
    let mut x = sol.x;
    sanitize(&mut x)?;
    Ok(x)
}

fn power(chain: &Ctmc) -> Result<Vec<f64>> {
    let lambda = chain.max_exit_rate() * 1.05;
    if lambda == 0.0 {
        // No transitions at all: every distribution is stationary; the
        // uniform one is the canonical answer.
        let n = chain.n_states();
        return Ok(vec![1.0 / n as f64; n]);
    }
    let p = chain.uniformized(lambda)?;
    let sol = iterative::power_iteration(
        &p,
        IterOptions {
            tol: 1e-14,
            max_iters: 5_000_000,
        },
    )?;
    Ok(sol.x)
}

/// Clamp tiny negative rounding artifacts and renormalize; reject
/// genuinely negative solutions (symptom of a reducible chain slipping
/// past the singularity check).
fn sanitize(x: &mut [f64]) -> Result<()> {
    for v in x.iter_mut() {
        if *v < 0.0 {
            if *v < -1e-9 {
                return Err(MarkovError::BadStructure {
                    reason: "balance solution has negative components; \
                             the chain likely has no unique stationary distribution",
                });
            }
            *v = 0.0;
        }
    }
    if !dra_linalg::vector::normalize_l1(x) {
        return Err(MarkovError::BadStructure {
            reason: "balance solution sums to zero",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    fn repairable(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.rate(up, down, lambda).unwrap();
        b.rate(down, up, mu).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn two_state_closed_form_all_methods() {
        let (l, m) = (2e-5, 1.0 / 3.0);
        let c = repairable(l, m);
        let expect_up = m / (l + m);
        for method in [
            SteadyMethod::DirectLu,
            SteadyMethod::GaussSeidel,
            SteadyMethod::Power,
        ] {
            let pi = steady_state(&c, method).unwrap();
            assert!(
                (pi[0] - expect_up).abs() < 1e-10,
                "{method:?}: got {} want {expect_up}",
                pi[0]
            );
        }
    }

    #[test]
    fn mm1k_queue_is_geometric() {
        // M/M/1/K birth-death chain: pi_i proportional to rho^i.
        let (lam, mu, k) = (0.6, 1.0, 5usize);
        let rho: f64 = lam / mu;
        let mut b = CtmcBuilder::new();
        let states: Vec<_> = (0..=k).map(|i| b.state(format!("q{i}")).unwrap()).collect();
        for i in 0..k {
            b.rate(states[i], states[i + 1], lam).unwrap();
            b.rate(states[i + 1], states[i], mu).unwrap();
        }
        let c = b.build().unwrap();
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for method in [
            SteadyMethod::DirectLu,
            SteadyMethod::GaussSeidel,
            SteadyMethod::Power,
        ] {
            let pi = steady_state(&c, method).unwrap();
            for i in 0..=k {
                let expect = rho.powi(i as i32) / norm;
                assert!(
                    (pi[i] - expect).abs() < 1e-8,
                    "{method:?} state {i}: {} vs {expect}",
                    pi[i]
                );
            }
        }
    }

    #[test]
    fn single_state_chain() {
        let mut b = CtmcBuilder::new();
        b.state("only").unwrap();
        let c = b.build().unwrap();
        assert_eq!(steady_state(&c, SteadyMethod::DirectLu).unwrap(), vec![1.0]);
    }

    #[test]
    fn steady_state_agrees_with_long_horizon_transient() {
        let c = repairable(0.05, 0.4);
        let pi_ss = steady_state(&c, SteadyMethod::DirectLu).unwrap();
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        let pi_t =
            crate::transient::transient(&c, &pi0, 1_000.0, crate::TransientOptions::default())
                .unwrap();
        for i in 0..2 {
            assert!((pi_ss[i] - pi_t[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn stationarity_fixed_point() {
        // pi Q must be (numerically) zero.
        let c = repairable(0.3, 0.9);
        let pi = steady_state(&c, SteadyMethod::DirectLu).unwrap();
        let mut flow = vec![0.0; pi.len()];
        c.generator().vecmat_into(&pi, &mut flow).unwrap();
        for v in flow {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn reducible_chain_reports_structure_error() {
        // Two disconnected repairable pairs: no unique stationary dist.
        let mut b = CtmcBuilder::new();
        let a0 = b.state("a0").unwrap();
        let a1 = b.state("a1").unwrap();
        let c0 = b.state("c0").unwrap();
        let c1 = b.state("c1").unwrap();
        b.rate(a0, a1, 1.0).unwrap();
        b.rate(a1, a0, 1.0).unwrap();
        b.rate(c0, c1, 1.0).unwrap();
        b.rate(c1, c0, 1.0).unwrap();
        let chain = b.build().unwrap();
        // Direct LU must either flag singularity or (rounding permitting)
        // some structure error; it must never return silently.
        match steady_state(&chain, SteadyMethod::DirectLu) {
            Err(_) => {}
            Ok(pi) => {
                // If rounding let LU "solve" it, the result must at least
                // be a valid distribution satisfying piQ=0 — verify rather
                // than accept silently.
                let mut flow = vec![0.0; pi.len()];
                chain.generator().vecmat_into(&pi, &mut flow).unwrap();
                assert!(
                    flow.iter().all(|v| v.abs() < 1e-8),
                    "non-stationary output accepted"
                );
            }
        }
    }
}
