//! Transient solution π(t): uniformization and an RK45 cross-check.
//!
//! Uniformization writes `π(t) = Σ_k Pois(Λt; k) · π0 Pᵏ` where
//! `P = I + Q/Λ` and `Λ` is at least the largest exit rate. It is the
//! standard method for dependability models because every term is a
//! convex combination — no subtractive cancellation, probabilities stay
//! in `[0,1]` by construction.
//!
//! Two practical measures make it robust for the paper's horizons
//! (t up to 60 000 h with repair rates up to 1/3 per hour, i.e.
//! Λt ≈ 2·10⁴):
//!
//! 1. **Stepping** — the horizon is split so each step has
//!    `Λ·Δt ≤ max_step_mass` (default 64), keeping the Poisson weights
//!    comfortably inside `f64` range without Fox–Glynn scaling.
//! 2. **Steady-state detection** — when successive DTMC iterates stop
//!    moving (max-norm below `ss_tol`), the remaining Poisson tail is
//!    applied in one shot. Chains with repair reach this fixed point
//!    quickly, collapsing the cost of long horizons.

use crate::ctmc::{Ctmc, MarkovError};
use crate::Result;
use dra_linalg::vector;

/// Options for the uniformization solver.
#[derive(Debug, Clone, Copy)]
pub struct TransientOptions {
    /// Poisson tail truncation: terms are accumulated until their
    /// cumulative weight reaches `1 - epsilon`.
    pub epsilon: f64,
    /// Steady-state detection threshold on successive DTMC iterates.
    pub ss_tol: f64,
    /// Maximum Poisson mean per internal step (`Λ·Δt` cap).
    pub max_step_mass: f64,
}

impl Default for TransientOptions {
    fn default() -> Self {
        TransientOptions {
            epsilon: 1e-12,
            ss_tol: 1e-14,
            max_step_mass: 64.0,
        }
    }
}

/// Compute π(t) for a single time point by uniformization.
pub fn transient(chain: &Ctmc, pi0: &[f64], t: f64, opts: TransientOptions) -> Result<Vec<f64>> {
    let mut out = transient_many(chain, pi0, &[t], opts)?;
    Ok(out.pop().expect("one time point requested"))
}

/// Compute π(t) for several time points in one pass.
///
/// `times` must be sorted ascending and nonnegative; the solver
/// propagates incrementally from each time to the next, so a full
/// reliability curve costs barely more than its last point.
pub fn transient_many(
    chain: &Ctmc,
    pi0: &[f64],
    times: &[f64],
    opts: TransientOptions,
) -> Result<Vec<Vec<f64>>> {
    chain.check_distribution(pi0)?;
    for w in times.windows(2) {
        if w[0] > w[1] {
            return Err(MarkovError::InvalidTime { t: w[1] });
        }
    }
    if let Some(&t) = times.first() {
        if t.is_nan() || t < 0.0 || !times.iter().all(|t| t.is_finite()) {
            return Err(MarkovError::InvalidTime { t });
        }
    }

    let max_exit = chain.max_exit_rate();
    // A chain with no transitions never moves.
    if max_exit == 0.0 {
        return Ok(times.iter().map(|_| pi0.to_vec()).collect());
    }
    // Inflate Λ a little: guarantees self-loops (aperiodicity) and gives
    // slightly better steady-state detection behaviour.
    let lambda = max_exit * 1.02;
    let p = chain.uniformized(lambda)?;

    let mut results = Vec::with_capacity(times.len());
    let mut pi = pi0.to_vec();
    let mut prev_t = 0.0_f64;
    let mut ws = UniformWorkspace::new(pi.len());

    for &t in times {
        let mut remaining = t - prev_t;
        while remaining > 0.0 {
            let step = remaining.min(opts.max_step_mass / lambda);
            uniformization_step(&p, &mut pi, &mut ws, lambda * step, opts)?;
            remaining -= step;
        }
        prev_t = t;
        results.push(pi.clone());
    }
    Ok(results)
}

/// Scratch vectors for [`uniformization_step`], hoisted out of the
/// per-step loop so a whole time grid (a Fig 6/7 sweep is thousands of
/// internal steps) reuses one workspace allocation.
#[derive(Debug)]
struct UniformWorkspace {
    /// `vecmat` target, swapped with `v` each DTMC iteration.
    scratch: Vec<f64>,
    /// Accumulator for the Poisson-weighted sum; swapped into `pi`.
    out: Vec<f64>,
    /// Current DTMC iterate `π0 Pᵏ`.
    v: Vec<f64>,
}

impl UniformWorkspace {
    fn new(n: usize) -> Self {
        UniformWorkspace {
            scratch: vec![0.0; n],
            out: vec![0.0; n],
            v: vec![0.0; n],
        }
    }
}

/// Advance `pi` by one uniformization step with Poisson mean `m`.
fn uniformization_step(
    p: &dra_linalg::CsrMatrix,
    pi: &mut Vec<f64>,
    ws: &mut UniformWorkspace,
    m: f64,
    opts: TransientOptions,
) -> Result<()> {
    debug_assert!(m.is_finite() && m >= 0.0);
    if m == 0.0 {
        return Ok(());
    }
    let UniformWorkspace { scratch, out, v } = ws;
    out.fill(0.0);

    // Poisson weights computed iteratively: w_0 = e^-m, w_{k+1} = w_k * m/(k+1).
    let mut weight = (-m).exp();
    let mut cum = weight;
    vector::axpy(weight, pi, out);

    // Generous cap: mean + 10 sqrt(mean) + 64 covers epsilon = 1e-12
    // for any m <= max_step_mass.
    let k_cap = (m + 10.0 * m.sqrt() + 64.0).ceil() as usize;
    let mut k = 0usize;
    v.copy_from_slice(pi);

    while cum < 1.0 - opts.epsilon && k < k_cap {
        // v <- v P
        p.vecmat_into(v, scratch)?;
        std::mem::swap(v, scratch);
        k += 1;
        weight *= m / k as f64;
        cum += weight;
        vector::axpy(weight, v, out);

        // Steady-state shortcut: once vP == v, all further terms add
        // the same vector; fold the entire Poisson tail in at once.
        if vector::dist_inf(v, scratch) < opts.ss_tol {
            let tail = (1.0 - cum).max(0.0);
            vector::axpy(tail, v, out);
            cum = 1.0;
            break;
        }
    }

    // Compensate any truncated tail mass so the result stays a
    // distribution (the truncation error is below epsilon by design).
    if cum > 0.0 && cum < 1.0 {
        vector::scale(1.0 / cum, out);
    }
    std::mem::swap(pi, out);
    Ok(())
}

/// Options for the RK45 integrator.
#[derive(Debug, Clone, Copy)]
pub struct OdeOptions {
    /// Local error tolerance (per component, mixed abs/rel).
    pub tol: f64,
    /// Initial step size; adapted from there.
    pub h0: f64,
    /// Smallest step before the integrator gives up.
    pub h_min: f64,
    /// Maximum number of accepted+rejected steps.
    pub max_steps: usize,
}

impl Default for OdeOptions {
    fn default() -> Self {
        OdeOptions {
            tol: 1e-10,
            h0: 1.0,
            h_min: 1e-12,
            max_steps: 50_000_000,
        }
    }
}

/// Compute π(t) by integrating the Kolmogorov forward equations
/// `dπ/dt = π Q` with an adaptive Cash–Karp RK45 scheme.
///
/// This exists to cross-validate uniformization: the two methods share
/// no code beyond the generator, so agreement to many digits is strong
/// evidence both are right. RK45 on stiff dependability models is slow
/// (steps shrink to ~1/Λ); prefer [`transient`] in production use.
pub fn transient_rk45(chain: &Ctmc, pi0: &[f64], t: f64, opts: OdeOptions) -> Result<Vec<f64>> {
    chain.check_distribution(pi0)?;
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidTime { t });
    }
    let q = chain.generator();
    let n = pi0.len();
    let mut y = pi0.to_vec();
    if t == 0.0 {
        return Ok(y);
    }

    // Cash–Karp coefficients.
    const B2: [f64; 1] = [1.0 / 5.0];
    const B3: [f64; 2] = [3.0 / 40.0, 9.0 / 40.0];
    const B4: [f64; 3] = [3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0];
    const B5: [f64; 4] = [-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0];
    const B6: [f64; 5] = [
        1631.0 / 55296.0,
        175.0 / 512.0,
        575.0 / 13824.0,
        44275.0 / 110592.0,
        253.0 / 4096.0,
    ];
    const C5: [f64; 6] = [
        37.0 / 378.0,
        0.0,
        250.0 / 621.0,
        125.0 / 594.0,
        0.0,
        512.0 / 1771.0,
    ];
    const C4: [f64; 6] = [
        2825.0 / 27648.0,
        0.0,
        18575.0 / 48384.0,
        13525.0 / 55296.0,
        277.0 / 14336.0,
        1.0 / 4.0,
    ];

    let deriv = |y: &[f64], out: &mut Vec<f64>| -> Result<()> {
        q.vecmat_into(y, out)?;
        Ok(())
    };

    let mut h = opts.h0.min(t);
    let mut time = 0.0_f64;
    let mut k: Vec<Vec<f64>> = (0..6).map(|_| vec![0.0; n]).collect();
    let mut ytmp = vec![0.0; n];
    let mut steps = 0usize;

    while time < t {
        steps += 1;
        if steps > opts.max_steps {
            return Err(MarkovError::Linalg(
                dra_linalg::LinalgError::NoConvergence {
                    iterations: opts.max_steps,
                    residual: t - time,
                },
            ));
        }
        if time + h > t {
            h = t - time;
        }

        deriv(&y, &mut k[0])?;
        stage(&y, &mut ytmp, &k, &B2, h);
        deriv(&ytmp, &mut k[1])?;
        stage(&y, &mut ytmp, &k, &B3, h);
        deriv(&ytmp, &mut k[2])?;
        stage(&y, &mut ytmp, &k, &B4, h);
        deriv(&ytmp, &mut k[3])?;
        stage(&y, &mut ytmp, &k, &B5, h);
        deriv(&ytmp, &mut k[4])?;
        stage(&y, &mut ytmp, &k, &B6, h);
        deriv(&ytmp, &mut k[5])?;

        // 5th order solution and embedded 4th order error estimate.
        let mut err = 0.0_f64;
        for i in 0..n {
            let mut y5 = y[i];
            let mut y4 = y[i];
            for s in 0..6 {
                y5 += h * C5[s] * k[s][i];
                y4 += h * C4[s] * k[s][i];
            }
            ytmp[i] = y5;
            let scale = 1e-12 + y5.abs();
            err = err.max(((y5 - y4) / scale).abs());
        }

        if err <= opts.tol {
            time += h;
            std::mem::swap(&mut y, &mut ytmp);
            // Probabilities drift by rounding; renormalize gently.
            vector::normalize_l1(&mut y);
        }

        // Standard step-size controller with safety factor.
        let factor = if err > 0.0 {
            0.9 * (opts.tol / err).powf(0.2)
        } else {
            4.0
        };
        h *= factor.clamp(0.2, 4.0);
        if h < opts.h_min {
            return Err(MarkovError::Linalg(
                dra_linalg::LinalgError::NoConvergence {
                    iterations: steps,
                    residual: h,
                },
            ));
        }
    }
    Ok(y)
}

/// Compute π(t) via the dense matrix exponential: `π(t) = π(0)·e^{Qt}`.
///
/// The third independent transient method (after uniformization and
/// RK45) — it shares no numerical machinery with either. Densifies the
/// generator, so it is only suitable for small chains (the paper's
/// models qualify comfortably). The tests' reference for the other two.
#[cfg(test)]
pub(crate) fn transient_expm(chain: &Ctmc, pi0: &[f64], t: f64) -> Result<Vec<f64>> {
    chain.check_distribution(pi0)?;
    if !t.is_finite() || t < 0.0 {
        return Err(MarkovError::InvalidTime { t });
    }
    let n = chain.n_states();
    let mut qt = dra_linalg::DenseMatrix::zeros(n, n);
    for r in 0..n {
        for (c, q) in chain.generator().row_entries(r) {
            qt.set(r, c, q * t);
        }
    }
    let p = dra_linalg::expm(&qt)?;
    let mut pi = p.vecmat(pi0)?;
    // e^{Qt} is stochastic up to rounding; tidy the result.
    for v in pi.iter_mut() {
        if *v < 0.0 && *v > -1e-12 {
            *v = 0.0;
        }
    }
    vector::normalize_l1(&mut pi);
    Ok(pi)
}

/// Form `ytmp = y + h * Σ coeffs[s] * k[s]`.
fn stage(y: &[f64], ytmp: &mut [f64], k: &[Vec<f64>], coeffs: &[f64], h: f64) {
    ytmp.copy_from_slice(y);
    for (s, &c) in coeffs.iter().enumerate() {
        if c != 0.0 {
            vector::axpy(h * c, &k[s], ytmp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    /// Two-state availability model with closed-form transient solution:
    /// `A(t) = μ/(λ+μ) + λ/(λ+μ) e^{-(λ+μ)t}` starting from "up".
    fn repairable(lambda: f64, mu: f64) -> Ctmc {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.rate(up, down, lambda).unwrap();
        b.rate(down, up, mu).unwrap();
        b.build().unwrap()
    }

    fn closed_form_avail(lambda: f64, mu: f64, t: f64) -> f64 {
        mu / (lambda + mu) + lambda / (lambda + mu) * (-(lambda + mu) * t).exp()
    }

    #[test]
    fn uniformization_matches_closed_form() {
        let (l, m) = (0.3, 1.5);
        let c = repairable(l, m);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        for &t in &[0.0, 0.1, 1.0, 5.0, 50.0] {
            let pi = transient(&c, &pi0, t, TransientOptions::default()).unwrap();
            let expect = closed_form_avail(l, m, t);
            assert!(
                (pi[0] - expect).abs() < 1e-10,
                "t={t}: got {} expected {expect}",
                pi[0]
            );
        }
    }

    #[test]
    fn uniformization_handles_stiff_long_horizon() {
        // Paper-like rates: failures ~1e-5/h, repair 1/3 per hour, 60 kh.
        let (l, m) = (2e-5, 1.0 / 3.0);
        let c = repairable(l, m);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        let pi = transient(&c, &pi0, 60_000.0, TransientOptions::default()).unwrap();
        let expect = closed_form_avail(l, m, 60_000.0);
        assert!((pi[0] - expect).abs() < 1e-9, "got {} want {expect}", pi[0]);
    }

    #[test]
    fn pure_death_reliability_is_exponential() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let dead = b.state("dead").unwrap();
        b.rate(up, dead, 2e-5).unwrap();
        let c = b.build().unwrap();
        let pi0 = c.point_mass(up).unwrap();
        let pi = transient(&c, &pi0, 40_000.0, TransientOptions::default()).unwrap();
        let expect = (-0.8_f64).exp();
        assert!((pi[0] - expect).abs() < 1e-10);
        assert!((pi[1] - (1.0 - expect)).abs() < 1e-10);
    }

    #[test]
    fn transient_many_is_consistent_with_single_calls() {
        let c = repairable(0.2, 1.0);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        let times = [0.5, 1.0, 2.0, 8.0];
        let many = transient_many(&c, &pi0, &times, TransientOptions::default()).unwrap();
        for (i, &t) in times.iter().enumerate() {
            let single = transient(&c, &pi0, t, TransientOptions::default()).unwrap();
            assert!((many[i][0] - single[0]).abs() < 1e-11);
        }
    }

    #[test]
    fn transient_rejects_bad_inputs() {
        let c = repairable(0.2, 1.0);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        assert!(transient(&c, &pi0, -1.0, TransientOptions::default()).is_err());
        assert!(transient(&c, &pi0, f64::NAN, TransientOptions::default()).is_err());
        assert!(transient(&c, &[1.0], 1.0, TransientOptions::default()).is_err());
        assert!(
            transient_many(&c, &pi0, &[2.0, 1.0], TransientOptions::default()).is_err(),
            "unsorted times must be rejected"
        );
    }

    #[test]
    fn no_transition_chain_is_constant() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a").unwrap();
        b.state("b").unwrap();
        let c = b.build().unwrap();
        let pi0 = c.point_mass(a).unwrap();
        let pi = transient(&c, &pi0, 100.0, TransientOptions::default()).unwrap();
        assert_eq!(pi, pi0);
    }

    #[test]
    fn result_is_a_distribution() {
        let c = repairable(0.7, 0.9);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        for &t in &[0.3, 3.0, 30.0, 300.0] {
            let pi = transient(&c, &pi0, t, TransientOptions::default()).unwrap();
            let sum: f64 = pi.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(pi.iter().all(|&p| (0.0..=1.0 + 1e-12).contains(&p)));
        }
    }

    #[test]
    fn rk45_matches_closed_form() {
        let (l, m) = (0.3, 1.5);
        let c = repairable(l, m);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        for &t in &[0.1, 1.0, 10.0] {
            let pi = transient_rk45(&c, &pi0, t, OdeOptions::default()).unwrap();
            let expect = closed_form_avail(l, m, t);
            assert!(
                (pi[0] - expect).abs() < 1e-8,
                "t={t}: got {} expected {expect}",
                pi[0]
            );
        }
    }

    #[test]
    fn rk45_and_uniformization_agree() {
        // Three-state chain with no closed form handy.
        let mut b = CtmcBuilder::new();
        let s0 = b.state("s0").unwrap();
        let s1 = b.state("s1").unwrap();
        let s2 = b.state("s2").unwrap();
        b.rate(s0, s1, 0.8).unwrap();
        b.rate(s1, s2, 0.4).unwrap();
        b.rate(s2, s0, 1.1).unwrap();
        b.rate(s1, s0, 0.2).unwrap();
        let c = b.build().unwrap();
        let pi0 = c.point_mass(s0).unwrap();
        let a = transient(&c, &pi0, 3.7, TransientOptions::default()).unwrap();
        let b2 = transient_rk45(&c, &pi0, 3.7, OdeOptions::default()).unwrap();
        for i in 0..3 {
            assert!(
                (a[i] - b2[i]).abs() < 1e-7,
                "state {i}: {} vs {}",
                a[i],
                b2[i]
            );
        }
    }

    #[test]
    fn rk45_t_zero_is_identity() {
        let c = repairable(0.5, 0.5);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        assert_eq!(
            transient_rk45(&c, &pi0, 0.0, OdeOptions::default()).unwrap(),
            pi0
        );
    }

    #[test]
    fn expm_matches_closed_form() {
        let (l, m) = (0.3, 1.5);
        let c = repairable(l, m);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        for &t in &[0.0, 0.5, 3.0, 20.0] {
            let pi = transient_expm(&c, &pi0, t).unwrap();
            let expect = closed_form_avail(l, m, t);
            assert!(
                (pi[0] - expect).abs() < 1e-12,
                "t={t}: {} vs {expect}",
                pi[0]
            );
        }
    }

    #[test]
    fn three_methods_agree() {
        // Uniformization, RK45, and the matrix exponential share no
        // numerical machinery; agreement pins the transient solution.
        let mut b = CtmcBuilder::new();
        let s0 = b.state("s0").unwrap();
        let s1 = b.state("s1").unwrap();
        let s2 = b.state("s2").unwrap();
        let s3 = b.state("s3").unwrap();
        b.rate(s0, s1, 0.9).unwrap();
        b.rate(s1, s2, 0.5).unwrap();
        b.rate(s2, s3, 0.3).unwrap();
        b.rate(s3, s0, 1.4).unwrap();
        b.rate(s2, s0, 0.2).unwrap();
        let c = b.build().unwrap();
        let pi0 = c.point_mass(s0).unwrap();
        let t = 2.6;
        let uni = transient(&c, &pi0, t, TransientOptions::default()).unwrap();
        let ode = transient_rk45(&c, &pi0, t, OdeOptions::default()).unwrap();
        let exp = transient_expm(&c, &pi0, t).unwrap();
        for i in 0..4 {
            assert!((uni[i] - exp[i]).abs() < 1e-10, "uni vs expm at {i}");
            assert!((ode[i] - exp[i]).abs() < 1e-7, "rk45 vs expm at {i}");
        }
    }

    #[test]
    fn expm_rejects_bad_time() {
        let c = repairable(0.5, 0.5);
        let pi0 = c.point_mass(c.state_by_index(0).unwrap()).unwrap();
        assert!(transient_expm(&c, &pi0, -1.0).is_err());
        assert!(transient_expm(&c, &pi0, f64::NAN).is_err());
    }
}
