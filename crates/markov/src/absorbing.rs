//! Absorbing-state analysis: mean time to absorption.
//!
//! Reliability models (the paper's Figure 5) have absorbing failure
//! states; the mean time to absorption from the initial state is the
//! MTTF, a standard single-number dependability summary the repro
//! reports alongside the paper's R(t) curves.

use crate::ctmc::{Ctmc, MarkovError, StateId};
use crate::Result;
use dra_linalg::DenseMatrix;

/// Results of analysing a chain's absorbing structure.
#[derive(Debug, Clone)]
pub struct AbsorbingAnalysis {
    /// Transient (non-absorbing) states in index order.
    pub transient: Vec<StateId>,
    /// Absorbing states in index order.
    pub absorbing: Vec<StateId>,
    /// `mtta[k]` = expected time to absorption starting from
    /// `transient[k]`.
    pub mtta: Vec<f64>,
}

impl AbsorbingAnalysis {
    /// Mean time to absorption from a given state.
    ///
    /// Returns `None` for absorbing states (their MTTA is zero but they
    /// are not in the transient list).
    pub fn mtta_from(&self, s: StateId) -> Option<f64> {
        self.transient
            .iter()
            .position(|&t| t == s)
            .map(|k| self.mtta[k])
    }
}

/// Analyse the absorbing structure of `chain`.
///
/// Solves `Q_TT τ = −1` for the mean times, where `Q_TT` is the
/// generator restricted to transient states.
///
/// Errors with [`MarkovError::BadStructure`] when the chain has no
/// absorbing state, or when some transient state cannot reach any
/// absorbing state (which makes `Q_TT` singular).
pub fn analyze(chain: &Ctmc) -> Result<AbsorbingAnalysis> {
    let absorbing = chain.absorbing_states();
    if absorbing.is_empty() {
        return Err(MarkovError::BadStructure {
            reason: "chain has no absorbing states",
        });
    }
    let is_absorbing: Vec<bool> = {
        let mut v = vec![false; chain.n_states()];
        for &a in &absorbing {
            v[a.index()] = true;
        }
        v
    };
    let transient: Vec<StateId> = chain
        .states()
        .filter(|s| !is_absorbing[s.index()])
        .collect();
    if transient.is_empty() {
        return Ok(AbsorbingAnalysis {
            transient,
            absorbing,
            mtta: Vec::new(),
        });
    }

    // Dense index of each transient state.
    let mut t_index = vec![usize::MAX; chain.n_states()];
    for (k, &s) in transient.iter().enumerate() {
        t_index[s.index()] = k;
    }
    let nt = transient.len();

    let q = chain.generator();
    let mut qtt = DenseMatrix::zeros(nt, nt);
    for (k, &s) in transient.iter().enumerate() {
        for (c, v) in q.row_entries(s.index()) {
            if !is_absorbing[c] {
                qtt.add_to(k, t_index[c], v);
            }
        }
    }

    let lu = qtt.lu().map_err(|e| match e {
        dra_linalg::LinalgError::Singular { .. } => MarkovError::BadStructure {
            reason: "some transient state cannot reach an absorbing state",
        },
        other => MarkovError::Linalg(other),
    })?;

    // Q_TT tau = -1.
    let minus_ones = vec![-1.0; nt];
    let mtta = lu.solve(&minus_ones)?;
    if mtta.iter().any(|&t| t < -1e-9) {
        return Err(MarkovError::BadStructure {
            reason: "negative mean time to absorption; model is inconsistent",
        });
    }

    Ok(AbsorbingAnalysis {
        transient,
        absorbing,
        mtta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctmc::CtmcBuilder;

    #[test]
    fn single_exponential_mttf() {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let dead = b.state("dead").unwrap();
        b.rate(up, dead, 2e-5).unwrap();
        let c = b.build().unwrap();
        let a = analyze(&c).unwrap();
        assert_eq!(a.transient, vec![up]);
        assert_eq!(a.absorbing, vec![dead]);
        assert!((a.mtta_from(up).unwrap() - 50_000.0).abs() < 1e-6);
    }

    #[test]
    fn series_of_stages_adds_means() {
        // up -> degraded -> dead: MTTF = 1/r1 + 1/r2.
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let deg = b.state("degraded").unwrap();
        let dead = b.state("dead").unwrap();
        b.rate(up, deg, 0.5).unwrap();
        b.rate(deg, dead, 0.25).unwrap();
        let c = b.build().unwrap();
        let a = analyze(&c).unwrap();
        assert!((a.mtta_from(up).unwrap() - (2.0 + 4.0)).abs() < 1e-12);
        assert!((a.mtta_from(deg).unwrap() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn competing_absorptions_mtta_is_the_inverse_total_rate() {
        // From s, race to A (rate 3) vs B (rate 1).
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        let a_st = b.state("A").unwrap();
        let b_st = b.state("B").unwrap();
        b.rate(s, a_st, 3.0).unwrap();
        b.rate(s, b_st, 1.0).unwrap();
        let c = b.build().unwrap();
        let an = analyze(&c).unwrap();
        assert_eq!(an.absorbing, vec![a_st, b_st]);
        assert!((an.mtta_from(s).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn repair_extends_mttf() {
        // up <-> degraded -> dead. With repair from degraded, MTTF grows.
        let (l1, mu, l2) = (0.1, 1.0, 0.05);
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let deg = b.state("deg").unwrap();
        let dead = b.state("dead").unwrap();
        b.rate(up, deg, l1).unwrap();
        b.rate(deg, up, mu).unwrap();
        b.rate(deg, dead, l2).unwrap();
        let c = b.build().unwrap();
        let a = analyze(&c).unwrap();
        // Closed form via first-step analysis:
        // t_deg = 1/(mu+l2) + mu/(mu+l2)·t_up ; t_up = 1/l1 + t_deg
        // ⇒ t_up = (1/l1 + 1/(mu+l2)) · (mu+l2)/l2.
        let t_up = (1.0 / l1 + 1.0 / (mu + l2)) * (mu + l2) / l2;
        assert!(
            (a.mtta_from(up).unwrap() - t_up).abs() / t_up < 1e-12,
            "{} vs {t_up}",
            a.mtta_from(up).unwrap()
        );
        assert!(a.mtta_from(up).unwrap() > 1.0 / l1 + 1.0 / l2);
    }

    #[test]
    fn no_absorbing_state_is_an_error() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        let t = b.state("t").unwrap();
        b.rate(s, t, 1.0).unwrap();
        b.rate(t, s, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(analyze(&c), Err(MarkovError::BadStructure { .. })));
    }

    #[test]
    fn unreachable_absorption_is_an_error() {
        // s <-> t closed class, plus isolated absorbing state a reachable
        // from nothing: Q_TT is singular.
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        let t = b.state("t").unwrap();
        let _a = b.state("a").unwrap();
        b.rate(s, t, 1.0).unwrap();
        b.rate(t, s, 1.0).unwrap();
        let c = b.build().unwrap();
        assert!(matches!(analyze(&c), Err(MarkovError::BadStructure { .. })));
    }

    #[test]
    fn all_absorbing_chain_yields_empty_analysis() {
        let mut b = CtmcBuilder::new();
        b.state("a").unwrap();
        b.state("b").unwrap();
        let c = b.build().unwrap();
        let an = analyze(&c).unwrap();
        assert!(an.transient.is_empty());
        assert_eq!(an.absorbing.len(), 2);
    }

    #[test]
    fn mtta_matches_transient_integration() {
        // Cross-check: MTTF equals the integral of R(t) dt; approximate
        // by a fine trapezoid over the transient solver's output.
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let deg = b.state("deg").unwrap();
        let dead = b.state("dead").unwrap();
        b.rate(up, deg, 0.4).unwrap();
        b.rate(deg, dead, 0.8).unwrap();
        b.rate(deg, up, 0.3).unwrap();
        let c = b.build().unwrap();
        let a = analyze(&c).unwrap();
        let mttf = a.mtta_from(up).unwrap();

        let pi0 = c.point_mass(up).unwrap();
        let times: Vec<f64> = (0..=4000).map(|i| i as f64 * 0.01).collect();
        let sols =
            crate::transient::transient_many(&c, &pi0, &times, crate::TransientOptions::default())
                .unwrap();
        let mut integral = 0.0;
        for w in sols.windows(2) {
            let r0 = 1.0 - w[0][dead.index()];
            let r1 = 1.0 - w[1][dead.index()];
            integral += 0.5 * (r0 + r1) * 0.01;
        }
        assert!(
            (integral - mttf).abs() < 1e-2,
            "integral {integral} vs mttf {mttf}"
        );
    }
}
