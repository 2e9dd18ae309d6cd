//! CTMC construction: labeled states, rate accumulation, validation.

use dra_linalg::{CooBuilder, CsrMatrix, LinalgError};
use std::collections::HashMap;
use std::fmt;

/// Opaque handle to a state inside one chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub(crate) usize);

impl StateId {
    /// The dense index of this state in probability vectors.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors from chain construction and solution.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// A transition rate was negative, NaN, or infinite.
    InvalidRate {
        /// Offending rate value.
        rate: f64,
        /// Source state label.
        from: String,
        /// Destination state label.
        to: String,
    },
    /// A self-loop was requested (`from == to`); CTMC self-loops are
    /// meaningless and always a modelling bug.
    SelfLoop {
        /// State label.
        state: String,
    },
    /// Two states were given the same label.
    DuplicateLabel {
        /// The repeated label.
        label: String,
    },
    /// A `StateId` from a different chain (or out of range) was used.
    UnknownState {
        /// The offending dense index.
        index: usize,
    },
    /// The chain has no states.
    Empty,
    /// An initial distribution was invalid (wrong length, negative
    /// entries, or not summing to one).
    InvalidDistribution {
        /// Description of the violation.
        reason: &'static str,
    },
    /// A time argument was negative or non-finite.
    InvalidTime {
        /// The offending value.
        t: f64,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(LinalgError),
    /// The requested analysis needs at least one absorbing/transient
    /// state split that this chain does not have.
    BadStructure {
        /// Description of the structural problem.
        reason: &'static str,
    },
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::InvalidRate { rate, from, to } => {
                write!(f, "invalid rate {rate} on transition {from} -> {to}")
            }
            MarkovError::SelfLoop { state } => write!(f, "self-loop on state {state}"),
            MarkovError::DuplicateLabel { label } => {
                write!(f, "duplicate state label {label:?}")
            }
            MarkovError::UnknownState { index } => {
                write!(f, "unknown state index {index}")
            }
            MarkovError::Empty => write!(f, "chain has no states"),
            MarkovError::InvalidDistribution { reason } => {
                write!(f, "invalid initial distribution: {reason}")
            }
            MarkovError::InvalidTime { t } => write!(f, "invalid time {t}"),
            MarkovError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            MarkovError::BadStructure { reason } => {
                write!(f, "chain structure unsuitable: {reason}")
            }
        }
    }
}

impl std::error::Error for MarkovError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MarkovError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for MarkovError {
    fn from(e: LinalgError) -> Self {
        MarkovError::Linalg(e)
    }
}

/// Incremental builder for a [`Ctmc`].
///
/// States are added with human-readable labels (the paper's `(i,j)`,
/// `i_PI`, `T'`, `F`, …); transitions accumulate, so calling
/// [`CtmcBuilder::rate`] twice for the same pair sums the rates — the
/// natural semantics when several physical failure modes map to the
/// same state change.
///
/// ```
/// use dra_markov::{CtmcBuilder, TransientOptions};
///
/// // A repairable component: fails at 1e-3/h, repaired at 0.5/h.
/// let mut b = CtmcBuilder::new();
/// let up = b.state("up").unwrap();
/// let down = b.state("down").unwrap();
/// b.rate(up, down, 1e-3).unwrap();
/// b.rate(down, up, 0.5).unwrap();
/// let chain = b.build().unwrap();
///
/// // Point availability after 100 hours:
/// let pi0 = chain.point_mass(up).unwrap();
/// let pi = dra_markov::transient::transient(&chain, &pi0, 100.0,
///                                           TransientOptions::default()).unwrap();
/// let availability = pi[up.index()];
/// assert!(availability > 0.99 && availability < 1.0);
/// ```
#[derive(Debug, Default)]
pub struct CtmcBuilder {
    labels: Vec<String>,
    by_label: HashMap<String, usize>,
    transitions: Vec<(usize, usize, f64)>,
}

impl CtmcBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a state with a unique label; returns its handle.
    pub fn state(&mut self, label: impl Into<String>) -> Result<StateId, MarkovError> {
        let label = label.into();
        if self.by_label.contains_key(&label) {
            return Err(MarkovError::DuplicateLabel { label });
        }
        let id = self.labels.len();
        self.by_label.insert(label.clone(), id);
        self.labels.push(label);
        Ok(StateId(id))
    }

    /// Add (accumulate) a transition `from -> to` at `rate` (per unit time).
    ///
    /// A zero rate is accepted and ignored, which lets model builders
    /// write uniform loops without special-casing boundary states.
    pub fn rate(&mut self, from: StateId, to: StateId, rate: f64) -> Result<(), MarkovError> {
        let n = self.labels.len();
        if from.0 >= n {
            return Err(MarkovError::UnknownState { index: from.0 });
        }
        if to.0 >= n {
            return Err(MarkovError::UnknownState { index: to.0 });
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(MarkovError::InvalidRate {
                rate,
                from: self.labels[from.0].clone(),
                to: self.labels[to.0].clone(),
            });
        }
        if from == to {
            return Err(MarkovError::SelfLoop {
                state: self.labels[from.0].clone(),
            });
        }
        if rate > 0.0 {
            self.transitions.push((from.0, to.0, rate));
        }
        Ok(())
    }

    /// Finalize into an immutable chain.
    pub fn build(self) -> Result<Ctmc, MarkovError> {
        let n = self.labels.len();
        if n == 0 {
            return Err(MarkovError::Empty);
        }
        let mut coo = CooBuilder::new(n, n);
        let mut exit = vec![0.0; n];
        for (from, to, rate) in &self.transitions {
            coo.push(*from, *to, *rate)?;
            exit[*from] += *rate;
        }
        for (i, &e) in exit.iter().enumerate() {
            if e > 0.0 {
                coo.push(i, i, -e)?;
            }
        }
        let generator = coo.build();
        Ok(Ctmc {
            labels: self.labels,
            generator,
            exit_rates: exit,
        })
    }
}

/// An immutable continuous-time Markov chain.
#[derive(Debug, Clone)]
pub struct Ctmc {
    labels: Vec<String>,
    /// Infinitesimal generator Q (row sums zero).
    generator: CsrMatrix,
    /// Exit rate of each state (= −Q\[i\]\[i\]).
    exit_rates: Vec<f64>,
}

impl Ctmc {
    /// Number of states.
    #[inline]
    pub fn n_states(&self) -> usize {
        self.labels.len()
    }

    /// The generator matrix Q.
    #[inline]
    pub fn generator(&self) -> &CsrMatrix {
        &self.generator
    }

    /// Exit rate (total outgoing rate) of a state.
    #[inline]
    pub fn exit_rate(&self, s: StateId) -> f64 {
        self.exit_rates[s.0]
    }

    /// Largest exit rate over all states (the uniformization lower bound).
    pub(crate) fn max_exit_rate(&self) -> f64 {
        self.exit_rates.iter().fold(0.0_f64, |m, &v| m.max(v))
    }

    /// Label of a state.
    pub fn label(&self, s: StateId) -> &str {
        &self.labels[s.0]
    }

    /// All states in index order.
    pub fn states(&self) -> impl Iterator<Item = StateId> + '_ {
        (0..self.labels.len()).map(StateId)
    }

    /// The state at dense index `i`, if in range (useful when walking
    /// raw generator rows).
    pub fn state_by_index(&self, i: usize) -> Option<StateId> {
        (i < self.labels.len()).then_some(StateId(i))
    }

    /// States with zero exit rate (absorbing states).
    pub fn absorbing_states(&self) -> Vec<StateId> {
        self.exit_rates
            .iter()
            .enumerate()
            .filter(|(_, &e)| e == 0.0)
            .map(|(i, _)| StateId(i))
            .collect()
    }

    /// A point-mass initial distribution on `s`.
    pub fn point_mass(&self, s: StateId) -> Result<Vec<f64>, MarkovError> {
        if s.0 >= self.n_states() {
            return Err(MarkovError::UnknownState { index: s.0 });
        }
        let mut pi = vec![0.0; self.n_states()];
        pi[s.0] = 1.0;
        Ok(pi)
    }

    /// Validate that `pi0` is a distribution over this chain's states.
    pub(crate) fn check_distribution(&self, pi0: &[f64]) -> Result<(), MarkovError> {
        if pi0.len() != self.n_states() {
            return Err(MarkovError::InvalidDistribution {
                reason: "length mismatch",
            });
        }
        if pi0.iter().any(|&p| !(0.0..=1.0 + 1e-12).contains(&p)) {
            return Err(MarkovError::InvalidDistribution {
                reason: "entries must be in [0, 1]",
            });
        }
        let sum: f64 = pi0.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(MarkovError::InvalidDistribution {
                reason: "entries must sum to 1",
            });
        }
        Ok(())
    }

    /// The uniformized DTMC `P = I + Q/Λ` for a rate `Λ ≥ max exit rate`.
    ///
    /// The returned matrix is row-stochastic. Passing `lambda` strictly
    /// above the max exit rate guarantees aperiodicity (every state gets
    /// a self-loop), which [`crate::steady`]'s power iteration relies on.
    pub(crate) fn uniformized(&self, lambda: f64) -> Result<CsrMatrix, MarkovError> {
        let max_exit = self.max_exit_rate();
        if !lambda.is_finite() || lambda < max_exit || lambda <= 0.0 {
            return Err(MarkovError::InvalidRate {
                rate: lambda,
                from: "uniformization".into(),
                to: format!("needs lambda >= {max_exit}"),
            });
        }
        let n = self.n_states();
        let mut coo = CooBuilder::new(n, n);
        for r in 0..n {
            let mut diag = 1.0;
            for (c, q) in self.generator.row_entries(r) {
                if c == r {
                    diag += q / lambda;
                } else {
                    coo.push(r, c, q / lambda)?;
                }
            }
            coo.push(r, r, diag)?;
        }
        Ok(coo.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state() -> (Ctmc, StateId, StateId) {
        let mut b = CtmcBuilder::new();
        let up = b.state("up").unwrap();
        let down = b.state("down").unwrap();
        b.rate(up, down, 0.5).unwrap();
        b.rate(down, up, 2.0).unwrap();
        (b.build().unwrap(), up, down)
    }

    #[test]
    fn builder_basics() {
        let (c, up, down) = two_state();
        assert_eq!(c.n_states(), 2);
        assert_eq!(c.label(up), "up");
        assert_eq!(c.label(down), "down");
        assert_eq!(c.exit_rate(up), 0.5);
        assert_eq!(c.exit_rate(down), 2.0);
        assert_eq!(c.max_exit_rate(), 2.0);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let (c, _, _) = two_state();
        for s in c.generator().row_sums() {
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn duplicate_labels_rejected() {
        let mut b = CtmcBuilder::new();
        b.state("s").unwrap();
        assert!(matches!(
            b.state("s"),
            Err(MarkovError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn self_loops_rejected() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        assert!(matches!(
            b.rate(s, s, 1.0),
            Err(MarkovError::SelfLoop { .. })
        ));
    }

    #[test]
    fn bad_rates_rejected() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        let t = b.state("t").unwrap();
        assert!(b.rate(s, t, -1.0).is_err());
        assert!(b.rate(s, t, f64::NAN).is_err());
        assert!(b.rate(s, t, f64::INFINITY).is_err());
        assert!(b.rate(s, t, 0.0).is_ok()); // ignored, not an error
    }

    #[test]
    fn rates_accumulate() {
        let mut b = CtmcBuilder::new();
        let s = b.state("s").unwrap();
        let t = b.state("t").unwrap();
        b.rate(s, t, 1.0).unwrap();
        b.rate(s, t, 2.5).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.exit_rate(s), 3.5);
        assert_eq!(c.generator().get(0, 1), 3.5);
        assert_eq!(c.generator().get(0, 0), -3.5);
    }

    #[test]
    fn empty_chain_rejected() {
        assert!(matches!(
            CtmcBuilder::new().build(),
            Err(MarkovError::Empty)
        ));
    }

    #[test]
    fn absorbing_states_detected() {
        let mut b = CtmcBuilder::new();
        let a = b.state("a").unwrap();
        let f = b.state("f").unwrap();
        b.rate(a, f, 1.0).unwrap();
        let c = b.build().unwrap();
        assert_eq!(c.absorbing_states(), vec![f]);
    }

    #[test]
    fn point_mass_and_check_distribution() {
        let (c, up, _) = two_state();
        let pi = c.point_mass(up).unwrap();
        assert_eq!(pi, vec![1.0, 0.0]);
        assert!(c.check_distribution(&pi).is_ok());
        assert!(c.check_distribution(&[0.5]).is_err());
        assert!(c.check_distribution(&[0.7, 0.7]).is_err());
        assert!(c.check_distribution(&[-0.1, 1.1]).is_err());
        assert!(c.point_mass(StateId(9)).is_err());
    }

    #[test]
    fn uniformized_is_stochastic() {
        let (c, _, _) = two_state();
        let p = c.uniformized(4.0).unwrap();
        for s in p.row_sums() {
            assert!((s - 1.0).abs() < 1e-15);
        }
        // P = I + Q/4: up row = [1 - 0.125, 0.125]
        assert!((p.get(0, 0) - 0.875).abs() < 1e-15);
        assert!((p.get(0, 1) - 0.125).abs() < 1e-15);
    }

    #[test]
    fn uniformized_rejects_small_lambda() {
        let (c, _, _) = two_state();
        assert!(c.uniformized(1.0).is_err());
        assert!(c.uniformized(f64::NAN).is_err());
    }

    #[test]
    fn error_display() {
        let e = MarkovError::InvalidRate {
            rate: -1.0,
            from: "a".into(),
            to: "b".into(),
        };
        assert!(e.to_string().contains("a -> b"));
    }
}
