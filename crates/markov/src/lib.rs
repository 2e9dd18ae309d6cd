//! # dra-markov
//!
//! Continuous-time Markov chains (CTMCs) for dependability analysis,
//! built for the Markov models of the DRA paper (ICPP 2004, §5) but
//! fully general:
//!
//! * [`CtmcBuilder`] / [`Ctmc`] — construct chains from labeled states
//!   and transition rates; the generator is validated (nonnegative
//!   off-diagonals, zero row sums) at build time.
//! * [`transient`] — transient state probabilities π(t) by
//!   **uniformization** (the workhorse; numerically robust for stiff
//!   dependability models) and by an adaptive **RK45** ODE integrator
//!   (used to cross-validate uniformization in tests; a third,
//!   matrix-exponential reference exists only in the tests).
//! * [`steady`] — steady-state distribution by dense LU on the balance
//!   equations, by Gauss–Seidel, or by power iteration on the
//!   uniformized DTMC.
//! * [`absorbing`] — mean time to absorption (MTTF) and absorption
//!   probabilities for chains with absorbing failure states.
//! * [`oracle`] — one-call exact answers (steady-state mass of a state
//!   set, mean hitting time of a state set) used as the ground truth
//!   when validating rare-event estimators on small models.

#![warn(missing_docs)]
// Index-parallel numerical kernels read better with explicit indices.
#![allow(clippy::needless_range_loop)]

pub mod absorbing;
pub mod ctmc;
pub mod oracle;
pub mod phase;
pub mod steady;
pub mod transient;

use ctmc::MarkovError;
pub use ctmc::{Ctmc, CtmcBuilder, StateId};
pub use transient::TransientOptions;

/// Crate-wide result alias.
pub(crate) type Result<T> = std::result::Result<T, MarkovError>;
