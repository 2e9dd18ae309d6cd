//! The paper's evaluation (§5), reproduced:
//!
//! * [`reliability`] — the Figure-5 Markov models for BDR and DRA and
//!   the R(t) curves of Figure 6.
//! * [`availability`] — the same models with a repair process and the
//!   steady-state availability table of Figure 7.
//! * [`mod@nines`] — the paper's `9^k x` notation for availability
//!   values.
//! * [`degradation`] — the bandwidth-degradation analysis of Figure 8
//!   (§5.3), including the `B_prom` bus-capacity cap.

pub mod availability;
pub mod degradation;
pub mod nines;
pub mod planner;
pub mod reliability;
pub mod sensitivity;
