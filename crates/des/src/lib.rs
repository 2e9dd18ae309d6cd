//! # dra-des
//!
//! A deterministic discrete-event simulation kernel, plus the random
//! distributions and online statistics the router simulators need.
//!
//! * [`sim`] — the kernel: a [`sim::Simulation`] drives a user-supplied
//!   [`sim::Model`] by delivering events in (time, insertion-order)
//!   order. Same seed, same event sequence — bit-for-bit reproducible.
//! * [`calendar`] — the calendar-queue scheduler under the kernel:
//!   O(1) amortized enqueue/dequeue with the same total order a binary
//!   heap over `(time, seq)` would produce.
//! * [`random`] — inverse-transform samplers (exponential, Pareto,
//!   discrete empirical, …) over any [`rand::Rng`], so no extra
//!   distribution crates are needed.
//! * [`stats`] — Welford mean/variance, time-weighted averages,
//!   logarithmic histograms, counters, and batch-means confidence
//!   intervals.

#![warn(missing_docs)]

pub mod calendar;
pub mod queueing;
pub mod random;
pub mod sim;
pub mod stats;

pub use sim::{Ctx, Model, Simulation};
