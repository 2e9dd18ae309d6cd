//! The Enhanced Internal Bus (EIB).
//!
//! The paper derives the EIB by upgrading the maintenance bus every
//! commercial router already has (§3.1): separate **control lines**
//! (CSMA/CD, carrying the three-tier protocol packets and lookup
//! replies) and **data lines** (round-robin time-division multiplexed
//! among established logical paths). Each linecard adds a simple bus
//! controller.

pub mod arbiter;
pub mod control;
pub mod datalines;
