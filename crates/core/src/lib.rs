//! # dra-core
//!
//! The paper's primary contribution — the **Dependable Router
//! Architecture** (Mandviwalla & Tzeng, ICPP 2004) — plus its
//! dependability and performance analyses:
//!
//! * [`eib`] — the Enhanced Internal Bus: a CSMA/CD control channel
//!   and the distributed round-robin TDM data arbiter of §4
//!   (Ctr_id / Ctr_r / Ctr_β).
//! * [`coverage`] — the fault-coverage planner implementing the §3.2
//!   fault model: Case 1 (fabric, absorbed by plane redundancy),
//!   Case 2 (ingress PIU/PDLU/SRU/LFE failures) and Case 3 (egress
//!   failures), including the same-protocol constraint for PDLU
//!   coverage and LC_inter selection.
//! * [`sim`] — the DRA packet-level router model: the BDR chassis
//!   (`dra_router::chassis`) augmented with EIB coverage paths, remote
//!   lookups (REQ_L/REP_L), and promised-bandwidth enforcement.
//! * [`analysis`] — the paper's evaluation: the Figure-5 Markov models
//!   (reliability and availability variants), the nines notation of
//!   Figure 7, and the Figure-8 bandwidth-degradation model.
//! * [`montecarlo`] — fault-level Monte Carlo estimation of the same
//!   dependability measures, used to validate the Markov solutions
//!   (the paper had no such cross-check).
//! * [`scenario`] — declarative fault timelines that run identically
//!   against both architectures, for apples-to-apples comparisons; the
//!   one `Action` dispatch (`ScriptedRouter`) and the only way faults
//!   reach a router simulation.
//! * [`health`] — a router as its health state: per-linecard unit
//!   health and cached serviceability, changed only by applied fault
//!   actions: the per-node state of the network-of-routers layer
//!   (`dra-topo`).

#![warn(missing_docs)]

pub mod analysis;
pub mod coverage;
pub mod eib;
pub mod health;
pub mod montecarlo;
pub mod rareevent;
pub mod scenario;
pub mod sim;
