//! # dra-router
//!
//! The **BDR** (basic distributed router) baseline of the paper's
//! Figure 1, as a packet-level discrete-event simulation, plus all the
//! machinery the DRA architecture reuses:
//!
//! * [`components`] — linecard functional units (PIU, PDLU, SRU, LFE,
//!   bus controller), their health, the per-port PIU fail and hot-swap
//!   repair rule, and the paper's failure rates.
//! * [`fabric`] — a cell-slotted crossbar with virtual output queues,
//!   a bitmask iSLIP iterative scheduler, and redundant switching
//!   planes (the paper's Case-1 fault tolerance).
//! * [`linecard`] — per-linecard state: protocol, unit and port
//!   health, port rate, reassembler.
//! * [`ingress`] — the LFE's batched lookup front end: per-linecard
//!   arrival trains resolved against the compiled DIR-24-8 FIB in one
//!   `lookup_batch` call, with generation-stamped invalidation under
//!   route churn.
//! * [`metrics`] — offered/delivered/drop accounting, latency, and
//!   time-weighted per-linecard availability.
//! * [`faults`] — exponential component-failure and repair sampling
//!   (hot-swap semantics: repair restores the whole linecard), which
//!   the scripted fault timelines draw from.
//! * [`chassis`] — the datapath substrate both architectures share:
//!   construction, the one forwarding table every linecard's LFE reads
//!   (the route processor's full-mesh routes plus in-service route
//!   updates), arrivals, the fabric-slot loop with reassembly, and the
//!   reassembly purge.
//! * [`bdr`] — the BDR router model itself, a chassis plus BDR's
//!   admission rule: under any linecard component failure, that
//!   linecard's traffic is lost until repair — exactly the behaviour
//!   DRA is designed to fix.

#![warn(missing_docs)]

pub mod bdr;
pub mod chassis;
pub mod components;
pub mod fabric;
pub mod faults;
pub mod ingress;
pub mod linecard;
pub mod metrics;
