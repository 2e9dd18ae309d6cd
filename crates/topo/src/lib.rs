//! # dra-topo
//!
//! The network-of-routers simulation layer: composes the paper's
//! per-router dependability results (DRA vs BDR) into **network**
//! reliability, the question the fat-tree/mesh resiliency literature
//! asks one level up.
//!
//! * [`topology`] — fat-tree(k), 2-D mesh, and Barabási–Albert
//!   generators with deterministic port numbering.
//! * [`routes`] — min-hop routes (BFS, lowest-id tie-break) compiled
//!   into one production [`Dir248Fib`](dra_net::fib::Dir248Fib) per
//!   node.
//! * [`link`] — fixed-latency, fluid-FIFO serialization links with
//!   backlog tail drop and whole-cable failures.
//! * [`net`] — the network model: N BDR/DRA routers, each held as its
//!   [`NodeHealth`](dra_core::health::NodeHealth) and stepped lazily
//!   along its fault timeline; multi-hop flows and composed drop
//!   accounting.
//! * [`kernel`] — the network engine: one calendar queue per run,
//!   with one total event order (time, provenance chain, source
//!   router, per-router emission count) and a counted conservation
//!   ledger.
//! * [`chain`] — the interned parent-pointer provenance arena behind
//!   the engine's tie ordering (zero allocations per hop).
//! * [`stats`] — network metrics: packet conservation, end-to-end
//!   delivery ratio, per-flow availability.
//! * [`seeds`] — the per-node SplitMix64 seed coordinate keeping the
//!   N routers' sampled fault timelines pairwise disjoint.
//! * [`spec`] / [`engine`] / [`registry`] — declarative sweeps over
//!   topology × faults × architecture, executed on the campaign worker
//!   pool into byte-reproducible `dra-topo/v1` artifacts.
//! * [`telemetry`] — network-scope observability, off unless a run
//!   asks for it: per-router counters, hop-resolved flow spans with
//!   Perfetto export, the fault-forensics ledger, and the engine
//!   profiler, exported as the network scope of a `dra-telemetry/v2`
//!   document that is byte-identical at any worker count (all but its
//!   `profile` member).
//!
//! See `examples/network_resilience.rs` and `dra run resilience`
//! (`cargo run --release -- help` lists every sweep flag).

#![warn(missing_docs)]

pub mod chain;
pub mod engine;
pub mod kernel;
pub mod link;
pub mod net;
#[cfg(test)]
mod oracle;
pub mod registry;
pub mod routes;
pub mod seeds;
pub mod spec;
pub mod stats;
pub mod telemetry;
pub mod topology;

pub use engine::{build_network, run, run_with, TopoOutcome, TopoRunOptions};
pub use net::{Flow, NetAction, NetConfig, NetScenario, NetworkSim};
pub use spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
pub use stats::{NetDropCause, NetStats};
pub use topology::{Topology, TopologyKind};
