//! # dra-campaign
//!
//! A declarative, parallel, **deterministic** experiment-campaign
//! engine for the DRA reproduction.
//!
//! The repo's experiments (the repro binaries, the examples, ad-hoc
//! sweeps) kept re-growing the same scaffolding: nested parameter
//! loops, hand-rolled seeding, bespoke aggregation, print-only output.
//! This crate replaces that with one pipeline:
//!
//! * [`spec`] — a [`spec::CampaignSpec`] declares a grid of cells:
//!   architecture × router config × fault scenario × replications.
//!   Scenarios are either explicit [`dra_core::scenario::Scenario`]
//!   timelines or sampled from a [`dra_core::scenario::FaultProcess`].
//! * [`seed`] — every replication's RNG streams derive structurally
//!   from `(master_seed, seed_group, replication, stream)`; results
//!   never depend on thread count or scheduling order.
//! * [`pool`] — the workspace's worker pool (scoped threads, shared
//!   work queue, per-item panic isolation) and [`pool::parallel_map`].
//! * [`sweep`] — the envelope every sweep kind shares: the [`Sweep`]
//!   trait on a kind's cell type and the [`sweep::Grid`] spec (manifest,
//!   FNV-1a digest), the run loop
//!   (pool, error cells, index-ordered assembly, `.partial.jsonl`
//!   checkpoint/resume, validate-before-write, atomic write, per-cell
//!   telemetry collection), and the artifact validator behind
//!   `dra check`. Interrupted sweeps resume by skipping checkpointed
//!   cells — and still produce byte-identical artifacts.
//! * [`record`] — typed cell records: one field list per record type
//!   writes it and reads it back, the shared replication statistic
//!   [`record::Stat`], and the one result table.
//! * [`engine`] — the packet campaign's cells: aggregates per-cell
//!   stats ([`dra_des::stats::Welford`] delivery CI, drop-cause
//!   breakdown, EIB counters, windowed per-LC bytes) into an
//!   [`engine::CampaignRecord`].
//! * [`registry`] — built-in specs (`faceoff`, `fig8`) with `--quick`
//!   CI reductions.
//! * [`rareevent`] — a second campaign kind: grids of
//!   [`dra_core::rareevent`] estimator runs (importance splitting,
//!   likelihood-ratio failure biasing, brute force) with a per-cell
//!   exact-Markov cross-check, emitted as `dra-rareevent/v1`
//!   artifacts through the same envelope.
//! * [`json`] / [`report`] — the hand-rolled JSON layer (the build
//!   environment has no serde; it lives in `dra-telemetry`) and shared
//!   table/CSV printers.
//!
//! The `dra` binary (root package) exposes every sweep kind on the
//! command line; see `dra help`.

#![warn(missing_docs)]

pub mod engine;
pub mod pool;
pub mod rareevent;
pub mod record;
pub mod registry;
pub mod report;
pub mod seed;
pub mod spec;
pub mod sweep;

/// The workspace's JSON layer, defined in `dra-telemetry` (the bottom
/// crate) and re-exported here under its long-standing path.
pub use dra_telemetry::json;

pub use engine::{run, CampaignOutcome, RunOptions};
pub use spec::{Arch, CampaignSpec, CellSpec, ScenarioTemplate};
pub use sweep::Sweep;
