//! Topo-sweep execution: the cells of a [`TopoSpec`] run through the
//! [`dra_campaign::sweep`] envelope (worker pool, checkpoint/resume,
//! validated atomic `dra-topo/v1` artifact).
//!
//! Per-cell seeds derive from `(master_seed, seed_group, replication,
//! stream)` via SplitMix64 — with the extra per-node coordinate of
//! [`crate::seeds::node_seed`] inside each cell — so the artifact is
//! byte-identical at every worker count (the CI `topo-smoke` job pins
//! workers 1 vs 4).
//!
//! A sweep compiles each topology's forwarding state (routes and
//! per-node FIBs) once and shares it read-only across the cells and
//! replications on that topology; forwarding is a pure function of the
//! graph, so sharing is unobservable in the artifact.

use crate::net::{Flow, Forwarding, NetAction, NetConfig, NetScenario, NetworkSim};
use crate::seeds::{node_seed, NodeSeedStream};
use crate::spec::{TopoCellSpec, TopoFaultSpec, TopoSpec};
use crate::stats::NetDropCause;
use crate::topology::{Topology, TopologyKind};
use dra_campaign::json::Json;
use dra_campaign::pool::default_workers;
use dra_campaign::seed::{derive_seed, Stream};
use dra_campaign::sweep::{self, welford_json, RunOptions};
use dra_core::scenario::FaultProcess;
use dra_des::stats::Welford;
use dra_router::components::ComponentKind;
use dra_router::faults::{FaultGranularity, FaultInjector};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Result of a sweep (`artifact_text` is the document as written).
pub type TopoOutcome = sweep::Outcome;

/// Seed-stream tag for flow-placement draws (outside the u32 node-id
/// space, so it can never alias a router's stream).
const FLOW_TAG: u64 = 0xF10D_0000_0000_0001;

/// How to execute a sweep.
#[derive(Debug, Clone, Default)]
pub struct TopoRunOptions {
    /// Worker threads (None = one per CPU).
    pub workers: Option<usize>,
    /// Ignored: each cell's network runs as one router group on one
    /// thread. Kept only because the repository benchmark still sets
    /// it, until a change that reopens `benchmark/` (ROADMAP item 6)
    /// deletes it, like [`NetConfig::sim_threads`].
    pub sim_threads: Option<usize>,
    /// Artifact path (None = don't write, return text only). When set,
    /// finished cells checkpoint next to it and a re-run resumes.
    pub out: Option<PathBuf>,
    /// Suppress progress output.
    pub quiet: bool,
    /// Write the merged `dra-telemetry/v2` document, network scope
    /// filled, here (collection turns on iff this or `trace_out` is
    /// set). Every member but `profile` is byte-identical at any
    /// `workers`.
    pub telemetry_out: Option<PathBuf>,
    /// Write the Chrome `trace_event` flow trace of the sampled
    /// packets here.
    pub trace_out: Option<PathBuf>,
}

/// Execute a topo sweep and assemble its artifact.
pub fn run(spec: &TopoSpec, opts: &TopoRunOptions) -> std::io::Result<TopoOutcome> {
    let run_opts = RunOptions {
        workers: opts.workers.unwrap_or_else(default_workers),
        out: opts.out.clone(),
        quiet: opts.quiet,
        telemetry_out: opts.telemetry_out.clone(),
        trace_out: opts.trace_out.clone(),
        ..RunOptions::default()
    };
    run_with(spec, &run_opts)
}

/// Execute a topo sweep with the envelope's own options. Forwarding
/// state is compiled once per topology for the invocation and shared
/// by its cells on that topology.
pub fn run_with(spec: &TopoSpec, opts: &RunOptions) -> std::io::Result<TopoOutcome> {
    sweep::run(spec, opts, |pending| {
        let shared = SharedForwarding::new(spec, pending);
        move |i| run_shared_cell(spec, i, &shared)
    })
}

/// The forwarding state of one sweep invocation: one slot per distinct
/// topology among its pending cells.
///
/// A slot compiles on first use with its lock held, so a second worker
/// on the same topology waits for that compile instead of repeating
/// it, and it empties when the last pending cell of its topology
/// finishes (panicked or not). The sweep therefore holds only the
/// topologies its unfinished cells use, and nothing outlives it: a
/// later sweep compiles afresh. (A `OnceLock` would serve the first
/// half, but cannot be emptied through the shared reference the
/// workers hold.)
struct SharedForwarding {
    slots: Vec<ForwardingSlot>,
}

struct ForwardingSlot {
    kind: TopologyKind,
    forwarding: Mutex<Option<Arc<Forwarding>>>,
    /// Pending cells of this topology that have not finished.
    cells_left: AtomicUsize,
    /// Compiles this slot has run.
    #[cfg(test)]
    compiles: AtomicUsize,
}

impl SharedForwarding {
    /// Slots for the `pending` cells of `spec`.
    fn new(spec: &TopoSpec, pending: &[usize]) -> SharedForwarding {
        let mut slots: Vec<ForwardingSlot> = Vec::new();
        for &i in pending {
            let kind = spec.cells[i].topology;
            match slots.iter_mut().find(|s| s.kind == kind) {
                Some(slot) => *slot.cells_left.get_mut() += 1,
                None => slots.push(ForwardingSlot {
                    kind,
                    forwarding: Mutex::new(None),
                    cells_left: AtomicUsize::new(1),
                    #[cfg(test)]
                    compiles: AtomicUsize::new(0),
                }),
            }
        }
        SharedForwarding { slots }
    }

    fn slot(&self, kind: TopologyKind) -> &ForwardingSlot {
        self.slots
            .iter()
            .find(|s| s.kind == kind)
            .expect("the topology has pending cells in this sweep")
    }

    /// `topo`'s forwarding state, compiled unless an earlier cell on
    /// the same topology already did.
    fn get(&self, topo: &Topology) -> Arc<Forwarding> {
        let slot = self.slot(topo.kind);
        // A compile that panicked left the slot empty, so the next
        // cell simply compiles (and fails) the same way.
        let mut held = slot
            .forwarding
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(held.get_or_insert_with(|| {
            #[cfg(test)]
            slot.compiles.fetch_add(1, Ordering::Relaxed);
            Arc::new(Forwarding::compile(topo))
        }))
    }

    /// Count one cell on `kind` finished; the last one empties the
    /// slot.
    fn finish(&self, kind: TopologyKind) {
        let slot = self.slot(kind);
        // Relaxed: the lock guards the slot's contents, and a cell's
        // networks hold their own `Arc`s; the count only picks which
        // cell empties the slot.
        if slot.cells_left.fetch_sub(1, Ordering::Relaxed) == 1 {
            *slot
                .forwarding
                .lock()
                .unwrap_or_else(PoisonError::into_inner) = None;
        }
    }
}

/// [`run_cell`] on the sweep's shared forwarding state, counting the
/// cell finished however it ends.
fn run_shared_cell(spec: &TopoSpec, index: usize, shared: &SharedForwarding) -> Json {
    struct Finish<'a>(&'a SharedForwarding, TopologyKind);
    impl Drop for Finish<'_> {
        fn drop(&mut self) {
            self.0.finish(self.1);
        }
    }
    let cell = &spec.cells[index];
    let _finish = Finish(shared, cell.topology);
    run_cell(spec, index, |rep| {
        network_on(cell, spec.master_seed, rep, |topo| shared.get(topo))
    })
}

/// Validate a `dra-topo/v1` document, including the network
/// packet-conservation invariant per cell. Returns `(cells,
/// error_cells)`.
pub fn validate_artifact(text: &str) -> Result<(usize, usize), String> {
    sweep::validate::<TopoSpec>(text)
}

/// `k` indices spread evenly over `0..n` (deterministic fault-target
/// selection: same targets for both architectures of a twin pair).
/// Distinct for every `k ≤ n`; larger `k` repeats targets, which is why
/// [`Sweep::validate`](dra_campaign::sweep::Sweep::validate) on a
/// [`TopoSpec`] rejects `FailRouters` with more routers than the
/// topology has.
pub fn spread_targets(n: usize, k: u32) -> Vec<u32> {
    (0..k as usize)
        .map(|i| (i * n / k as usize) as u32)
        .collect()
}

/// Build the fully-wired network for one `(cell, replication)` —
/// topology, forwarding, flows, fault timelines — ready for
/// [`NetworkSim::run`]. Public so examples, benches, and the
/// invariant tests exercise exactly the engine's construction path;
/// outside a sweep there is nothing to share, so the forwarding state
/// is compiled afresh.
pub fn build_network(cell: &TopoCellSpec, master_seed: u64, replication: u32) -> NetworkSim {
    network_on(cell, master_seed, replication, |topo| {
        Arc::new(Forwarding::compile(topo))
    })
}

/// [`build_network`] with the cell topology's forwarding state taken
/// from `forwarding`.
fn network_on(
    cell: &TopoCellSpec,
    master_seed: u64,
    replication: u32,
    forwarding: impl FnOnce(&Topology) -> Arc<Forwarding>,
) -> NetworkSim {
    let sim_seed = derive_seed(
        master_seed,
        cell.seed_group,
        replication as u64,
        Stream::Simulation,
    );
    let fault_seed = derive_seed(
        master_seed,
        cell.seed_group,
        replication as u64,
        Stream::Faults,
    );
    let topo = Topology::build(cell.topology);
    let cfg = NetConfig {
        link: cell.link,
        packet_bytes: cell.flows.packet_bytes,
        traffic_stop_s: cell.horizon_s - cell.drain_s,
        ..NetConfig::default()
    };
    // Flow placement from the cell's private stream: distinct
    // (src, dst) host pairs, identical across the BDR/DRA twins.
    let mut draws = NodeSeedStream::new(sim_seed, FLOW_TAG);
    let mut flows = Vec::with_capacity(cell.flows.n_flows as usize);
    for _ in 0..cell.flows.n_flows {
        let src = topo.hosts[(draws.next().unwrap() % topo.hosts.len() as u64) as usize];
        let dst = loop {
            let d = topo.hosts[(draws.next().unwrap() % topo.hosts.len() as u64) as usize];
            if d != src {
                break d;
            }
        };
        flows.push(Flow {
            src,
            dst,
            rate_pps: cell.flows.rate_pps,
        });
    }
    let n_nodes = topo.n_nodes();
    let forwarding = forwarding(&topo);
    let mut net = NetworkSim::with_forwarding(topo, forwarding, cell.arch, cfg, flows);
    match cell.faults {
        TopoFaultSpec::None => {}
        TopoFaultSpec::FailRouters { k, at_s } => {
            let mut sc = NetScenario::new();
            for node in spread_targets(n_nodes, k) {
                let n_lcs = net.node(node).n_lcs() as u16;
                for lc in (0..n_lcs).step_by(2) {
                    sc = sc.at(
                        at_s,
                        NetAction::FailComponent {
                            node,
                            lc,
                            kind: ComponentKind::Sru,
                        },
                    );
                }
            }
            net.set_scenario(&sc);
        }
        TopoFaultSpec::FailLinks { k, at_s } => {
            let mut cables: Vec<(u32, u32)> = Vec::new();
            for a in 0..n_nodes as u32 {
                for &b in &net.topo.adj[a as usize] {
                    if a < b {
                        cables.push((a, b));
                    }
                }
            }
            let mut sc = NetScenario::new();
            for idx in spread_targets(cables.len(), k.min(cables.len() as u32)) {
                let (a, b) = cables[idx as usize];
                sc = sc.at(at_s, NetAction::FailLink { a, b });
            }
            net.set_scenario(&sc);
        }
        TopoFaultSpec::Renewal {
            delay_scale,
            repair_h,
        } => {
            let process = FaultProcess {
                injector: FaultInjector::new(repair_h, FaultGranularity::PerComponent),
                delay_scale,
                repair: true,
            };
            for node in 0..n_nodes as u32 {
                let mut rng = SmallRng::seed_from_u64(node_seed(fault_seed, node as u64));
                let n_lcs = net.node(node).n_lcs();
                let timeline = process.sample(n_lcs, cell.horizon_s, &mut rng);
                net.set_node_fault_schedule(node, &timeline);
            }
        }
    }
    net
}

/// Run every replication of one cell, each on the network
/// `network(rep)` builds, and reduce to its JSON record. When the sweep
/// envelope armed this thread's telemetry hub, each replication also
/// hands its network scope and flow trace to the hub.
fn run_cell(spec: &TopoSpec, index: usize, network: impl Fn(u32) -> NetworkSim) -> Json {
    let cell = &spec.cells[index];
    let mut injected = 0u64;
    let mut delivered = 0u64;
    let mut in_flight = 0u64;
    let mut drops = [0u64; 8];
    let mut delivery = Welford::new();
    let mut flow_avail = Welford::new();
    let mut latency = Welford::new();
    let mut hops = Welford::new();
    let (mut n_nodes, mut n_links) = (0, 0);
    for rep in 0..cell.replications {
        let mut net = network(rep);
        if let Some(every) = dra_telemetry::sample_every() {
            // Telemetry observes without steering, so the artifact
            // bytes do not change.
            net.enable_net_telemetry(every);
        }
        n_nodes = net.topo.n_nodes();
        n_links = net.topo.n_links();
        let sim_seed = derive_seed(
            spec.master_seed,
            cell.seed_group,
            rep as u64,
            Stream::Simulation,
        );
        let mut net = net.run(sim_seed, cell.horizon_s);
        let s = &net.stats;
        assert!(s.conserved(), "{}: packet conservation violated", cell.id);
        injected += s.injected;
        delivered += s.delivered;
        in_flight += s.in_flight;
        for (acc, d) in drops.iter_mut().zip(s.drops) {
            *acc += d;
        }
        delivery.push(s.delivery_ratio());
        flow_avail.push(s.flow_availability(0.99));
        if s.delivered > 0 {
            latency.push(s.latency.mean());
            hops.push(s.hops.mean());
        }
        // Distinct Perfetto pid/arrow namespaces per (cell, rep): pure
        // functions of the indices, so the merged trace is
        // worker-invariant.
        let pid_base = index as u32 * 4096;
        let arrow_base = ((index as u64 * 1024) + rep as u64) << 40;
        if let Some(report) = net.export_net_telemetry(cell.horizon_s, pid_base, arrow_base) {
            dra_telemetry::absorb(&report.snapshot, report.trace);
        }
    }
    Json::obj(vec![
        ("cell", Json::Num(index as f64)),
        ("id", Json::Str(cell.id.clone())),
        ("arch", Json::Str(cell.arch.label().into())),
        ("topology", Json::Str(cell.topology.label())),
        ("nodes", Json::Num(n_nodes as f64)),
        ("links", Json::Num(n_links as f64)),
        ("replications", Json::Num(cell.replications as f64)),
        ("injected", Json::Num(injected as f64)),
        ("delivered", Json::Num(delivered as f64)),
        ("in_flight", Json::Num(in_flight as f64)),
        (
            "drops",
            Json::Obj(
                NetDropCause::ALL
                    .iter()
                    .map(|c| (c.name().to_string(), Json::Num(drops[c.index()] as f64)))
                    .collect(),
            ),
        ),
        ("delivery_ratio", welford_json(&delivery)),
        ("flow_availability", welford_json(&flow_avail)),
        ("latency_s", welford_json(&latency)),
        ("hops", welford_json(&hops)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::spec::FlowSpec;
    use crate::topology::TopologyKind;
    use dra_campaign::json::parse;
    use dra_campaign::sweep::Sweep;
    use dra_campaign::sweep::{checkpoint_path, CHECKPOINT_FORMAT};
    use dra_core::health::ArchKind;

    #[test]
    fn an_empty_spec_is_invalid_input() {
        let spec = TopoSpec {
            name: "empty".into(),
            description: "no cells".into(),
            master_seed: 1,
            cells: vec![],
        };
        let err = run(&spec, &TopoRunOptions::default()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    fn tiny_spec() -> TopoSpec {
        let cell = |id: &str, arch, group| TopoCellSpec {
            id: id.into(),
            arch,
            topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 4,
                rate_pps: 20_000.0,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
            horizon_s: 8e-3,
            drain_s: 2e-3,
            replications: 2,
            seed_group: group,
        };
        TopoSpec {
            name: "tiny".into(),
            description: "engine test".into(),
            master_seed: 0xD8A,
            cells: vec![
                cell("bdr/mesh/r2", ArchKind::Bdr, 0),
                cell("dra/mesh/r2", ArchKind::Dra, 0),
            ],
        }
    }

    /// `tiny_spec` widened to two topologies, each with its BDR/DRA
    /// twins: cells 0-1 on a 3x3 mesh, cells 2-3 on a 3x4 mesh.
    fn two_topology_spec() -> TopoSpec {
        let mut spec = tiny_spec();
        let wider = spec.cells.iter().map(|c| TopoCellSpec {
            id: c.id.replace("mesh", "mesh3x4"),
            topology: TopologyKind::Mesh2D { rows: 3, cols: 4 },
            seed_group: 1,
            ..c.clone()
        });
        spec.cells = spec.cells.iter().cloned().chain(wider).collect();
        spec
    }

    fn quiet(workers: usize) -> RunOptions {
        RunOptions {
            workers,
            quiet: true,
            ..RunOptions::default()
        }
    }

    #[test]
    fn shared_forwarding_is_unobservable_and_compiled_once_per_topology() {
        let spec = two_topology_spec();
        let all: Vec<usize> = (0..spec.cells.len()).collect();
        // The reference: every replication compiles its own forwarding.
        let fresh = sweep::run(&spec, &quiet(1), |_| {
            |i| {
                run_cell(&spec, i, |rep| {
                    build_network(&spec.cells[i], spec.master_seed, rep)
                })
            }
        })
        .unwrap()
        .artifact_text;
        for workers in [1, 2] {
            let shared = SharedForwarding::new(&spec, &all);
            let text = sweep::run(&spec, &quiet(workers), |_| {
                |i| run_shared_cell(&spec, i, &shared)
            })
            .unwrap()
            .artifact_text;
            assert_eq!(text, fresh, "workers = {workers}");
            assert_eq!(shared.slots.len(), 2, "one slot per topology");
            for slot in &shared.slots {
                assert_eq!(
                    slot.compiles.load(Ordering::Relaxed),
                    1,
                    "{}: 2 cells x 2 replications, one compile",
                    slot.kind.label()
                );
                assert!(slot.forwarding.lock().unwrap().is_none(), "released");
            }
            let swept = run_with(&spec, &quiet(workers)).unwrap().artifact_text;
            assert_eq!(swept, fresh, "run_with, workers = {workers}");
        }
    }

    #[test]
    fn cells_on_one_topology_share_one_forwarding() {
        let spec = two_topology_spec();
        let all: Vec<usize> = (0..spec.cells.len()).collect();
        let shared = SharedForwarding::new(&spec, &all);
        let net = |i: usize, rep| {
            network_on(&spec.cells[i], spec.master_seed, rep, |topo| {
                shared.get(topo)
            })
        };
        let (bdr, dra, other) = (net(0, 0), net(1, 1), net(2, 0));
        assert!(Arc::ptr_eq(&bdr.forwarding, &dra.forwarding));
        assert!(!Arc::ptr_eq(&bdr.forwarding, &other.forwarding));
        // The two 3x4 cells are still pending: finishing both 3x3
        // cells empties only the 3x3 slot.
        let (small, wide) = (spec.cells[0].topology, spec.cells[2].topology);
        let held = |kind| shared.slot(kind).forwarding.lock().unwrap().is_some();
        shared.finish(small);
        assert!(held(small));
        shared.finish(small);
        assert!(!held(small));
        assert!(held(wide));
    }

    #[test]
    fn a_sweep_resumed_between_cells_of_one_topology_is_identical() {
        let spec = two_topology_spec();
        let dir = std::env::temp_dir().join(format!("dra-topo-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = |out: &str, cell_budget| RunOptions {
            out: Some(dir.join(out)),
            cell_budget,
            ..quiet(1)
        };
        let full = run_with(&spec, &opts("full.json", None)).unwrap();
        // Cut after cell 0: cell 1, on the same topology, is next.
        let cut = run_with(&spec, &opts("resumed.json", Some(1))).unwrap();
        assert_eq!((cut.completed, cut.remaining), (1, 3));
        let resumed = run_with(&spec, &opts("resumed.json", None)).unwrap();
        assert_eq!(resumed.resumed, 1);
        assert_eq!(resumed.artifact_text, full.artifact_text);
        assert_eq!(
            std::fs::read_to_string(dir.join("resumed.json")).unwrap(),
            full.artifact_text
        );
        // The resumed run counts only its pending cells, so the 3x3
        // slot empties after cell 1, not after a cell 0 that never runs.
        let shared = SharedForwarding::new(&spec, &[1, 2, 3]);
        let topo = Topology::build(spec.cells[1].topology);
        shared.get(&topo);
        shared.finish(topo.kind);
        assert!(shared.slot(topo.kind).forwarding.lock().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn artifact_is_worker_count_invariant() {
        let spec = tiny_spec();
        let run_with = |w| {
            run(
                &spec,
                &TopoRunOptions {
                    workers: Some(w),
                    out: None,
                    quiet: true,
                    ..Default::default()
                },
            )
            .unwrap()
            .artifact_text
        };
        let w1 = run_with(1);
        let w4 = run_with(4);
        assert_eq!(w1, w4, "artifact must be byte-identical at 1 vs 4 workers");
        let (cells, errors) = validate_artifact(&w1).unwrap();
        assert_eq!((cells, errors), (2, 0));
    }

    #[test]
    fn twin_cells_share_traffic_and_dra_dominates() {
        let spec = tiny_spec();
        let out = run(
            &spec,
            &TopoRunOptions {
                workers: Some(1),
                out: None,
                quiet: true,
                ..Default::default()
            },
        )
        .unwrap();
        let doc = parse(&out.artifact_text).unwrap();
        let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
        let injected: Vec<u64> = cells
            .iter()
            .map(|c| c.get("injected").and_then(Json::as_u64).unwrap())
            .collect();
        assert_eq!(injected[0], injected[1], "twins share the arrival stream");
        let ratio = |c: &Json| {
            c.get("delivery_ratio")
                .and_then(|d| d.get("mean"))
                .and_then(Json::as_f64)
                .unwrap()
        };
        assert!(
            ratio(&cells[1]) > ratio(&cells[0]),
            "DRA ({}) must beat BDR ({}) under router degradation",
            ratio(&cells[1]),
            ratio(&cells[0])
        );
    }

    #[test]
    fn panicked_cells_are_keyed_by_cell_index() {
        let mut spec = tiny_spec();
        // Passes spec validation but panics during topology build:
        // the mesh generator rejects single-row grids.
        spec.cells[0].topology = TopologyKind::Mesh2D { rows: 1, cols: 9 };
        for workers in [1, 4] {
            let out = run(
                &spec,
                &TopoRunOptions {
                    workers: Some(workers),
                    out: None,
                    quiet: true,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(out.failed, 1, "workers = {workers}");
            let doc = parse(&out.artifact_text).unwrap();
            let cells = doc.get("cells").and_then(Json::as_arr).unwrap();
            let bad = &cells[0];
            assert_eq!(bad.get("cell").and_then(Json::as_u64), Some(0));
            assert_eq!(bad.get("id").and_then(Json::as_str), Some("bdr/mesh/r2"));
            assert!(
                bad.get("error")
                    .and_then(Json::as_str)
                    .unwrap()
                    .contains("mesh needs rows"),
                "error cell must carry the panic message"
            );
            assert!(cells[1].get("error").is_none(), "healthy cell untouched");
            let (n, errors) = validate_artifact(&out.artifact_text).unwrap();
            assert_eq!((n, errors), (2, 1));
        }
    }

    #[test]
    fn planted_checkpoint_resumes_to_identical_artifact() {
        let spec = tiny_spec();
        let dir = std::env::temp_dir().join(format!("dra-topo-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let opts = |out: PathBuf| TopoRunOptions {
            workers: Some(1),
            out: Some(out),
            quiet: true,
            ..Default::default()
        };
        let full = run(&spec, &opts(dir.join("full.json"))).unwrap();
        assert_eq!(full.resumed, 0);

        // A checkpoint holding cell 0 of the full run, as an
        // interrupted run would have left it.
        let doc = parse(&full.artifact_text).unwrap();
        let cell0 = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
        let header = Json::obj(vec![
            ("format", Json::Str(CHECKPOINT_FORMAT.into())),
            ("digest", Json::Str(spec.digest())),
        ]);
        let path = dir.join("resumed.json");
        std::fs::write(
            checkpoint_path(&path),
            format!(
                "{}\n{}\n",
                header.to_string_compact(),
                cell0.to_string_compact()
            ),
        )
        .unwrap();
        let resumed = run(&spec, &opts(path.clone())).unwrap();
        assert_eq!(resumed.resumed, 1, "planted cell must be skipped");
        assert_eq!(resumed.completed, spec.cells.len() - 1);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            full.artifact_text,
            "resumed artifact differs from a full run"
        );
        assert!(!checkpoint_path(&path).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn spread_targets_cover_the_range() {
        assert_eq!(spread_targets(20, 4), vec![0, 5, 10, 15]);
        assert_eq!(spread_targets(16, 1), vec![0]);
        assert!(spread_targets(9, 3).iter().all(|&t| t < 9));
    }

    #[test]
    fn spread_targets_are_distinct_for_every_k_up_to_n() {
        for n in 1..=130usize {
            for k in 1..=n as u32 {
                let t = spread_targets(n, k);
                assert_eq!(t.len(), k as usize);
                assert!(
                    t.windows(2).all(|w| w[0] < w[1]) && t[k as usize - 1] < n as u32,
                    "n={n} k={k}: {t:?}"
                );
            }
        }
    }
}
