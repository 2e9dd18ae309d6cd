//! The network-of-routers DES model.
//!
//! [`NetworkSim`] simulates N BDR or DRA routers — each held as its
//! [`NodeHealth`] — on the network engine of [`crate::kernel`].
//! End-to-end packets hop router → link → router: at every transit the
//! owning router's fault timeline is stepped to "now", its current
//! linecard serviceability consulted (so faults in a router's private
//! timeline shape network forwarding), the node's topology-derived
//! DIR-24-8 FIB resolves the egress port, and the link model charges
//! serialization + propagation.
//!
//! Fault surfaces, composed exactly as the single-router layer defines
//! them:
//! * **BDR** — any failed unit on a linecard removes that port from
//!   service; transit through it drops.
//! * **DRA** — PDLU/SRU/LFE failures are EIB-covered when a helper
//!   card exists; covered transits pay an EIB serialization charge
//!   against a per-node promised-bandwidth budget and drop as
//!   [`NetDropCause::CoverageSaturated`] when it oversubscribes.
//! * **Links** — fail as whole cables (both directions) and tail-drop
//!   on serialization backlog.
//!
//! Determinism: the only RNG draws are flow inter-arrival times on the
//! network simulation's own seeded RNG; router health is pure state
//! driven by fault timelines fixed before the run. One seed ⇒ one
//! event history, run by one engine ([`crate::kernel`]).

use crate::link::{LinkArena, LinkConfig};
use crate::routes::{compile_fibs, node_addr, RouteTables, MAX_DIAMETER};
use crate::stats::{NetDropCause, NetStats};
use crate::topology::{Topology, TopologyKind};
use dra_core::health::{ArchKind, NodeHealth};
use dra_core::scenario::{Action, Scenario};
use dra_net::fib::{Dir248Fib, Fib};
use dra_router::bdr::BdrConfig;
use dra_router::components::ComponentKind;
use std::sync::Arc;

/// One end-to-end flow: Poisson packet arrivals from `src`'s host
/// port to `dst`'s host port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: u32,
    /// Destination node (≠ `src`).
    pub dst: u32,
    /// Mean packet rate, packets per second.
    pub rate_pps: f64,
}

/// Network-level model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Link parameters (uniform).
    pub link: LinkConfig,
    /// Healthy per-router transit delay (lookup + fabric), seconds.
    pub node_transit_s: f64,
    /// EIB promised bandwidth available to covered transit at one
    /// node, bits per second.
    pub coverage_bps: f64,
    /// Backlog bound of the per-node coverage budget, seconds.
    pub coverage_backlog_s: f64,
    /// End-to-end packet size, bytes.
    pub packet_bytes: u32,
    /// Flow injection stops at this time (the remainder of the
    /// horizon drains the network).
    pub traffic_stop_s: f64,
    /// Ignored: a network runs as one router group on one thread
    /// ([`crate::kernel`]). Kept only because the repository benchmark
    /// still sets it, until a change that reopens `benchmark/`
    /// (ROADMAP item 6) deletes it.
    pub sim_threads: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            link: LinkConfig::default(),
            node_transit_s: 2e-6,
            coverage_bps: 20e9,
            coverage_backlog_s: 200e-6,
            packet_bytes: 700,
            traffic_stop_s: f64::MAX,
            sim_threads: 1,
        }
    }
}

/// A network-level fault action.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetAction {
    /// Fail one unit of one linecard of one router.
    FailComponent {
        /// Target router.
        node: u32,
        /// Target linecard (port).
        lc: u16,
        /// Unit to fail.
        kind: ComponentKind,
    },
    /// Hot-swap repair a linecard.
    RepairLc {
        /// Target router.
        node: u32,
        /// Target linecard.
        lc: u16,
    },
    /// Fail a router's EIB (DRA only; no-op on BDR).
    FailEib {
        /// Target router.
        node: u32,
    },
    /// Repair a router's EIB.
    RepairEib {
        /// Target router.
        node: u32,
    },
    /// Cut the cable between `a` and `b` (both directions).
    FailLink {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
    /// Restore the cable between `a` and `b`.
    RepairLink {
        /// One endpoint.
        a: u32,
        /// The other endpoint.
        b: u32,
    },
}

/// A time-ordered network fault timeline.
#[derive(Debug, Clone, Default)]
pub struct NetScenario {
    events: Vec<(f64, NetAction)>,
}

impl NetScenario {
    /// Empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `action` at `at_s` (builder style).
    pub fn at(mut self, at_s: f64, action: NetAction) -> Self {
        assert!(at_s.is_finite() && at_s >= 0.0);
        self.events.push((at_s, action));
        self
    }

    /// The scripted events, in insertion order.
    pub fn events(&self) -> &[(f64, NetAction)] {
        &self.events
    }

    fn ordered(&self) -> Vec<(f64, NetAction)> {
        let mut ev = self.events.clone();
        ev.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
        ev
    }
}

/// An end-to-end packet in flight.
///
/// Sized to ride the hot path: 24 bytes, so every event that carries
/// one stays within half a cache line (the static asserts below pin
/// the event payload budget).
#[derive(Debug, Clone, Copy)]
pub struct NetPacket {
    /// Injection-order id (also salts the destination host address).
    pub id: u64,
    /// Injection timestamp.
    pub injected_at: f64,
    /// Owning flow index.
    pub flow: u32,
    /// Destination node (node ids fit `u16`; `node_prefix` asserts
    /// the same bound when deriving addresses).
    pub dst: u16,
    /// Remaining hop budget (starts at the routed diameter).
    pub ttl: u8,
    /// Router hops taken so far.
    pub hops: u8,
}

// The per-event payload budget the hot-path overhaul pays for.
const _: () = assert!(std::mem::size_of::<NetPacket>() == 24);

/// One scripted action with every topology lookup already resolved —
/// what [`NetworkSim::set_scenario`] compiles a [`NetAction`] into, so
/// applying a link action on the hot timeline costs two indexed
/// stores instead of two `port_between` binary searches.
#[derive(Debug, Clone)]
pub(crate) enum CompiledNetAction {
    /// Forwarded to one router's private timeline.
    Router {
        /// Target router.
        node: u32,
        /// The single-router action to apply.
        action: Action,
    },
    /// Both directions of one cable, as resolved `(node, port)` pairs.
    Cable {
        /// One endpoint.
        a: u32,
        /// `a`'s port toward `b`.
        pa: u16,
        /// The other endpoint.
        b: u32,
        /// `b`'s port toward `a`.
        pb: u16,
        /// New up/down state for both directions.
        up: bool,
    },
}

/// Panic unless `node` exists and `action` names one of its linecards
/// — at attach time, instead of as a bare index error at the action's
/// time mid-run.
fn check_router_action(topo: &Topology, node: u32, action: &Action) {
    let n_nodes = topo.n_nodes();
    assert!(
        (node as usize) < n_nodes,
        "no node {node} (network has {n_nodes} nodes)"
    );
    if let Action::FailComponent(lc, _) | Action::RepairLc(lc) = *action {
        let n_lcs = topo.n_lcs(node);
        assert!(
            (lc as usize) < n_lcs,
            "node {node} has no lc {lc} ({n_lcs} linecards)"
        );
    }
}

/// Resolve one [`NetAction`] against the topology (see
/// [`CompiledNetAction`]).
///
/// # Panics
/// Panics when the action names a node, linecard or link the topology
/// does not have.
fn compile_net_action(topo: &Topology, action: NetAction) -> CompiledNetAction {
    let port_between = |a: u32, b: u32| -> u16 {
        topo.adj
            .get(a as usize)
            .and_then(|adj| adj.binary_search(&b).ok())
            .unwrap_or_else(|| panic!("no link {a}-{b}")) as u16
    };
    let router = |node: u32, action: Action| {
        check_router_action(topo, node, &action);
        CompiledNetAction::Router { node, action }
    };
    match action {
        NetAction::FailComponent { node, lc, kind } => {
            router(node, Action::FailComponent(lc, kind))
        }
        NetAction::RepairLc { node, lc } => router(node, Action::RepairLc(lc)),
        NetAction::FailEib { node } => router(node, Action::FailEib),
        NetAction::RepairEib { node } => router(node, Action::RepairEib),
        NetAction::FailLink { a, b } => CompiledNetAction::Cable {
            a,
            pa: port_between(a, b),
            b,
            pb: port_between(b, a),
            up: false,
        },
        NetAction::RepairLink { a, b } => CompiledNetAction::Cable {
            a,
            pa: port_between(a, b),
            b,
            pb: port_between(b, a),
            up: true,
        },
    }
}

/// A topology's forwarding state: the min-hop routes compiled into one
/// [`Dir248Fib`] per node, and the routed diameter that sets every
/// packet's hop budget.
///
/// It is a pure function of the graph — the architecture, faults,
/// flows and seeds of a network never touch it — so every network on
/// one topology can share one value read-only behind an [`Arc`]: a
/// topo sweep compiles it once per topology.
#[derive(Debug)]
pub(crate) struct Forwarding {
    /// The topology the routes were derived from.
    kind: TopologyKind,
    /// Per-node FIBs, indexed by node id.
    fibs: Vec<Dir248Fib>,
    /// Every packet's starting TTL: the routed diameter, so only a
    /// routing bug can exhaust it.
    hop_budget: u8,
}

impl Forwarding {
    /// Derive `topo`'s routes and compile them.
    ///
    /// # Panics
    /// Panics when the routed diameter exceeds [`MAX_DIAMETER`], the
    /// most hops a packet's `u8` hop fields can count.
    pub(crate) fn compile(topo: &Topology) -> Forwarding {
        let routes = RouteTables::derive(topo);
        assert!(
            routes.diameter <= MAX_DIAMETER,
            "routed diameter {} exceeds the {MAX_DIAMETER}-hop budget of the packet's u8 hop fields",
            routes.diameter
        );
        Forwarding {
            kind: topo.kind,
            fibs: compile_fibs(topo, &routes),
            hop_budget: routes.diameter as u8,
        }
    }

    /// Per-node FIBs, indexed by node id.
    pub(crate) fn fibs(&self) -> &[Dir248Fib] {
        &self.fibs
    }

    /// The routed diameter, in links: every packet's hop budget.
    pub(crate) fn hop_budget(&self) -> u8 {
        self.hop_budget
    }
}

/// The simulated network.
///
/// Interior fields are `pub(crate)` so [`crate::kernel`] can run a
/// built network in place.
pub struct NetworkSim {
    /// The graph.
    pub topo: Topology,
    /// Routes and FIBs, shared read-only with every network on `topo`.
    pub(crate) forwarding: Arc<Forwarding>,
    /// Per-node router health.
    pub(crate) nodes: Vec<NodeHealth>,
    /// Every directed link, flat, indexed by `(node, port)`.
    pub(crate) links: LinkArena,
    /// Per-node EIB coverage budget (fluid queue drain time).
    pub(crate) covered_busy: Vec<f64>,
    /// Flows.
    pub(crate) flows: Vec<Flow>,
    /// Ordered network fault timeline.
    pub(crate) scenario: Vec<(f64, NetAction)>,
    /// `scenario` with topology lookups resolved (same indexing).
    pub(crate) compiled: Vec<CompiledNetAction>,
    /// Model parameters.
    pub cfg: NetConfig,
    /// Composed metrics.
    pub stats: NetStats,
    /// Events the last [`NetworkSim::run`] processed.
    pub(crate) events: u64,
    /// Network-scope telemetry collector (installed by
    /// [`NetworkSim::enable_net_telemetry`]; `None` = off). Boxed so
    /// the disabled hot path pays one pointer, not the collector.
    pub(crate) tele: Option<Box<crate::telemetry::NetTele>>,
}

impl NetworkSim {
    /// Build a network of healthy `arch` routers on `topo`, compiling
    /// its routes and FIBs afresh.
    ///
    /// Each node's router gets `degree + 1` linecards (one per link
    /// plus the host port, minimum 3), shaped otherwise by
    /// [`BdrConfig::default`].
    pub fn new(topo: Topology, arch: ArchKind, cfg: NetConfig, flows: Vec<Flow>) -> NetworkSim {
        let forwarding = Arc::new(Forwarding::compile(&topo));
        Self::with_forwarding(topo, forwarding, arch, cfg, flows)
    }

    /// [`NetworkSim::new`] on forwarding state already compiled for
    /// `topo` (and possibly shared with other networks on it).
    ///
    /// # Panics
    /// Panics when `forwarding` was compiled for another topology.
    pub(crate) fn with_forwarding(
        topo: Topology,
        forwarding: Arc<Forwarding>,
        arch: ArchKind,
        cfg: NetConfig,
        flows: Vec<Flow>,
    ) -> NetworkSim {
        assert!(
            forwarding.kind == topo.kind && forwarding.fibs.len() == topo.n_nodes(),
            "forwarding compiled for {}, not for {}",
            forwarding.kind.label(),
            topo.kind.label()
        );
        for f in &flows {
            assert!(f.src != f.dst, "flow src == dst");
            assert!((f.src as usize) < topo.n_nodes() && (f.dst as usize) < topo.n_nodes());
            assert!(f.rate_pps > 0.0);
        }
        let mut base = BdrConfig::default();
        let nodes = (0..topo.n_nodes() as u32)
            .map(|n| {
                base.n_lcs = topo.n_lcs(n);
                NodeHealth::new(arch, &base)
            })
            .collect();
        let links = LinkArena::from_degrees(topo.adj.iter().map(Vec::len), cfg.link.latency_s);
        let n_flows = flows.len();
        let covered_busy = vec![0.0; topo.n_nodes()];
        NetworkSim {
            topo,
            forwarding,
            nodes,
            links,
            covered_busy,
            flows,
            scenario: Vec::new(),
            compiled: Vec::new(),
            cfg,
            stats: NetStats::new(n_flows),
            events: 0,
            tele: None,
        }
    }

    /// Attach the network fault timeline (replaces any previous one),
    /// compiling every action's topology lookups — link endpoints to
    /// `(node, port)` pairs — once, here, instead of per application.
    ///
    /// # Panics
    /// Panics when an action names a node, linecard or link the
    /// topology does not have.
    pub fn set_scenario(&mut self, scenario: &NetScenario) {
        self.scenario = scenario.ordered();
        self.compiled = self
            .scenario
            .iter()
            .map(|&(_, a)| compile_net_action(&self.topo, a))
            .collect();
    }

    /// Override the propagation latency of the cable between `a` and
    /// `b` (both directions).
    pub fn set_link_latency(&mut self, a: u32, b: u32, latency_s: f64) {
        assert!(
            latency_s.is_finite() && latency_s > 0.0,
            "link latency must be positive and finite, got {latency_s}"
        );
        let pab = self.port_between(a, b);
        let pba = self.port_between(b, a);
        self.links.at_mut(a, pab).latency_s = latency_s;
        self.links.at_mut(b, pba).latency_s = latency_s;
    }

    /// Attach a per-router fault timeline (e.g. sampled from a
    /// [`FaultProcess`](dra_core::scenario::FaultProcess) on the
    /// node's private seed stream) to `node`.
    ///
    /// # Panics
    /// Panics when `node` does not exist or an action names a linecard
    /// the node does not have.
    pub fn set_node_fault_schedule(&mut self, node: u32, timeline: &Scenario) {
        for (_, action) in timeline.events() {
            check_router_action(&self.topo, node, action);
        }
        self.nodes[node as usize].set_fault_schedule(timeline);
    }

    /// A node's router health.
    pub fn node(&self, node: u32) -> &NodeHealth {
        &self.nodes[node as usize]
    }

    /// The attached network fault timeline, time-ordered (see
    /// [`NetworkSim::set_scenario`]).
    pub fn scenario(&self) -> &[(f64, NetAction)] {
        &self.scenario
    }

    /// The flows driving this network.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Events the last [`run`](NetworkSim::run) processed (0 before
    /// any run): packet transits, link offers, deliveries and the
    /// per-router halves of scripted actions.
    pub fn events_processed(&self) -> u64 {
        self.events
    }

    /// Bind this network to `seed` behind the `run_until` /
    /// `events_processed` / `into_model` shape of a DES
    /// [`Simulation`](dra_des::sim::Simulation). The network has one
    /// engine, [`NetworkSim::run`]; this handle exists so callers
    /// written against the serial kernel's API (the benchmark's
    /// per-layer replay) keep compiling, and it runs exactly once.
    pub fn simulation(self, seed: u64) -> NetRun {
        NetRun {
            net: Some(self),
            seed,
            ran: false,
        }
    }

    /// Run the network to `horizon` on the network engine
    /// ([`crate::kernel`]).
    pub fn run(self, seed: u64, horizon: f64) -> NetworkSim {
        crate::kernel::run(self, seed, horizon)
    }

    fn port_between(&self, a: u32, b: u32) -> u16 {
        self.topo.adj[a as usize]
            .binary_search(&b)
            .unwrap_or_else(|_| panic!("no link {a}-{b}")) as u16
    }
}

/// A network bound to a seed (see [`NetworkSim::simulation`]).
pub struct NetRun {
    /// `None` only while [`NetRun::run_until`] runs it.
    net: Option<NetworkSim>,
    seed: u64,
    ran: bool,
}

impl NetRun {
    /// Run the network to `horizon` with [`NetworkSim::run`].
    ///
    /// # Panics
    /// Panics on a second call: a network run does not resume.
    pub fn run_until(&mut self, horizon: f64) {
        assert!(!self.ran, "NetRun::run_until: a network runs once");
        let net = self.net.take().expect("network present");
        self.net = Some(net.run(self.seed, horizon));
        self.ran = true;
    }

    /// [`NetworkSim::events_processed`] of the run.
    pub fn events_processed(&self) -> u64 {
        self.net.as_ref().map_or(0, NetworkSim::events_processed)
    }

    /// The network, finished if [`NetRun::run_until`] ran.
    pub fn into_model(self) -> NetworkSim {
        self.net.expect("network present")
    }
}

/// Outcome of one router transit, computed by [`hop`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum HopOutcome {
    /// The packet dies at this hop.
    Drop(NetDropCause),
    /// This node is the destination; the host port sees it `delay_s`
    /// from now.
    Deliver {
        /// Transit (+ coverage) delay.
        delay_s: f64,
    },
    /// Forward out of `out_port` after `delay_s`.
    Forward {
        /// Transit (+ coverage) delay.
        delay_s: f64,
        /// Egress port toward the next hop.
        out_port: u16,
    },
}

/// The per-hop core of the network engine (and of the test-only serial
/// oracle): step the router's health to `now`, run health checks and
/// the FIB lookup, charge the EIB coverage budget, and decide the
/// packet's fate. Mutates `pkt` (hop count, TTL) and the
/// router/coverage state — the operation *order* here is load-bearing
/// for byte-identical artifacts (e.g. the coverage budget is consumed
/// before the TTL check).
#[allow(clippy::too_many_arguments)]
pub(crate) fn hop(
    node: u32,
    router: &mut NodeHealth,
    fib: &Dir248Fib,
    covered_busy: &mut f64,
    cfg: &NetConfig,
    now: f64,
    pkt: &mut NetPacket,
    in_port: u16,
) -> HopOutcome {
    pkt.hops = pkt.hops.saturating_add(1);
    router.advance_to(now);
    if !router.lc_serviceable(in_port) {
        return HopOutcome::Drop(NetDropCause::IngressDown);
    }
    let Some(out_port) = fib.lookup(node_addr(pkt.dst as u32, pkt.id)) else {
        return HopOutcome::Drop(NetDropCause::NoRoute);
    };
    if !router.lc_serviceable(out_port) {
        return HopOutcome::Drop(NetDropCause::EgressDown);
    }
    if !router.fabric_operational() {
        return HopOutcome::Drop(NetDropCause::FabricDown);
    }
    let mut delay = cfg.node_transit_s;
    if router.lc_covered(in_port) || router.lc_covered(out_port) {
        // Covered transit detours over the EIB: serialize against
        // the node's promised-bandwidth budget.
        let start = covered_busy.max(now);
        let finish = start + cfg.packet_bytes as f64 * 8.0 / cfg.coverage_bps;
        if finish - now > cfg.coverage_backlog_s {
            return HopOutcome::Drop(NetDropCause::CoverageSaturated);
        }
        *covered_busy = finish;
        delay += finish - now;
    }
    if node == pkt.dst as u32 {
        HopOutcome::Deliver { delay_s: delay }
    } else {
        if pkt.ttl == 0 {
            return HopOutcome::Drop(NetDropCause::TtlExceeded);
        }
        pkt.ttl -= 1;
        HopOutcome::Forward {
            delay_s: delay,
            out_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    fn small_net(arch: ArchKind) -> NetworkSim {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 3, cols: 3 });
        let cfg = NetConfig {
            traffic_stop_s: 5e-3,
            ..NetConfig::default()
        };
        let flows = vec![
            Flow {
                src: 0,
                dst: 8,
                rate_pps: 20_000.0,
            },
            Flow {
                src: 6,
                dst: 2,
                rate_pps: 20_000.0,
            },
        ];
        NetworkSim::new(topo, arch, cfg, flows)
    }

    #[test]
    fn healthy_network_delivers_everything() {
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let done = small_net(arch).run(42, 10e-3);
            let s = &done.stats;
            assert!(s.injected > 50, "{arch:?}: {}", s.injected);
            assert_eq!(s.delivered, s.injected, "{arch:?}");
            assert_eq!(s.in_flight, 0, "{arch:?}");
            assert!(s.conserved());
            // Corner-to-corner on a 3x3 mesh: 4 links + 5 routers.
            assert!((s.hops.mean() - 5.0).abs() < 1e-9, "{}", s.hops.mean());
            assert!(s.latency.mean() > 4.0 * 10e-6, "4 propagation delays");
        }
    }

    #[test]
    fn paths_longer_than_32_hops_are_delivered() {
        // Corner to corner on a 2x40 mesh is 40 links: the hop budget
        // is the routed diameter, not a fixed TTL.
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 2, cols: 40 });
        let flows = vec![Flow {
            src: 0,
            dst: 79,
            rate_pps: 20_000.0,
        }];
        let cfg = NetConfig {
            traffic_stop_s: 5e-3,
            ..NetConfig::default()
        };
        let done = NetworkSim::new(topo, ArchKind::Bdr, cfg, flows).run(3, 10e-3);
        let s = &done.stats;
        assert!(s.injected > 50, "{}", s.injected);
        assert_eq!(s.delivered, s.injected);
        assert!((s.hops.mean() - 41.0).abs() < 1e-9, "{}", s.hops.mean());
    }

    #[test]
    #[should_panic(expected = "hop budget")]
    fn a_diameter_beyond_the_hop_fields_is_rejected() {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 2, cols: 255 });
        let flows = vec![Flow {
            src: 0,
            dst: 1,
            rate_pps: 1.0,
        }];
        NetworkSim::new(topo, ArchKind::Bdr, NetConfig::default(), flows);
    }

    #[test]
    fn identical_seeds_identical_histories() {
        let run = || {
            let done = small_net(ArchKind::Dra).run(7, 10e-3);
            let s = &done.stats;
            (s.injected, s.delivered, s.latency.mean())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn transit_router_failure_separates_architectures() {
        // Both flows transit node 1 (0→1→2→5→8 and 6→3→0→1→2 under
        // the lowest-id tie-break). Fail SRU on its even linecards at
        // t=1ms — port 0 faces node 0, so BDR drops transit arriving
        // from 0 while DRA covers the card over the EIB.
        let mut results = Vec::new();
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let mut net = small_net(arch);
            let n_lcs = net.node(1).n_lcs() as u16;
            let mut sc = NetScenario::new();
            for lc in (0..n_lcs).step_by(2) {
                sc = sc.at(
                    1e-3,
                    NetAction::FailComponent {
                        node: 1,
                        lc,
                        kind: ComponentKind::Sru,
                    },
                );
            }
            net.set_scenario(&sc);
            let done = net.run(7, 10e-3);
            let s = &done.stats;
            assert!(s.conserved());
            results.push(s.delivery_ratio());
        }
        let (bdr, dra) = (results[0], results[1]);
        assert!(bdr < 1.0, "BDR must lose transit packets, got {bdr}");
        assert_eq!(dra, 1.0, "DRA must cover the SRU failures");
    }

    #[test]
    fn link_cut_drops_traffic_on_that_edge() {
        let mut net = small_net(ArchKind::Bdr);
        // Flow 0 routes 0→8 via lowest-id tie-breaks; cutting 0-1 and
        // 0-3 isolates node 0 entirely.
        let sc = NetScenario::new()
            .at(1e-3, NetAction::FailLink { a: 0, b: 1 })
            .at(1e-3, NetAction::FailLink { a: 0, b: 3 });
        net.set_scenario(&sc);
        let done = net.run(7, 10e-3);
        let s = &done.stats;
        assert!(s.conserved());
        assert!(s.drops[NetDropCause::LinkDown.index()] > 0);
        assert!(
            s.flow_availability(0.99) <= 0.5,
            "flow 0 must be unavailable"
        );
    }

    #[test]
    fn scenario_precompile_resolves_ports_and_cut_then_repair_is_stable() {
        // The cut-then-repair timeline that used to run through
        // per-action `port_between` searches: the compiled actions
        // must resolve to the same (node, port) pairs the topology
        // defines, and the run must produce identical stats every
        // time (and drops only while the cable is down).
        let sc = NetScenario::new()
            .at(2e-3, NetAction::FailLink { a: 1, b: 2 })
            .at(4e-3, NetAction::RepairLink { a: 1, b: 2 });
        let run = || {
            let mut net = small_net(ArchKind::Bdr);
            net.set_scenario(&sc);
            for (c, want_up) in net.compiled.iter().zip([false, true]) {
                match *c {
                    CompiledNetAction::Cable { a, pa, b, pb, up } => {
                        assert_eq!((a, b, up), (1, 2, want_up));
                        assert_eq!(net.topo.adj[a as usize][pa as usize], b);
                        assert_eq!(net.topo.adj[b as usize][pb as usize], a);
                        assert_eq!(net.topo.rev_port[a as usize][pa as usize], pb);
                    }
                    ref other => panic!("expected a compiled cable action, got {other:?}"),
                }
            }
            let done = net.run(7, 10e-3);
            let s = &done.stats;
            assert!(s.conserved());
            (
                s.injected,
                s.delivered,
                s.drops,
                s.latency.mean(),
                s.hops.mean(),
            )
        };
        let first = run();
        assert_eq!(first, run(), "cut-then-repair must be reproducible");
        // Flow 1 (6→2) transits 1→2 under lowest-id routing: the cut
        // window drops on LinkDown, and repair restores delivery (more
        // delivered than a run where the cut never heals).
        assert!(first.2[NetDropCause::LinkDown.index()] > 0, "{first:?}");
        let mut unhealed = small_net(ArchKind::Bdr);
        unhealed.set_scenario(&NetScenario::new().at(2e-3, NetAction::FailLink { a: 1, b: 2 }));
        let unhealed = unhealed.run(7, 10e-3);
        assert!(
            first.1 > unhealed.stats.delivered,
            "repair must restore deliveries"
        );
    }

    #[test]
    fn per_node_fault_schedules_inject() {
        use dra_core::scenario::Scenario;
        let mut net = small_net(ArchKind::Bdr);
        let timeline = Scenario::new(10e-3).at(
            0.5e-3,
            Action::FailComponent(net.topo.host_port(8), ComponentKind::Lfe),
        );
        net.set_node_fault_schedule(8, &timeline);
        let done = net.run(7, 10e-3);
        let s = &done.stats;
        assert!(s.conserved());
        // Flow 0's egress host port at node 8 is dead: egress drops.
        assert!(s.drops[NetDropCause::EgressDown.index()] > 0);
    }

    #[test]
    #[should_panic(expected = "no node 9 (network has 9 nodes)")]
    fn scenario_rejects_an_unknown_node() {
        let sc = NetScenario::new().at(1e-3, NetAction::FailEib { node: 9 });
        small_net(ArchKind::Dra).set_scenario(&sc);
    }

    #[test]
    #[should_panic(expected = "node 4 has no lc 5 (5 linecards)")]
    fn scenario_rejects_an_unknown_linecard() {
        // The mesh centre has four links plus the host port.
        let sc = NetScenario::new().at(
            1e-3,
            NetAction::FailComponent {
                node: 4,
                lc: 5,
                kind: ComponentKind::Sru,
            },
        );
        small_net(ArchKind::Bdr).set_scenario(&sc);
    }

    #[test]
    #[should_panic(expected = "no node 12 (network has 9 nodes)")]
    fn node_schedule_rejects_an_unknown_node() {
        let timeline = Scenario::new(1e-2).at(1e-3, Action::FailEib);
        small_net(ArchKind::Dra).set_node_fault_schedule(12, &timeline);
    }

    #[test]
    #[should_panic(expected = "node 0 has no lc 3 (3 linecards)")]
    fn node_schedule_rejects_an_unknown_linecard() {
        // A mesh corner has two links plus the host port.
        let timeline = Scenario::new(1e-2).at(1e-3, Action::RepairLc(3));
        small_net(ArchKind::Dra).set_node_fault_schedule(0, &timeline);
    }
}
