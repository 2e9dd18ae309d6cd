//! The network engine: a [`NetworkSim`] run as one [`dra_des`] model
//! on one [`Simulation`] clock.
//!
//! Everything a packet touches at one hop belongs to one router, or is
//! read-only: its [`NodeHealth`](dra_core::health::NodeHealth), EIB
//! coverage budget and the *outgoing* directions of its links, and the
//! topology's shared forwarding state. The only
//! interaction between routers is a `Forward` → link →
//! `Transit`-at-peer handoff, which the link model charges at least
//! that link's propagation latency.
//!
//! ## One total event order
//!
//! Events run in the DES kernel's order, `(time, schedule sequence)`:
//! two events at the same `f64` instant run in the order they were
//! scheduled. Exact time ties are *structural*, not measure-zero: the
//! EIB coverage budget is a fluid queue
//! (`finish = covered_busy.max(now) + c`), so under backlog the
//! completion times it hands out chain off `covered_busy` in fixed
//! increments, and the link model serializes `busy_until` the same
//! way. Because both are *stateful*, the order of
//! tied events decides which packet gets which delay. The schedule
//! sequence is a pure function of the inputs and the seed, so one seed
//! gives one history; the engine tests pin that history's statistics,
//! Welford bits included, on inputs chosen to be tie-heavy.
//!
//! ## Arrivals
//!
//! The only RNG draws are flow inter-arrival times, on the
//! simulation's own seeded RNG. `Start` schedules the fault actions
//! (below) and draws each flow's first arrival; each `Arrival` pop
//! injects one packet and draws that flow's next. The model keeps
//! every flow's next arrival time and queues only the earliest (ties
//! in draw order), so arrivals pop in the order one queued event per
//! flow would give them. A calendar holding one arrival instead of one per
//! flow is measurably faster (DESIGN.md §3.3 has the numbers).
//!
//! ## Faults
//!
//! Every fault is one action of the network's scenario: scripted
//! router and cable faults and sampled renewal timelines alike. `Start`
//! schedules one `Act` per action before it draws any arrival, so an
//! action at time `t` applies before every packet event at `t`, and
//! actions tied in time apply in scenario order (a stable time sort, so
//! each router keeps its own timeline's tie order). Only transits read
//! router health, so a transit at `now` sees exactly the actions with
//! `at ≤ now` applied.
//!
//! ## Ledger
//!
//! Deliveries feed the latency/hops Welford moments in processing
//! order. `in_flight` is *counted*, not derived: the packet-carrying
//! events still queued at the horizon. A packet lost or
//! double-counted anywhere breaks [`NetStats::conserved`], and the
//! run freezes the flight recorder when it does.
//!
//! ## Telemetry
//!
//! [`Simulation`] stamps the telemetry hub's clock with each event's
//! time before its handler runs, so every flight-recorder event, and
//! an `anomaly` a conservation failure freezes, carries the time of
//! the event that recorded it.

use crate::link::LinkOffer;
use crate::net::{hop, CompiledNetAction, HopOutcome, NetPacket, NetworkSim};
use crate::stats::{NetDropCause, NetStats};
use dra_des::random::exponential;
use dra_des::sim::{Ctx, Model, Simulation};
use dra_telemetry::{EngineProfile, EventKind};
use std::time::Instant;

/// The event alphabet of a network run. `node` is the router the event
/// happens at.
#[derive(Debug, Clone)]
enum NetEvent {
    /// Schedule every scenario action and every flow's first arrival.
    Start,
    /// The next arrival, of `flow`.
    Arrival { flow: u32 },
    /// A packet begins transit at `node`, having arrived on `in_port`.
    Transit {
        pkt: NetPacket,
        node: u32,
        in_port: u16,
    },
    /// A packet cleared `node`'s transit and enters the link at
    /// `out_port`.
    Forward {
        pkt: NetPacket,
        node: u32,
        out_port: u16,
    },
    /// A packet reaches its destination's host port at `node`.
    Deliver { pkt: NetPacket, node: u32 },
    /// Apply network scenario action `idx`.
    Act { idx: u32 },
}

// The hot-path variants stay within 32 bytes (24-byte packet + router
// + port + discriminant).
const _: () = assert!(std::mem::size_of::<NetEvent>() <= 32);

impl NetEvent {
    /// Does the event carry a packet (one the ledger counts in flight)?
    fn carries_packet(&self) -> bool {
        matches!(
            self,
            NetEvent::Transit { .. } | NetEvent::Forward { .. } | NetEvent::Deliver { .. }
        )
    }
}

/// The run's packet accounting.
#[derive(Debug)]
struct Ledger {
    /// Injections, deliveries (counters and Welford streams) and
    /// drops. `in_flight` stays 0 until [`Ledger::settle`] counts it.
    stats: NetStats,
    /// Packets in events still queued when the run ended.
    pending: u64,
}

impl Ledger {
    fn new(n_flows: usize) -> Ledger {
        Ledger {
            stats: NetStats::new(n_flows),
            pending: 0,
        }
    }

    /// Close the books: `in_flight` is what is still pending. A ledger
    /// that lost or double-counted a packet fails
    /// [`NetStats::conserved`], which freezes the flight-recorder
    /// window (first violation wins; the frozen window becomes the
    /// telemetry document's `anomaly`).
    fn settle(self) -> NetStats {
        let mut stats = self.stats;
        stats.in_flight = self.pending;
        if !stats.conserved() {
            dra_telemetry::anomaly("net: conservation ledger violation");
        }
        stats
    }
}

/// A network under the engine.
struct NetModel {
    net: NetworkSim,
    ledger: Ledger,
    /// Per flow, `(time, draw)` of its next arrival: `time` is
    /// infinite once the flow has ended, and `draw` numbers the
    /// inter-arrival draws, ordering flows whose arrivals tie.
    next_arrival: Vec<(f64, u64)>,
    /// Inter-arrival draws so far.
    draws: u64,
}

impl NetModel {
    /// Draw `flow`'s next arrival after `now`.
    fn draw_arrival(&mut self, flow: usize, now: f64, ctx: &mut Ctx<'_, NetEvent>) {
        let dt = exponential(ctx.rng(), self.net.flows[flow].rate_pps);
        self.next_arrival[flow] = (now + dt, self.draws);
        self.draws += 1;
    }

    /// Queue the earliest next arrival over all flows, if any flow is
    /// still live.
    fn queue_arrival(&self, ctx: &mut Ctx<'_, NetEvent>) {
        let earliest = self
            .next_arrival
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        if let Some((flow, &(at, _))) = earliest.filter(|(_, a)| a.0.is_finite()) {
            ctx.schedule_at(at, NetEvent::Arrival { flow: flow as u32 });
        }
    }

    /// Terminate a packet dropped at `node`.
    fn drop_at(&mut self, packet: u64, node: u32, cause: NetDropCause) {
        dra_telemetry::event(EventKind::NetDrop, packet, node, cause.index() as u32);
        self.ledger.stats.drops[cause.index()] += 1;
    }

    /// One router transit: health checks, forwarding lookup, coverage charge;
    /// schedules `Deliver` or `Forward`, or drops.
    fn transit(
        &mut self,
        mut pkt: NetPacket,
        node: u32,
        in_port: u16,
        ctx: &mut Ctx<'_, NetEvent>,
    ) {
        dra_telemetry::event(EventKind::NetTransit, pkt.id, node, in_port as u32);
        let now = ctx.now();
        let i = node as usize;
        let net = &mut self.net;
        let outcome = hop(
            node,
            &net.nodes[i],
            &net.forwarding,
            &mut net.covered_busy[i],
            &net.cfg,
            now,
            &mut pkt,
            in_port,
        );
        if let Some(t) = net.tele.as_deref_mut() {
            let node_transit_s = net.cfg.node_transit_s;
            t.col
                .transit_outcome(&mut t.nodes[i], now, node, &pkt, &outcome, node_transit_s);
        }
        match outcome {
            HopOutcome::Drop(cause) => self.drop_at(pkt.id, node, cause),
            HopOutcome::Deliver { delay_s } => {
                ctx.schedule(delay_s, NetEvent::Deliver { pkt, node })
            }
            HopOutcome::Forward { delay_s, out_port } => ctx.schedule(
                delay_s,
                NetEvent::Forward {
                    pkt,
                    node,
                    out_port,
                },
            ),
        }
    }

    /// Offer a packet to `node`'s link at `out_port`; hand it to the
    /// peer or drop it.
    fn forward(&mut self, pkt: NetPacket, node: u32, out_port: u16, ctx: &mut Ctx<'_, NetEvent>) {
        let now = ctx.now();
        let net = &mut self.net;
        let offer =
            net.links
                .at_mut(node, out_port)
                .offer(&net.cfg.link, now, net.cfg.packet_bytes);
        if let Some(t) = net.tele.as_deref_mut() {
            t.col.forward_outcome(
                &mut t.nodes[node as usize],
                now,
                node,
                out_port,
                &pkt,
                &offer,
            );
        }
        let delay_s = match offer {
            LinkOffer::Down => return self.drop_at(pkt.id, node, NetDropCause::LinkDown),
            LinkOffer::Congested => return self.drop_at(pkt.id, node, NetDropCause::LinkCongested),
            LinkOffer::Sent { delay_s } => delay_s,
        };
        dra_telemetry::event(EventKind::NetForward, pkt.id, node, out_port as u32);
        let peer = net.topo.adj[node as usize][out_port as usize];
        let in_port = net.topo.rev_port[node as usize][out_port as usize];
        ctx.schedule(
            delay_s,
            NetEvent::Transit {
                pkt,
                node: peer,
                in_port,
            },
        );
    }

    /// A packet reaches its destination's host port at `node`.
    fn deliver(&mut self, now: f64, pkt: NetPacket, node: u32) {
        dra_telemetry::event(EventKind::NetDeliver, pkt.id, node, pkt.hops as u32);
        if let Some(t) = self.net.tele.as_deref_mut() {
            t.col
                .delivered(&mut t.nodes[node as usize], now, node, &pkt);
        }
        let s = &mut self.ledger.stats;
        s.delivered += 1;
        s.flow_delivered[pkt.flow as usize] += 1;
        s.latency.push(now - pkt.injected_at);
        s.hops.push(pkt.hops as f64);
    }

    /// Apply scenario action `idx`; a cable action touches both of its
    /// endpoints.
    fn act(&mut self, idx: u32) {
        let net = &mut self.net;
        let mark = |node: u32| dra_telemetry::event(EventKind::NetAct, 0, node, idx);
        match &net.compiled[idx as usize] {
            CompiledNetAction::Router { node, action } => {
                mark(*node);
                net.nodes[*node as usize].apply(action);
            }
            &CompiledNetAction::Cable { a, pa, b, pb, up } => {
                mark(a);
                net.links.at_mut(a, pa).set_up(up);
                mark(b);
                net.links.at_mut(b, pb).set_up(up);
            }
        }
    }
}

impl Model for NetModel {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, ctx: &mut Ctx<'_, NetEvent>) {
        match event {
            NetEvent::Start => {
                for (idx, &(at, _)) in self.net.scenario.iter().enumerate() {
                    ctx.schedule_at(at, NetEvent::Act { idx: idx as u32 });
                }
                for flow in 0..self.net.flows.len() {
                    self.draw_arrival(flow, 0.0, ctx);
                }
                self.queue_arrival(ctx);
            }
            NetEvent::Arrival { flow } => {
                let now = ctx.now();
                if now >= self.net.cfg.traffic_stop_s {
                    // Injection window closed: the flow ends.
                    self.next_arrival[flow as usize].0 = f64::INFINITY;
                    return self.queue_arrival(ctx);
                }
                self.draw_arrival(flow as usize, now, ctx);
                self.queue_arrival(ctx);
                let f = self.net.flows[flow as usize];
                let s = &mut self.ledger.stats;
                let pkt = NetPacket {
                    id: s.injected,
                    injected_at: now,
                    flow,
                    dst: f.dst as u16,
                    ttl: self.net.forwarding.hop_budget(),
                    hops: 0,
                };
                s.injected += 1;
                s.flow_injected[flow as usize] += 1;
                let host = self.net.topo.host_port(f.src);
                self.transit(pkt, f.src, host, ctx);
            }
            NetEvent::Transit { pkt, node, in_port } => self.transit(pkt, node, in_port, ctx),
            NetEvent::Forward {
                pkt,
                node,
                out_port,
            } => self.forward(pkt, node, out_port, ctx),
            NetEvent::Deliver { pkt, node } => self.deliver(ctx.now(), pkt, node),
            NetEvent::Act { idx } => self.act(idx),
        }
    }
}

/// A network bound to a seed on its [`Simulation`] (see
/// [`NetworkSim::simulation`]).
pub struct NetRun {
    sim: Simulation<NetModel>,
    /// Wall-clock spent in [`NetRun::run_until`].
    wall_ns: u64,
}

impl NetRun {
    pub(crate) fn new(net: NetworkSim, seed: u64) -> NetRun {
        let n_flows = net.flows.len();
        let model = NetModel {
            net,
            ledger: Ledger::new(n_flows),
            next_arrival: vec![(f64::INFINITY, 0); n_flows],
            draws: 0,
        };
        let mut sim = Simulation::new(model, seed);
        sim.schedule(0.0, NetEvent::Start);
        NetRun { sim, wall_ns: 0 }
    }

    /// Process every event up to and including `horizon`; a later call
    /// with a later horizon resumes the run.
    ///
    /// # Panics
    /// Panics on a non-finite horizon or one before the current time.
    pub fn run_until(&mut self, horizon: f64) {
        let start = Instant::now();
        self.sim.run_until(horizon);
        self.wall_ns += start.elapsed().as_nanos() as u64;
    }

    /// Events processed so far (see [`NetworkSim::events_processed`]).
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The network with its books closed: `in_flight` counted from the
    /// packet-carrying events still queued, and, with a collector
    /// installed, the run's engine profile.
    pub fn into_model(self) -> NetworkSim {
        let mut pending = 0;
        self.sim
            .for_each_pending(|e| pending += u64::from(e.carries_packet()));
        let events = self.sim.events_processed();
        let NetModel {
            mut net,
            mut ledger,
            ..
        } = self.sim.into_model();
        ledger.pending = pending;
        net.stats = ledger.settle();
        net.events = events;
        if let Some(t) = net.tele.as_deref_mut() {
            t.profile = Some(EngineProfile {
                runs: 1,
                wall_ns: self.wall_ns,
                events,
            });
        }
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::build_network;
    use crate::link::LinkConfig;
    use crate::net::{Flow, NetAction, NetConfig, NetScenario};
    use crate::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
    use crate::topology::{Topology, TopologyKind};
    use dra_campaign::seed::{derive_seed, Stream};
    use dra_core::health::ArchKind;
    use dra_telemetry::SpanKind;

    /// FNV-1a over every `NetStats` field, Welford bits included.
    fn digest(s: &NetStats) -> u64 {
        let mut words = vec![s.injected, s.delivered, s.in_flight];
        words.extend(s.drops);
        words.extend(&s.flow_injected);
        words.extend(&s.flow_delivered);
        for w in [&s.latency, &s.hops] {
            words.push(w.count());
            words.extend([w.mean(), w.variance(), w.min(), w.max()].map(f64::to_bits));
        }
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The fault surfaces the grid cases cover.
    #[derive(Debug, Clone, Copy)]
    enum Faults {
        None,
        Routers,
        Links,
        Renewal,
        CutThenRepair,
    }

    const TOPOLOGIES: [TopologyKind; 2] = [
        TopologyKind::Mesh2D { rows: 4, cols: 4 },
        TopologyKind::FatTree { k: 4 },
    ];
    const ARCHS: [ArchKind; 2] = [ArchKind::Bdr, ArchKind::Dra];
    const FAULTS: [Faults; 5] = [
        Faults::None,
        Faults::Routers,
        Faults::Links,
        Faults::Renewal,
        Faults::CutThenRepair,
    ];
    const HORIZON: f64 = 10e-3;

    /// Case `i` of {mesh, fat-tree} × {BDR, DRA} × the five surfaces,
    /// built through the sweep's own construction path.
    fn case(i: usize) -> (NetworkSim, String) {
        let topology = TOPOLOGIES[i / 10];
        let arch = ARCHS[i / 5 % 2];
        let faults = FAULTS[i % 5];
        let spec = match faults {
            Faults::None | Faults::CutThenRepair => TopoFaultSpec::None,
            Faults::Routers => TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
            Faults::Links => TopoFaultSpec::FailLinks { k: 3, at_s: 2e-3 },
            // ~100 compressed fault-hours with hot-swap repair: every
            // router's sampled timeline, applied as scenario actions.
            Faults::Renewal => TopoFaultSpec::Renewal {
                delay_scale: 1e-4,
                repair_h: 10.0,
            },
        };
        let cell = TopoCellSpec {
            id: "grid".into(),
            arch,
            topology,
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 8,
                rate_pps: 20_000.0,
                packet_bytes: 700,
            },
            faults: spec,
            horizon_s: HORIZON,
            drain_s: 2.5e-3,
            replications: 1,
            seed_group: 0,
        };
        let mut net = build_network(&cell, 0xD8A_70B0, 0);
        if let Faults::CutThenRepair = faults {
            // The repaired directions must come back with a clean
            // backlog (the `set_up` contract).
            let b = net.topo.adj[0][0];
            net.set_scenario(
                &NetScenario::new()
                    .at(2e-3, NetAction::FailLink { a: 0, b })
                    .at(5e-3, NetAction::RepairLink { a: 0, b }),
            );
        }
        (net, format!("{arch:?}/{}/{faults:?}", topology.label()))
    }

    /// A 4×4 mesh with one slow WAN-ish edge, one extra-fast edge and a
    /// mid-run cut of the fast one.
    fn heterogeneous_latencies() -> NetworkSim {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
        let cfg = NetConfig {
            traffic_stop_s: 7.5e-3,
            ..NetConfig::default()
        };
        let flow = |src, dst, rate_pps| Flow { src, dst, rate_pps };
        let flows = vec![
            flow(0, 15, 40_000.0),
            flow(12, 3, 40_000.0),
            flow(5, 10, 20_000.0),
        ];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows);
        net.set_link_latency(5, 6, 80e-6);
        net.set_link_latency(9, 10, 2e-6);
        net.set_scenario(&NetScenario::new().at(3e-3, NetAction::FailLink { a: 9, b: 10 }));
        net
    }

    /// A DRA cell on `topology` with 4 failed routers and real traffic
    /// volume.
    fn loaded(topology: TopologyKind) -> NetworkSim {
        let cell = TopoCellSpec {
            id: "loaded".into(),
            arch: ArchKind::Dra,
            topology,
            link: LinkConfig::default(),
            flows: FlowSpec {
                n_flows: 24,
                rate_pps: 40_000.0,
                packet_bytes: 700,
            },
            faults: TopoFaultSpec::FailRouters { k: 4, at_s: 2e-3 },
            horizon_s: 8e-3,
            drain_s: 2e-3,
            replications: 1,
            seed_group: 3,
        };
        build_network(&cell, 0xD8A_70B0, 0)
    }

    /// Inputs beyond the grid, as `(label, network, seed, horizon)`:
    /// per-link latencies (traffic across the slow edge lands long
    /// after the fast one's), 64 routers, a Barabási–Albert graph whose
    /// hubs pile up coverage ties, and both replications of a committed
    /// resilience cell, loaded enough that deliveries tie at different
    /// routers, so the tie order decides the Welford bits.
    fn extra(i: usize) -> (String, NetworkSim, u64, f64) {
        match i {
            0 => (
                "heterogeneous latencies".into(),
                heterogeneous_latencies(),
                11,
                HORIZON,
            ),
            1 => (
                "mesh-8x8".into(),
                loaded(TopologyKind::Mesh2D { rows: 8, cols: 8 }),
                42,
                8e-3,
            ),
            2 => (
                "ba-128".into(),
                loaded(TopologyKind::BarabasiAlbert {
                    n: 128,
                    m: 2,
                    seed: 11,
                }),
                42,
                8e-3,
            ),
            _ => {
                let rep = (i - 3) as u32;
                let spec = crate::registry::resilience(false);
                let cell = spec
                    .cells
                    .iter()
                    .find(|c| c.id == "bdr/fat-tree-k4/healthy")
                    .expect("committed resilience cell");
                let seed = derive_seed(
                    spec.master_seed,
                    cell.seed_group,
                    rep as u64,
                    Stream::Simulation,
                );
                (
                    format!("resilience {} rep {rep}", cell.id),
                    build_network(cell, spec.master_seed, rep),
                    seed,
                    cell.horizon_s,
                )
            }
        }
    }

    /// [`digest`] of each [`case`] run to `HORIZON` on seed 42, in case
    /// order, as the previous engine computed them (that engine was
    /// pinned in turn against a serial `dra_des` model).
    const GRID_DIGESTS: [u64; 20] = [
        0x8dc8_9460_dc78_69d9,
        0x7aaa_eae8_2621_247d,
        0xb6b0_706f_ed73_b033,
        0x0e4c_bbbb_5fee_70b3,
        0xa496_3430_9f52_1f5c,
        0x8dc8_9460_dc78_69d9,
        0x23d1_67da_4440_5ad9,
        0xb6b0_706f_ed73_b033,
        0x0448_e148_a71e_3d1c,
        0xa496_3430_9f52_1f5c,
        0xb7e6_5a11_0c00_d0d9,
        0xb1fb_32d8_f0be_f8ea,
        0x6ea8_a5d9_d780_30fc,
        0x5848_2ebe_3860_03b9,
        0xc5d8_aa30_4efe_7cf4,
        0xb7e6_5a11_0c00_d0d9,
        0xd2d3_bd1b_2049_b962,
        0x6ea8_a5d9_d780_30fc,
        0x9635_9e9f_08a8_85a4,
        0xc5d8_aa30_4efe_7cf4,
    ];

    /// [`digest`] of each [`extra`] input, pinned the same way.
    const EXTRA_DIGESTS: [u64; 5] = [
        0xc96c_4b63_11d0_797a,
        0x9d6b_50e9_df2d_2c6c,
        0xe67c_0182_1818_3440,
        0x6554_acf9_22af_cedb,
        0x0c10_020e_06e3_c9f9,
    ];

    #[test]
    fn engine_matches_pinned_digests() {
        for (i, want) in GRID_DIGESTS.into_iter().enumerate() {
            let (net, ctx) = case(i);
            let stats = net.run(42, HORIZON).stats;
            assert!(stats.injected > 0, "{ctx}: degenerate case");
            assert!(stats.conserved(), "{ctx}: conservation");
            assert_eq!(digest(&stats), want, "{ctx}: {stats:?}");
        }
        for (i, want) in EXTRA_DIGESTS.into_iter().enumerate() {
            let (ctx, net, seed, horizon) = extra(i);
            let stats = net.run(seed, horizon).stats;
            assert!(stats.delivered > 100, "{ctx}: want real traffic");
            assert!(stats.conserved(), "{ctx}: conservation");
            assert_eq!(digest(&stats), want, "{ctx}: {stats:?}");
        }
    }

    #[test]
    fn in_flight_is_counted_not_derived() {
        // A horizon inside the traffic window leaves packets pending:
        // the engine counts them from its queue.
        let (net, _) = case(1);
        let stats = net.run(42, 3e-3).stats;
        assert_eq!(stats.in_flight, 6, "packets pending at the horizon");
        assert!(stats.conserved());
        assert_eq!(digest(&stats), 0xd7a7_8176_a495_e6ee, "{stats:?}");
    }

    #[test]
    fn a_run_resumes_at_a_later_horizon() {
        // Two horizons on one handle are one run: the queue, clock and
        // RNG carry over.
        let (net, _) = case(4);
        let mut run = net.simulation(42);
        run.run_until(4e-3);
        let part = run.events_processed();
        run.run_until(HORIZON);
        assert!(0 < part && part < run.events_processed());
        let stats = run.into_model().stats;
        assert_eq!(digest(&stats), GRID_DIGESTS[4], "{stats:?}");
    }

    #[test]
    fn ring_events_and_anomaly_carry_event_time() {
        // The time of the run's last event, from an identical run
        // stepped by hand with the hub off.
        let mut twin = heterogeneous_latencies().simulation(11);
        let mut last_event = 0.0;
        while let Some(t) = twin.sim.step().filter(|&t| t <= HORIZON) {
            last_event = t;
        }
        dra_telemetry::enable(dra_telemetry::Config {
            ring_capacity: 1 << 16,
            ..dra_telemetry::Config::default()
        });
        let mut net = heterogeneous_latencies();
        net.enable_net_telemetry(1);
        let mut run = net.simulation(11);
        run.run_until(HORIZON);
        // Lose one delivery from the books: settling must freeze the
        // flight recorder at the last event's time.
        run.sim.model_mut().ledger.stats.delivered -= 1;
        let mut net = run.into_model();
        assert!(!net.stats.conserved());
        let doc = dra_telemetry::snapshot().expect("hub armed");
        dra_telemetry::disable();
        let anomaly = doc.anomaly.expect("conservation failure froze the ring");
        let ring = doc.router.expect("the run drove the DES counters");
        assert_eq!(
            ring.ring_appended,
            anomaly.events.len() as u64,
            "the window holds the whole run"
        );
        let report = net.export_net_telemetry(HORIZON, 0, 0).expect("collector");
        let spans = report.snapshot.network.expect("network scope").spans;
        let span_at = |packet: u64, node: u32, t: f64, kinds: &[SpanKind]| {
            spans.iter().any(|s| {
                s.packet == packet && s.node == node && s.t0 == t && kinds.contains(&s.kind)
            })
        };
        let mut last = 0.0;
        for e in &anomaly.events {
            assert!(e.t > 0.0 && e.t >= last, "{e:?} after t = {last}");
            last = e.t;
            let at_handler = match e.kind {
                // A transit that drops records a drop span instead.
                EventKind::NetTransit => {
                    span_at(e.packet, e.a, e.t, &[SpanKind::Transit, SpanKind::Drop])
                }
                EventKind::NetForward => span_at(e.packet, e.a, e.t, &[SpanKind::Link]),
                EventKind::NetDeliver => span_at(e.packet, e.a, e.t, &[SpanKind::Deliver]),
                EventKind::NetDrop => span_at(e.packet, e.a, e.t, &[SpanKind::Drop]),
                EventKind::NetAct => net.scenario()[e.b as usize].0 == e.t,
                _ => false,
            };
            assert!(at_handler, "{e:?} is not stamped with its handler's time");
        }
        let acts = anomaly
            .events
            .iter()
            .filter(|e| e.kind == EventKind::NetAct);
        assert_eq!(acts.count(), 2, "a cable cut marks both endpoints");
        assert!(last_event > 0.0 && last_event >= last);
        assert_eq!(
            anomaly.t, last_event,
            "the anomaly is stamped when the books close"
        );
    }

    #[test]
    fn a_miscounted_ledger_fails_conservation() {
        let ledger = |injected, drops, pending| {
            let mut l = Ledger::new(1);
            l.stats.injected = injected;
            l.stats.flow_injected[0] = injected;
            l.stats.drops[NetDropCause::LinkDown.index()] = drops;
            l.pending = pending;
            l
        };
        // 4 injected: 1 dropped, 3 still queued.
        let settled = ledger(4, 1, 3).settle();
        assert!(settled.conserved());
        assert_eq!(settled.in_flight, 3);
        // A packet lost (neither terminated nor queued).
        assert!(!ledger(4, 1, 2).settle().conserved());
        // A packet counted twice (dropped and still queued).
        assert!(!ledger(4, 2, 3).settle().conserved());
    }
}
