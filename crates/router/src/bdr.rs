//! The BDR (basic distributed router) packet-level model — the
//! baseline DRA is compared against.
//!
//! Pipeline per packet (Figure 1 of the paper): ingress PIU → (BDR's
//! fused protocol logic) → SRU segmentation + LFE lookup → crossbar
//! fabric as cells → egress SRU reassembly → egress PIU → wire. The
//! shared [`Chassis`] runs the arrivals, the fabric and the reassembly
//! purge; this module adds BDR's admission rule and egress.
//!
//! BDR's defining dependability property: **any** component failure on
//! a linecard takes all of that linecard's ports offline until the card
//! is replaced. Ingress traffic at a failed card and traffic destined
//! to it are dropped and counted.

use crate::chassis::{Chassis, ChassisEvent};
use crate::components::ComponentKind;
use crate::metrics::DropCause;
use dra_des::{Ctx, Model, Simulation};
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::packet::{Packet, PacketId, PacketMap};
use dra_net::protocol::ProtocolKind;
use std::ops::{Deref, DerefMut};

/// Configuration for a BDR simulation.
#[derive(Debug, Clone)]
pub struct BdrConfig {
    /// Number of linecards.
    pub n_lcs: usize,
    /// Protocol per linecard; cycled if shorter than `n_lcs`.
    pub protocols: Vec<ProtocolKind>,
    /// Port line rate (bits/second). The paper uses 10 Gbps cards.
    pub port_rate_bps: f64,
    /// Offered load as a fraction of the port rate (the paper's `L`).
    pub load: f64,
    /// Cells per virtual output queue.
    pub voq_capacity: usize,
    /// iSLIP iterations per fabric slot.
    pub islip_iterations: usize,
    /// Total switching planes.
    pub fabric_planes_total: usize,
    /// Planes needed for full capacity.
    pub fabric_planes_required: usize,
    /// Fabric speedup relative to the line rate (≥ 1).
    pub fabric_speedup: f64,
    /// External ports per linecard (each behind its own PIU; a PIU
    /// failure disconnects one port's share of the traffic).
    pub ports_per_lc: u16,
    /// Reassembly timeout (seconds).
    pub reassembly_timeout_s: f64,
    /// Stop drawing new arrivals at this sim-time (`None` = never).
    /// Running the simulation past the stop drains the pipeline, so
    /// every offered packet resolves to delivered-or-dropped and the
    /// conservation invariant `offered == delivered + Σ drops` holds
    /// exactly.
    pub arrival_stop_s: Option<f64>,
}

impl Default for BdrConfig {
    fn default() -> Self {
        BdrConfig {
            n_lcs: 6,
            protocols: vec![ProtocolKind::Ethernet],
            port_rate_bps: 10e9,
            load: 0.15,
            voq_capacity: 1024,
            islip_iterations: 2,
            fabric_planes_total: 5,
            fabric_planes_required: 4,
            fabric_speedup: 2.0,
            ports_per_lc: 1,
            reassembly_timeout_s: 10e-3,
            arrival_stop_s: None,
        }
    }
}

impl BdrConfig {
    /// The protocol assigned to linecard `lc`.
    pub fn protocol_of(&self, lc: usize) -> ProtocolKind {
        self.protocols[lc % self.protocols.len()]
    }

    /// The `/16` prefix owned by (routed to) linecard `lc`.
    pub(crate) fn prefix_of(lc: usize) -> Ipv4Prefix {
        Ipv4Prefix::new(Ipv4Addr::from_octets(10, lc as u8, 0, 0), 16)
    }

    /// A destination base address inside `lc`'s prefix.
    pub fn dst_base_of(lc: usize) -> Ipv4Addr {
        Ipv4Addr::from_octets(10, lc as u8, 0, 0)
    }
}

/// Events driving the BDR model.
#[derive(Debug)]
pub enum BdrEvent {
    /// Kick-off, arrivals, fabric slots and the purge timer.
    Chassis(ChassisEvent),
    /// Ingress pipeline finished; cells are ready for the fabric.
    IngressDone {
        /// Ingress linecard.
        lc: u16,
        /// The packet being switched.
        packet: Packet,
        /// Egress linecard chosen by the LFE.
        egress: u16,
    },
    /// Egress pipeline finished; the packet leaves the router.
    EgressDone {
        /// Egress linecard.
        lc: u16,
        /// IP bytes delivered.
        ip_bytes: u32,
        /// Ingress timestamp, for latency accounting.
        arrived_at: f64,
        /// The delivered packet (telemetry lifecycle tracking).
        packet: PacketId,
        /// Ingress linecard, for ingress-attributed delivery
        /// accounting (conservation invariant).
        ingress: u16,
    },
}

impl From<ChassisEvent> for BdrEvent {
    fn from(event: ChassisEvent) -> Self {
        BdrEvent::Chassis(event)
    }
}

/// Metadata for a packet inside the fabric.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    arrived_at: f64,
    ingress: u16,
}

/// The BDR router model: a [`Chassis`] (which it dereferences to) plus
/// BDR's admission and egress. Drive it with [`dra_des::Simulation`]
/// or the convenience constructor [`BdrRouter::simulation`].
#[derive(Debug)]
pub struct BdrRouter {
    chassis: Chassis,
    in_flight: PacketMap<InFlight>,
}

impl Deref for BdrRouter {
    type Target = Chassis;

    fn deref(&self) -> &Chassis {
        &self.chassis
    }
}

impl DerefMut for BdrRouter {
    fn deref_mut(&mut self) -> &mut Chassis {
        &mut self.chassis
    }
}

impl BdrRouter {
    /// Build a router (linecards, forwarding table, generators) from `config`.
    /// `seed` feeds the per-LC traffic RNG streams (the simulation's
    /// own RNG, seeded separately, covers arbitration and PIU coins).
    pub fn new(config: BdrConfig, seed: u64) -> Self {
        BdrRouter {
            chassis: Chassis::new(config, seed),
            in_flight: PacketMap::default(),
        }
    }

    /// Wrap the router in a seeded simulation with the start event
    /// queued at t = 0.
    pub fn simulation(config: BdrConfig, seed: u64) -> Simulation<BdrRouter> {
        let mut sim = Simulation::new(BdrRouter::new(config, seed), seed);
        sim.schedule(0.0, ChassisEvent::Start.into());
        sim
    }

    /// Fail a component immediately (deterministic fault scripting).
    /// A PIU failure takes down *one port*; the aggregate PIU health
    /// reads failed only when every port is gone.
    pub fn fail_component_now(&mut self, lc: u16, kind: ComponentKind, now: f64) {
        self.chassis.linecards[lc as usize].health.fail(kind);
        self.refresh_availability(lc, now);
    }

    /// Repair a linecard immediately (deterministic fault scripting).
    pub fn repair_lc_now(&mut self, lc: u16, now: f64) {
        self.chassis.linecards[lc as usize].health.repair_all();
        self.refresh_availability(lc, now);
    }

    fn refresh_availability(&mut self, lc: u16, now: f64) {
        let up = if self.chassis.lc_operational(lc) {
            1.0
        } else {
            0.0
        };
        self.chassis.metrics.lcs[lc as usize]
            .availability
            .update(now, up);
    }

    /// BDR's admission rule, in this order: the ingress card is
    /// operational, the packet's ingress port is up (PIU coin), it has
    /// a route, the egress card is operational and its port up (PIU
    /// coin), and the fabric runs. The coins draw from the simulation
    /// RNG only while ports are down.
    fn admit(
        &self,
        lc: u16,
        route: Option<u16>,
        ctx: &mut Ctx<'_, BdrEvent>,
    ) -> Result<u16, DropCause> {
        let ch = &self.chassis;
        if !ch.lc_operational(lc) || ch.port_down(lc, ctx.rng()) {
            return Err(DropCause::IngressDown);
        }
        let egress = route.ok_or(DropCause::NoRoute)?;
        if !ch.lc_operational(egress) || ch.port_down(egress, ctx.rng()) {
            return Err(DropCause::EgressDown);
        }
        if !ch.fabric.operational() {
            return Err(DropCause::FabricDown);
        }
        Ok(egress)
    }

    fn handle_arrival(&mut self, lc: u16, ctx: &mut Ctx<'_, BdrEvent>) {
        let (packet, route) = self.chassis.arrive(lc, ctx);
        match self.admit(lc, route, ctx) {
            Ok(egress) => {
                // The ingress pipeline's end is this handler's last
                // schedule call: run it inline when nothing comes first.
                let delay = self.chassis.linecards[lc as usize].ingress_delay(&packet);
                if ctx.try_advance(ctx.now() + delay) {
                    self.handle_ingress_done(lc, packet, egress, ctx);
                } else {
                    ctx.schedule(delay, BdrEvent::IngressDone { lc, packet, egress });
                }
            }
            Err(cause) => self.chassis.drop_packet(packet.id, lc, cause),
        }
    }

    fn handle_ingress_done(
        &mut self,
        lc: u16,
        packet: Packet,
        egress: u16,
        ctx: &mut Ctx<'_, BdrEvent>,
    ) {
        if self.chassis.enqueue(&packet, lc, egress, lc, ctx) {
            self.in_flight.insert(
                packet.id,
                InFlight {
                    arrived_at: packet.arrived_at,
                    ingress: lc,
                },
            );
        }
    }

    fn handle_fabric_slot(&mut self, ctx: &mut Ctx<'_, BdrEvent>) {
        let in_flight = &mut self.in_flight;
        self.chassis
            .fabric_slot(ctx, |chassis, ctx, egress, packet, ip_bytes| {
                let Some(meta) = in_flight.remove(&packet) else {
                    return; // stranded overflow remnant
                };
                if !chassis.lc_operational(egress) {
                    chassis.drop_packet(packet, meta.ingress, DropCause::EgressDown);
                    return;
                }
                let delay = chassis.linecards[egress as usize].egress_delay(ip_bytes);
                ctx.schedule(
                    delay,
                    BdrEvent::EgressDone {
                        lc: egress,
                        ip_bytes,
                        arrived_at: meta.arrived_at,
                        packet,
                        ingress: meta.ingress,
                    },
                );
            });
    }
}

impl Model for BdrRouter {
    type Event = BdrEvent;

    fn handle(&mut self, event: BdrEvent, ctx: &mut Ctx<'_, BdrEvent>) {
        match event {
            BdrEvent::Chassis(ChassisEvent::Start) => self.chassis.start(ctx),
            BdrEvent::Chassis(ChassisEvent::Arrival { lc }) => self.handle_arrival(lc, ctx),
            BdrEvent::Chassis(ChassisEvent::FabricSlot) => self.handle_fabric_slot(ctx),
            BdrEvent::Chassis(ChassisEvent::PurgeReassembly) => {
                let in_flight = &mut self.in_flight;
                self.chassis.purge(ctx, |packet| {
                    in_flight.remove(&packet).map(|meta| meta.ingress)
                });
            }
            BdrEvent::IngressDone { lc, packet, egress } => {
                self.handle_ingress_done(lc, packet, egress, ctx)
            }
            BdrEvent::EgressDone {
                lc,
                ip_bytes,
                arrived_at,
                packet,
                ingress,
            } => {
                let latency = ctx.now() - arrived_at;
                self.chassis.deliver(lc, ingress, packet, ip_bytes, latency);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(load: f64) -> BdrConfig {
        BdrConfig {
            n_lcs: 4,
            load,
            ..BdrConfig::default()
        }
    }

    #[test]
    fn healthy_router_delivers_nearly_everything() {
        let mut sim = BdrRouter::simulation(small_config(0.3), 42);
        sim.run_until(5e-3);
        let m = &sim.model().metrics;
        let offered = m.total_offered_bytes();
        assert!(offered > 0, "no traffic generated");
        let ratio = m.byte_delivery_ratio();
        // In-flight packets at the horizon keep this slightly below 1.
        assert!(ratio > 0.98, "delivery ratio {ratio}");
        for cause in DropCause::ALL {
            assert_eq!(m.total_drops(cause), 0, "unexpected drops: {cause}");
        }
    }

    #[test]
    fn latency_is_sane() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 1);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        for lc in &m.lcs {
            if lc.latency.count() > 0 {
                // A 10G router moves a packet in microseconds.
                assert!(lc.latency.mean() > 0.0);
                assert!(lc.latency.mean() < 100e-6, "mean {}", lc.latency.mean());
            }
        }
    }

    #[test]
    fn failed_ingress_lc_drops_its_traffic() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        assert!(
            m.lcs[0].drops(DropCause::IngressDown) > 0,
            "LC0 should drop its ingress traffic after LFE failure"
        );
        // Other cards keep delivering.
        assert!(m.lcs[1].delivered_packets > 0);
    }

    #[test]
    fn traffic_to_failed_lc_is_dropped_as_egress_down() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 7);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(2, ComponentKind::Sru, now);
        sim.run_until(2e-3);
        let m = &sim.model().metrics;
        let egress_drops: u64 = (0..4).map(|i| m.lcs[i].drops(DropCause::EgressDown)).sum();
        assert!(egress_drops > 0, "peers should drop traffic to failed LC2");
    }

    #[test]
    fn repair_restores_service() {
        let mut sim = BdrRouter::simulation(small_config(0.2), 9);
        sim.run_until(0.5e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Sru, now);
        sim.run_until(1.0e-3);
        let delivered_down = sim.model().metrics.lcs[0].delivered_packets;
        let now = sim.now();
        sim.model_mut().repair_lc_now(0, now);
        sim.run_until(3.0e-3);
        let delivered_after = sim.model().metrics.lcs[0].delivered_packets;
        assert!(
            delivered_after > delivered_down,
            "LC0 must deliver again after repair"
        );
        let avail = sim.model().metrics.lcs[0].availability.average(sim.now());
        assert!(avail < 1.0 && avail > 0.5, "availability {avail}");
    }

    #[test]
    fn offered_load_matches_config() {
        let cfg = small_config(0.5);
        let rate = cfg.port_rate_bps;
        let mut sim = BdrRouter::simulation(cfg, 3);
        let horizon = 5e-3;
        sim.run_until(horizon);
        let m = &sim.model().metrics;
        for lc in &m.lcs {
            let offered_bps = lc.offered_bytes as f64 * 8.0 / horizon;
            assert!(
                (offered_bps / (0.5 * rate) - 1.0).abs() < 0.1,
                "offered {offered_bps:.3e} vs target {:.3e}",
                0.5 * rate
            );
        }
    }

    #[test]
    fn multi_port_piu_failure_costs_one_ports_share() {
        let mut cfg = small_config(0.2);
        cfg.ports_per_lc = 4;
        let mut sim = BdrRouter::simulation(cfg, 61);
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Piu, now);
        let offered0 = sim.model().metrics.lcs[0].offered_packets;
        let drops0 = sim.model().metrics.lcs[0].drops(DropCause::IngressDown);
        sim.run_until(6e-3);
        let m = &sim.model().metrics;
        let frac = (m.lcs[0].drops(DropCause::IngressDown) - drops0) as f64
            / (m.lcs[0].offered_packets - offered0) as f64;
        assert!(
            (frac - 0.25).abs() < 0.05,
            "one of four ports down should cost ~25%, got {frac}"
        );
        // Other units remain healthy: the card still forwards the rest.
        assert!(sim.model().lc_operational(0));
    }

    #[test]
    fn determinism_same_seed() {
        let run = |seed| {
            let mut sim = BdrRouter::simulation(small_config(0.3), seed);
            sim.run_until(1e-3);
            let m = &sim.model().metrics;
            (
                m.total_offered_bytes(),
                m.total_delivered_bytes(),
                sim.events_processed(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).0, run(6).0);
    }

    #[test]
    fn fabric_degradation_slows_but_does_not_stop_delivery() {
        let mut cfg = small_config(0.6);
        cfg.fabric_speedup = 1.0; // remove headroom so degradation bites
        let mut sim = BdrRouter::simulation(cfg, 13);
        sim.run_until(1e-3);
        // Fail two planes: spare covers one, the second costs 25%.
        sim.model_mut().fabric.fail_plane();
        sim.model_mut().fabric.fail_plane();
        assert_eq!(sim.model().fabric.capacity_fraction(), 0.75);
        sim.run_until(4e-3);
        let m = &sim.model().metrics;
        assert!(m.total_delivered_bytes() > 0);
    }
}
