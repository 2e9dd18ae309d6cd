//! The router chassis both architectures are built on.
//!
//! BDR and DRA run the same linecards, forwarding table, traffic
//! sources and crossbar. They differ in two places only: the checks a
//! packet must pass before it is switched (its *admission*), and what
//! happens once its cells are reassembled. [`Chassis`] owns everything
//! else; [`crate::bdr::BdrRouter`] and `dra_core::sim::DraRouter`
//! embed one each and dereference to it, so `router.fabric`,
//! `router.metrics`, `router.linecards` and the route methods read the
//! same on both.
//!
//! **Ordering contract.** The chassis schedules its own events
//! ([`ChassisEvent`]) through the embedding router's event type, in a
//! fixed order: per linecard the first arrival, then the purge timer at
//! `Start`; the next arrival before anything else at each arrival; the
//! next fabric slot after each slot's cells. Calendar ties break by
//! schedule sequence, so this order is part of every artifact's bytes.
//! The chassis never draws from the simulation RNG itself except
//! through [`Chassis::port_down`], which the routers call from their
//! admission checks in their own fixed order.
//!
//! **Slot trains.** The next fabric slot is the last thing a slot
//! schedules, so [`Chassis::fabric_slot`] runs it inline, as the next
//! iteration of one handler call, whenever [`Ctx::try_advance`] finds
//! nothing queued at or before it and it lies within the run's
//! horizon. Each inline slot takes the sequence number and the event
//! count its queued event would have, so the order above, and every
//! byte it feeds, is the same whether a slot ran inline or was queued.
//! A router's reassembly callback must therefore keep to the same
//! rule: anything it schedules lands before the next slot's sequence
//! number, and a slot never runs inline past an event the callback
//! queued at or before it.

use crate::bdr::BdrConfig;
use crate::fabric::Crossbar;
use crate::ingress::ArrivalTrain;
use crate::linecard::Linecard;
use crate::metrics::{note_drop, DropCause, RouterMetrics};
use dra_des::Ctx;
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{Dir248Fib, Fib};
use dra_net::packet::{Packet, PacketId, PacketIdGen};
use dra_net::sar::{segment_cells, Cell, CELL_BYTES};
use dra_net::traffic::PoissonGen;
use rand::rngs::SmallRng;

/// The events the chassis schedules. Each router's event type embeds
/// them (`From<ChassisEvent>`) and routes them back to the chassis.
#[derive(Debug, Clone, Copy)]
pub enum ChassisEvent {
    /// Kick-off: first arrival per linecard and the purge timer.
    Start,
    /// Next packet arrives at linecard `lc`'s ingress port.
    Arrival {
        /// Ingress linecard.
        lc: u16,
    },
    /// One fabric cell slot.
    FabricSlot,
    /// Periodic reassembly garbage collection.
    PurgeReassembly,
}

/// Linecards, forwarding table, traffic sources and crossbar: the
/// datapath substrate shared by both architectures.
#[derive(Debug)]
pub struct Chassis {
    /// Configuration this chassis was built from.
    pub config: BdrConfig,
    /// The linecards.
    pub linecards: Vec<Linecard>,
    /// The switching fabric.
    pub fabric: Crossbar,
    /// Collected metrics.
    pub metrics: RouterMetrics,
    /// The forwarding table every linecard's LFE reads (the compiled
    /// DIR-24-8 form the hardware would run; `LinearFib` is its
    /// executable spec). The paper's route processor downloads one
    /// copy per card and updates them together, so the copies never
    /// differ: the chassis keeps the one table they all equal. Its
    /// route store is the router's route set.
    pub fib: Dir248Fib,
    generators: Vec<PoissonGen>,
    /// Dedicated per-LC RNG streams for traffic, decoupled from the
    /// simulation RNG so two architectures (or two fault scripts) see
    /// byte-identical offered traffic under the same seed regardless
    /// of how much randomness their internals consume.
    traffic_rngs: Vec<SmallRng>,
    /// Per-LC pre-resolved arrival trains (batched FIB lookups).
    trains: Vec<ArrivalTrain>,
    id_gens: Vec<PacketIdGen>,
    slot_time_s: f64,
    slot_scheduled: bool,
    capacity_credit: f64,
    /// The cells moved in the current fabric slot, reused across
    /// slots, so delivery can run `&mut self` handlers while iterating
    /// without holding the fabric's borrow (and without allocating
    /// per slot).
    slot_cells: Vec<Cell>,
}

impl Chassis {
    /// Build the chassis (linecards, full-mesh routes, generators,
    /// fabric) from `config`. `seed` feeds the per-LC traffic RNG
    /// streams; the simulation's own RNG, seeded separately, covers
    /// arbitration and the routers' coins.
    pub fn new(config: BdrConfig, seed: u64) -> Self {
        assert!(config.n_lcs >= 2, "need at least two linecards");
        assert!(
            (0.0..=1.0).contains(&config.load) && config.load > 0.0,
            "load must be in (0, 1]"
        );
        assert!(config.fabric_speedup >= 1.0);

        let linecards: Vec<Linecard> = (0..config.n_lcs)
            .map(|i| {
                Linecard::with_ports(
                    config.protocol_of(i),
                    config.port_rate_bps,
                    config.ports_per_lc,
                )
            })
            .collect();
        // Full mesh routing as in Figure 1: every card reaches every
        // destination prefix.
        let mut fib = Dir248Fib::new();
        for dst in 0..config.n_lcs {
            fib.insert(BdrConfig::prefix_of(dst), dst as u16);
        }
        // Each card offers `load × rate` spread uniformly over the others.
        let generators = (0..config.n_lcs)
            .map(|i| {
                let bases: Vec<Ipv4Addr> = (0..config.n_lcs)
                    .filter(|&j| j != i)
                    .map(BdrConfig::dst_base_of)
                    .collect();
                PoissonGen::new(config.load * config.port_rate_bps, &bases)
            })
            .collect();
        let traffic_rngs = (0..config.n_lcs)
            .map(|i| {
                use rand::SeedableRng;
                SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i as u64 + 1))
            })
            .collect();
        let id_gens = (0..config.n_lcs)
            .map(|i| PacketIdGen::starting_at((i as u64) << 48))
            .collect();
        let fabric = Crossbar::new(
            config.n_lcs,
            config.voq_capacity,
            config.islip_iterations,
            config.fabric_planes_total,
            config.fabric_planes_required,
        );
        let slot_time_s = CELL_BYTES as f64 * 8.0 / (config.port_rate_bps * config.fabric_speedup);

        Chassis {
            metrics: RouterMetrics::new(config.n_lcs),
            trains: (0..config.n_lcs).map(|_| ArrivalTrain::new()).collect(),
            config,
            linecards,
            fabric,
            fib,
            generators,
            traffic_rngs,
            id_gens,
            slot_time_s,
            slot_scheduled: false,
            capacity_credit: 0.0,
            slot_cells: Vec::new(),
        }
    }

    /// Can linecard `lc` pass traffic on its own (every unit on the
    /// routing path healthy)? BDR's whole rule; DRA's uncovered case.
    #[inline]
    pub fn lc_operational(&self, lc: u16) -> bool {
        self.linecards[lc as usize]
            .health
            .components()
            .operational_standalone()
    }

    /// Announce a route in service: every linecard forwards by it from
    /// the next lookup on (the paper's internal bus carries exactly
    /// this update to every card). Arrival trains batched before it
    /// re-resolve their unconsumed tail.
    pub fn announce_route(&mut self, prefix: Ipv4Prefix, next_hop: u16) {
        self.fib.insert(prefix, next_hop);
    }

    /// Withdraw a route from every linecard, in service.
    pub fn withdraw_route(&mut self, prefix: Ipv4Prefix) {
        self.fib.remove(prefix);
    }

    /// Does a packet at linecard `lc` ride one of its PIU-failed ports?
    /// A partially PIU-failed card has lost that share of its external
    /// links. Draws from `rng` only while some port is down.
    #[inline]
    pub fn port_down(&self, lc: u16, rng: &mut SmallRng) -> bool {
        let loss = self.linecards[lc as usize].health.piu_loss_fraction();
        loss > 0.0 && dra_des::random::coin(rng, loss)
    }

    /// Count a dropped packet against its ingress card.
    #[inline]
    pub fn drop_packet(&mut self, packet: PacketId, ingress: u16, cause: DropCause) {
        self.metrics.lcs[ingress as usize].drop_packet(cause);
        note_drop(packet, cause, ingress);
    }

    /// Count a delivered packet: bytes and latency at card `at`, the
    /// delivery itself against its `ingress` card (the conservation
    /// invariant's per-card form).
    #[inline]
    pub fn deliver(
        &mut self,
        at: u16,
        ingress: u16,
        packet: PacketId,
        ip_bytes: u32,
        latency: f64,
    ) {
        self.metrics.lcs[at as usize].deliver(ip_bytes, latency);
        self.metrics.lcs[ingress as usize].ingress_delivered += 1;
        if dra_telemetry::enabled() {
            use dra_telemetry as tm;
            tm::counter_add(tm::ids::DELIVERED, 1);
            tm::event(tm::EventKind::Deliver, packet.0, at as u32, ip_bytes);
            tm::finish_packet(packet.0);
        }
    }

    /// Kick-off: schedule each card's first arrival, then the purge
    /// timer.
    pub fn start<E: From<ChassisEvent>>(&mut self, ctx: &mut Ctx<'_, E>) {
        for lc in 0..self.config.n_lcs as u16 {
            // Only `.dt` matters here: the kick-off record's payload
            // never becomes a packet.
            let (first, _) = self.pop_arrival(lc);
            ctx.schedule(first.dt, ChassisEvent::Arrival { lc }.into());
        }
        ctx.schedule(
            self.config.reassembly_timeout_s,
            ChassisEvent::PurgeReassembly.into(),
        );
    }

    fn pop_arrival(&mut self, lc: u16) -> (dra_net::traffic::Arrival, Option<u16>) {
        let i = lc as usize;
        self.trains[i].pop(
            &mut self.generators[i],
            &mut self.traffic_rngs[i],
            &self.fib,
        )
    }

    /// A packet arrives at linecard `lc`: schedule the next arrival
    /// first (so drops don't stall the arrival process), then build and
    /// offer the packet. Returns it with its routed egress card —
    /// exactly what `fib.lookup(dst)` returns now (the train resolves
    /// lookups in batch). Admission is the caller's.
    pub fn arrive<E: From<ChassisEvent>>(
        &mut self,
        lc: u16,
        ctx: &mut Ctx<'_, E>,
    ) -> (Packet, Option<u16>) {
        let (arrival, route) = self.pop_arrival(lc);
        let next_at = ctx.now() + arrival.dt;
        if self.config.arrival_stop_s.is_none_or(|stop| next_at < stop) {
            ctx.schedule(arrival.dt, ChassisEvent::Arrival { lc }.into());
        }

        let packet = Packet::new(
            self.id_gens[lc as usize].next_id(),
            BdrConfig::dst_base_of(lc as usize),
            arrival.dst,
            arrival.ip_bytes,
            self.linecards[lc as usize].protocol,
            ctx.now(),
        );
        self.metrics.lcs[lc as usize].offer(packet.ip_bytes);
        if dra_telemetry::enabled() {
            use dra_telemetry as tm;
            tm::counter_add(tm::ids::ARRIVALS, 1);
            tm::counter_add(tm::ids::FIB_LOOKUPS, 1);
            tm::event(
                tm::EventKind::Arrival,
                packet.id.0,
                lc as u32,
                packet.ip_bytes,
            );
            tm::track_arrival(packet.id.0, lc as u32);
            if let Some(egress) = route {
                tm::event(
                    tm::EventKind::FibLookup,
                    packet.id.0,
                    lc as u32,
                    egress as u32,
                );
            }
        }
        (packet, route)
    }

    /// Segment `packet` into the VOQ `src → dst`. On overflow the
    /// packet is dropped against `ingress` and `false` returned (any
    /// cells already enqueued strand in the egress reassembler until
    /// the purge reclaims them); on success the caller parks the packet
    /// until [`Chassis::fabric_slot`] hands it back reassembled.
    pub fn enqueue<E: From<ChassisEvent>>(
        &mut self,
        packet: &Packet,
        src: u16,
        dst: u16,
        ingress: u16,
        ctx: &mut Ctx<'_, E>,
    ) -> bool {
        let overflowed =
            segment_cells(packet, src, dst).any(|cell| self.fabric.enqueue(cell).is_err());
        if overflowed {
            self.drop_packet(packet.id, ingress, DropCause::VoqOverflow);
        } else if dra_telemetry::enabled() {
            use dra_telemetry as tm;
            tm::counter_add(
                tm::ids::VOQ_ENQUEUED_CELLS,
                dra_net::sar::cells_for(packet.ip_bytes) as u64,
            );
            tm::event(
                tm::EventKind::VoqEnqueue,
                packet.id.0,
                src as u32,
                dst as u32,
            );
            tm::mark_lookup_done(packet.id.0);
            tm::mark_voq_enqueue(packet.id.0);
        }
        self.ensure_fabric_slot(ctx);
        !overflowed
    }

    fn ensure_fabric_slot<E: From<ChassisEvent>>(&mut self, ctx: &mut Ctx<'_, E>) {
        if !self.slot_scheduled && !self.fabric.is_empty() {
            self.slot_scheduled = true;
            ctx.schedule(self.slot_time_s, ChassisEvent::FabricSlot.into());
        }
    }

    /// A train of fabric cell slots. Each slot switches its cells (at
    /// the degraded rate, by credit, when planes are down), pushes each
    /// into its egress reassembler and hands every completed packet to
    /// `reassembled(chassis, ctx, egress, packet, ip_bytes)`. While
    /// cells remain, the next slot is the handler's last schedule call,
    /// so it runs inline whenever [`Ctx::try_advance`] allows and is
    /// queued otherwise.
    pub fn fabric_slot<E: From<ChassisEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        mut reassembled: impl FnMut(&mut Self, &mut Ctx<'_, E>, u16, PacketId, u32),
    ) {
        self.slot_scheduled = false;
        loop {
            if !self.fabric.operational() {
                // Fabric dead: cells stay queued until planes are
                // repaired. The slot train stops here, so any fractional
                // credit must not survive to the restart — it would
                // serve an above-capacity burst the moment planes come
                // back.
                self.capacity_credit = 0.0;
                return;
            }
            self.switch_slot(ctx, &mut reassembled);
            if self.fabric.is_empty() {
                // Queue drained: the slot train stops. Forfeit leftover
                // fractional credit — banking it across the idle gap
                // would let a degraded fabric open the next busy period
                // with a burst above its capacity fraction.
                self.capacity_credit = 0.0;
                return;
            }
            if !ctx.try_advance(ctx.now() + self.slot_time_s) {
                self.ensure_fabric_slot(ctx);
                return;
            }
        }
    }

    /// One fabric cell slot of [`Chassis::fabric_slot`]'s train.
    fn switch_slot<E: From<ChassisEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        reassembled: &mut impl FnMut(&mut Self, &mut Ctx<'_, E>, u16, PacketId, u32),
    ) {
        self.capacity_credit += self.fabric.capacity_fraction();
        if self.capacity_credit < 1.0 {
            return;
        }
        self.capacity_credit -= 1.0;
        let now = ctx.now();
        // Collect the slot's winners first: delivery needs `&mut self`
        // (metrics, reassembly, the caller's handler).
        let mut slot = std::mem::take(&mut self.slot_cells);
        self.fabric.schedule_slot(&mut slot);
        for cell in &slot {
            let egress = cell.dst_lc;
            if dra_telemetry::enabled() {
                use dra_telemetry as tm;
                tm::counter_add(tm::ids::CELLS_SWITCHED, 1);
                tm::event(
                    tm::EventKind::FabricTransit,
                    cell.packet.0,
                    cell.src_lc as u32,
                    egress as u32,
                );
                tm::mark_cell_switched(cell.packet.0);
            }
            // A corrupted or duplicate cell (`Err`) is dropped
            // silently; the purge reclaims the partial.
            if let Ok(Some((packet, ip_bytes))) =
                self.linecards[egress as usize].reassembler.push(cell, now)
            {
                reassembled(self, ctx, egress, packet, ip_bytes);
            }
        }
        slot.clear();
        self.slot_cells = slot;
    }

    /// Reassembly garbage collection: reclaim every partial older than
    /// the timeout, charging a `ReassemblyTimeout` drop for each one
    /// `unpark` still holds (as its ingress card), then re-arm.
    pub fn purge<E: From<ChassisEvent>>(
        &mut self,
        ctx: &mut Ctx<'_, E>,
        mut unpark: impl FnMut(PacketId) -> Option<u16>,
    ) {
        let cutoff = ctx.now() - self.config.reassembly_timeout_s;
        for lc in 0..self.config.n_lcs {
            let stale = self.linecards[lc].reassembler.purge_collect(cutoff);
            for (_, packet) in stale {
                if let Some(ingress) = unpark(packet) {
                    self.drop_packet(packet, ingress, DropCause::ReassemblyTimeout);
                }
            }
        }
        ctx.schedule(
            self.config.reassembly_timeout_s,
            ChassisEvent::PurgeReassembly.into(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chassis(n_lcs: usize) -> Chassis {
        Chassis::new(
            BdrConfig {
                n_lcs,
                ..BdrConfig::default()
            },
            1,
        )
    }

    #[test]
    fn construction_installs_the_full_mesh_once() {
        let c = chassis(4);
        assert_eq!(c.fib.len(), 4, "one /16 per card, one table");
        for dst in 0..4 {
            let addr = BdrConfig::dst_base_of(dst);
            assert_eq!(c.fib.lookup(addr), Some(dst as u16));
        }
        assert_eq!(c.fib.lookup(Ipv4Addr::from_octets(10, 4, 0, 1)), None);
    }

    #[test]
    fn announce_and_withdraw_replace_the_one_route() {
        let mut c = chassis(3);
        let addr = Ipv4Addr::from_octets(10, 1, 2, 3);
        // Re-announcing card 1's prefix replaces its next hop in place.
        c.announce_route(BdrConfig::prefix_of(1), 2);
        assert_eq!(c.fib.len(), 3);
        assert_eq!(c.fib.lookup(addr), Some(2));
        c.withdraw_route(BdrConfig::prefix_of(1));
        assert_eq!(c.fib.len(), 2);
        assert_eq!(c.fib.lookup(addr), None);
        // The table reports what each update replaced.
        assert_eq!(c.fib.insert(BdrConfig::prefix_of(1), 1), None);
        assert_eq!(c.fib.remove(BdrConfig::prefix_of(1)), Some(1));
    }
}
