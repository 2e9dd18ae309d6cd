//! Per-linecard state shared by the BDR and DRA simulators.

use crate::components::LcComponents;
use dra_net::fib::Dir248Fib;
use dra_net::packet::Packet;
use dra_net::protocol::{engine_for, ProtocolEngine, ProtocolKind};
use dra_net::sar::Reassembler;

/// Fixed per-packet LFE lookup latency (seconds). Representative of a
/// hardware TCAM/trie engine; only relative magnitudes matter.
pub const LFE_LOOKUP_DELAY_S: f64 = 100e-9;
/// Fixed PIU per-packet latency (seconds).
pub const PIU_DELAY_S: f64 = 20e-9;
/// SRU per-cell segmentation/reassembly latency (seconds).
pub const SRU_PER_CELL_DELAY_S: f64 = 10e-9;

/// One linecard: identity, protocol engine (the PDLU), FIB (the LFE's
/// table), component health, and egress reassembly state.
#[derive(Debug)]
pub struct Linecard {
    /// Index of this linecard in the router.
    pub id: u16,
    /// The L2 protocol this card terminates.
    pub protocol: ProtocolKind,
    /// The protocol-dependent logic (PDLU model).
    pub engine: Box<dyn ProtocolEngine>,
    /// The local forwarding table (the compiled DIR-24-8 form the
    /// hardware LFE would run; `LinearFib` is its executable spec).
    pub fib: Dir248Fib,
    /// Unit health. `components.piu` aggregates the ports: it reads
    /// `Failed` only when *every* PIU is down (see `fail_piu_port`).
    pub components: LcComponents,
    /// Aggregate line rate of the card in bits/second.
    pub port_rate_bps: f64,
    /// Number of external ports (the paper: "An LC may have one or
    /// multiple ports", each behind its own PIU).
    pub ports: u16,
    /// Ports whose PIU has failed. Each dead PIU disconnects one
    /// external link — losing `failed/ports` of the card's traffic —
    /// which no coverage scheme can recover (§3.2, Case 2/3 PIU).
    pub piu_failed_ports: u16,
    /// Egress-side reassembler.
    pub reassembler: Reassembler,
}

impl Linecard {
    /// A healthy single-port linecard with an empty FIB.
    pub fn new(id: u16, protocol: ProtocolKind, port_rate_bps: f64) -> Self {
        Self::with_ports(id, protocol, port_rate_bps, 1)
    }

    /// A healthy linecard with `ports` external ports.
    pub fn with_ports(id: u16, protocol: ProtocolKind, port_rate_bps: f64, ports: u16) -> Self {
        assert!(port_rate_bps > 0.0 && ports > 0);
        Linecard {
            id,
            protocol,
            engine: engine_for(protocol),
            fib: Dir248Fib::new(),
            components: LcComponents::healthy(),
            port_rate_bps,
            ports,
            piu_failed_ports: 0,
            reassembler: Reassembler::new(),
        }
    }

    /// Fail one port's PIU; the aggregate `components.piu` flips to
    /// `Failed` once no port remains.
    pub fn fail_piu_port(&mut self) {
        if self.piu_failed_ports < self.ports {
            self.piu_failed_ports += 1;
        }
        if self.piu_failed_ports == self.ports {
            self.components.set(
                crate::components::ComponentKind::Piu,
                crate::components::Health::Failed,
            );
        }
    }

    /// Fraction of the card's external links currently disconnected.
    pub fn piu_loss_fraction(&self) -> f64 {
        self.piu_failed_ports as f64 / self.ports as f64
    }

    /// Hot-swap repair: all units and all ports.
    pub fn repair_all(&mut self) {
        self.components.repair_all();
        self.piu_failed_ports = 0;
    }

    /// Total ingress pipeline latency for `packet`: PIU + PDLU
    /// (protocol decap) + LFE lookup + SRU segmentation.
    pub fn ingress_delay(&self, packet: &Packet) -> f64 {
        let cells = dra_net::sar::cells_for(packet.ip_bytes) as f64;
        PIU_DELAY_S
            + self.engine.processing_delay(packet.ip_bytes)
            + LFE_LOOKUP_DELAY_S
            + SRU_PER_CELL_DELAY_S * cells
    }

    /// Total egress pipeline latency: SRU reassembly + PDLU (protocol
    /// encap) + PIU, plus wire serialization at the port rate.
    pub fn egress_delay(&self, ip_bytes: u32) -> f64 {
        let cells = dra_net::sar::cells_for(ip_bytes) as f64;
        let wire_bits = self.engine.wire_bytes(ip_bytes) as f64 * 8.0;
        SRU_PER_CELL_DELAY_S * cells
            + self.engine.processing_delay(ip_bytes)
            + PIU_DELAY_S
            + wire_bits / self.port_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{ComponentKind, Health};
    use dra_net::addr::Ipv4Addr;
    use dra_net::fib::Fib;
    use dra_net::packet::PacketId;

    fn packet(bytes: u32) -> Packet {
        Packet::new(
            PacketId(0),
            Ipv4Addr(1),
            Ipv4Addr(2),
            bytes,
            ProtocolKind::Ethernet,
            0.0,
        )
    }

    #[test]
    fn construction_defaults() {
        let lc = Linecard::new(3, ProtocolKind::Pos, 10e9);
        assert_eq!(lc.id, 3);
        assert_eq!(lc.protocol, ProtocolKind::Pos);
        assert_eq!(lc.engine.kind(), ProtocolKind::Pos);
        assert!(lc.components.all_healthy());
        assert!(lc.fib.is_empty());
    }

    #[test]
    fn ingress_delay_grows_with_packet_size() {
        let lc = Linecard::new(0, ProtocolKind::Ethernet, 10e9);
        assert!(lc.ingress_delay(&packet(1500)) > lc.ingress_delay(&packet(40)));
        assert!(lc.ingress_delay(&packet(40)) > 0.0);
    }

    #[test]
    fn egress_delay_dominated_by_wire_time_at_low_rate() {
        let fast = Linecard::new(0, ProtocolKind::Ethernet, 10e9);
        let slow = Linecard::new(1, ProtocolKind::Ethernet, 1e9);
        let d_fast = fast.egress_delay(1500);
        let d_slow = slow.egress_delay(1500);
        assert!(d_slow > d_fast);
        // Wire time at 1G for a 1518B frame is ~12.1 us; pipeline adds <1 us.
        assert!((d_slow - 1518.0 * 8.0 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn component_health_is_settable() {
        let mut lc = Linecard::new(0, ProtocolKind::Atm, 2.5e9);
        lc.components.set(ComponentKind::Lfe, Health::Failed);
        assert!(!lc.components.operational_standalone());
    }

    #[test]
    fn per_port_piu_failures_aggregate() {
        let mut lc = Linecard::with_ports(0, ProtocolKind::Ethernet, 10e9, 4);
        assert_eq!(lc.ports, 4);
        assert_eq!(lc.piu_loss_fraction(), 0.0);
        lc.fail_piu_port();
        assert_eq!(lc.piu_loss_fraction(), 0.25);
        assert_eq!(lc.components.piu, Health::Healthy, "3 ports still up");
        for _ in 0..3 {
            lc.fail_piu_port();
        }
        assert_eq!(lc.piu_loss_fraction(), 1.0);
        assert_eq!(lc.components.piu, Health::Failed, "all ports gone");
        // Extra failures saturate.
        lc.fail_piu_port();
        assert_eq!(lc.piu_failed_ports, 4);
        // Hot swap restores everything.
        lc.repair_all();
        assert_eq!(lc.piu_failed_ports, 0);
        assert!(lc.components.all_healthy());
    }

    #[test]
    fn single_port_card_piu_failure_is_total() {
        let mut lc = Linecard::new(0, ProtocolKind::Pos, 10e9);
        lc.fail_piu_port();
        assert_eq!(lc.components.piu, Health::Failed);
        assert_eq!(lc.piu_loss_fraction(), 1.0);
    }
}
