//! Per-linecard state shared by the BDR and DRA simulators.

use crate::components::CardHealth;
use dra_net::packet::Packet;
use dra_net::protocol::ProtocolKind;
use dra_net::sar::Reassembler;

/// Fixed per-packet LFE lookup latency (seconds). Representative of a
/// hardware TCAM/trie engine; only relative magnitudes matter.
pub const LFE_LOOKUP_DELAY_S: f64 = 100e-9;
/// Fixed PIU per-packet latency (seconds).
pub(crate) const PIU_DELAY_S: f64 = 20e-9;
/// SRU per-cell segmentation/reassembly latency (seconds).
pub(crate) const SRU_PER_CELL_DELAY_S: f64 = 10e-9;

/// One linecard: the protocol its PDLU terminates, unit and port
/// health, line rate, and egress reassembly state. Its LFE reads the
/// chassis's one forwarding table, so the card holds no table of its
/// own.
#[derive(Debug)]
pub struct Linecard {
    /// The L2 protocol this card terminates (the PDLU model).
    pub protocol: ProtocolKind,
    /// Unit health and the PIU ports behind it.
    pub health: CardHealth,
    /// Aggregate line rate of the card in bits/second.
    pub(crate) port_rate_bps: f64,
    /// Egress-side reassembler.
    pub reassembler: Reassembler,
}

impl Linecard {
    /// A healthy linecard with `ports` external ports.
    pub(crate) fn with_ports(protocol: ProtocolKind, port_rate_bps: f64, ports: u16) -> Self {
        assert!(port_rate_bps > 0.0);
        Linecard {
            protocol,
            health: CardHealth::healthy(ports),
            port_rate_bps,
            reassembler: Reassembler::new(),
        }
    }

    /// Total ingress pipeline latency for `packet`: PIU + PDLU
    /// (protocol decap) + LFE lookup + SRU segmentation.
    pub fn ingress_delay(&self, packet: &Packet) -> f64 {
        let cells = dra_net::sar::cells_for(packet.ip_bytes) as f64;
        PIU_DELAY_S
            + self.protocol.processing_delay(packet.ip_bytes)
            + LFE_LOOKUP_DELAY_S
            + SRU_PER_CELL_DELAY_S * cells
    }

    /// Total egress pipeline latency: SRU reassembly + PDLU (protocol
    /// encap) + PIU, plus wire serialization at the port rate.
    pub fn egress_delay(&self, ip_bytes: u32) -> f64 {
        let cells = dra_net::sar::cells_for(ip_bytes) as f64;
        let wire_bits = self.protocol.wire_bytes(ip_bytes) as f64 * 8.0;
        SRU_PER_CELL_DELAY_S * cells
            + self.protocol.processing_delay(ip_bytes)
            + PIU_DELAY_S
            + wire_bits / self.port_rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::{ComponentKind, Health};
    use dra_net::addr::Ipv4Addr;
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
        let lc = Linecard::with_ports(ProtocolKind::Pos, 10e9, 2);
        assert_eq!(lc.protocol, ProtocolKind::Pos);
        assert_eq!(lc.health, CardHealth::healthy(2));
        assert!(lc.health.components().all_healthy());
        assert_eq!(lc.port_rate_bps, 10e9);
    }

    #[test]
    fn ingress_delay_grows_with_packet_size() {
        let lc = Linecard::with_ports(ProtocolKind::Ethernet, 10e9, 1);
        assert!(lc.ingress_delay(&packet(1500)) > lc.ingress_delay(&packet(40)));
        assert!(lc.ingress_delay(&packet(40)) > 0.0);
    }

    #[test]
    fn egress_delay_dominated_by_wire_time_at_low_rate() {
        let fast = Linecard::with_ports(ProtocolKind::Ethernet, 10e9, 1);
        let slow = Linecard::with_ports(ProtocolKind::Ethernet, 1e9, 1);
        let d_fast = fast.egress_delay(1500);
        let d_slow = slow.egress_delay(1500);
        assert!(d_slow > d_fast);
        // Wire time at 1G for a 1518B frame is ~12.1 us; pipeline adds <1 us.
        assert!((d_slow - 1518.0 * 8.0 / 1e9).abs() < 1e-6);
    }

    #[test]
    fn component_health_is_settable() {
        let mut lc = Linecard::with_ports(ProtocolKind::Atm, 2.5e9, 1);
        lc.health.fail(ComponentKind::Lfe);
        assert_eq!(lc.health.components().lfe, Health::Failed);
        assert!(!lc.health.components().operational_standalone());
    }
}
