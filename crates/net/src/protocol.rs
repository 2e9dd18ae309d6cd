//! L2 protocol engines — the software model of the paper's PDLU.
//!
//! DRA's key structural move is pulling all protocol-dependent work out
//! of the PIU/SRU into a Protocol-Dependent Logic Unit realized as an
//! FPGA/ASIC programmed per protocol. Here that unit is a
//! [`ProtocolEngine`]: it knows its [`ProtocolKind`], its framing
//! overhead, and how long (de)encapsulation takes. Two engines are
//! interchangeable for coverage purposes **iff their kinds match** —
//! exactly the paper's rule that a failed PDLU may only be covered by a
//! healthy linecard implementing the same protocol.

use std::fmt;

/// The link-layer protocol a linecard terminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// IEEE 802.3 Ethernet.
    Ethernet,
    /// Packet-over-SONET (PPP in HDLC-like framing).
    Pos,
    /// ATM with AAL5 adaptation.
    Atm,
}

impl ProtocolKind {
    /// All supported kinds, for iteration in tests and sweeps.
    pub const ALL: [ProtocolKind; 3] =
        [ProtocolKind::Ethernet, ProtocolKind::Pos, ProtocolKind::Atm];
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolKind::Ethernet => write!(f, "ethernet"),
            ProtocolKind::Pos => write!(f, "pos"),
            ProtocolKind::Atm => write!(f, "atm"),
        }
    }
}

/// The protocol-dependent logic of one linecard.
///
/// Implementations model only what the dependability and bandwidth
/// analyses can observe: wire overhead and processing latency.
pub trait ProtocolEngine: fmt::Debug + Send {
    /// The protocol this engine implements.
    fn kind(&self) -> ProtocolKind;

    /// Bytes on the wire for an IP packet of `ip_bytes`.
    fn wire_bytes(&self, ip_bytes: u32) -> u32;

    /// Seconds of PDLU processing to encapsulate or decapsulate a
    /// packet of `ip_bytes` (fixed per-packet cost plus per-byte cost).
    fn processing_delay(&self, ip_bytes: u32) -> f64;

    /// Can this engine stand in for `other`? True exactly when the
    /// protocol kinds match (the paper's PDLU-coverage rule).
    fn can_cover(&self, other: ProtocolKind) -> bool {
        self.kind() == other
    }
}

/// Shared cost model: per-packet fixed latency plus per-byte latency.
/// Values are representative of hardware line-speed engines; only their
/// *relative* magnitudes matter to the simulation results.
#[derive(Debug, Clone, Copy)]
struct CostModel {
    per_packet_s: f64,
    per_byte_s: f64,
}

impl CostModel {
    #[inline]
    fn delay(&self, bytes: u32) -> f64 {
        self.per_packet_s + self.per_byte_s * bytes as f64
    }
}

/// IEEE 802.3 engine: 14B header + 4B FCS, 64B minimum frame.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EthernetEngine {
    cost: CostModel,
}

impl Default for EthernetEngine {
    fn default() -> Self {
        EthernetEngine {
            cost: CostModel {
                per_packet_s: 50e-9,
                per_byte_s: 0.1e-9,
            },
        }
    }
}

impl ProtocolEngine for EthernetEngine {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Ethernet
    }
    fn wire_bytes(&self, ip_bytes: u32) -> u32 {
        // 14B header + 4B FCS, padded to the 64B minimum frame.
        (ip_bytes + 18).max(64)
    }
    fn processing_delay(&self, ip_bytes: u32) -> f64 {
        self.cost.delay(ip_bytes)
    }
}

/// Packet-over-SONET engine: PPP in HDLC-like framing, 9B overhead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PosEngine {
    cost: CostModel,
}

impl Default for PosEngine {
    fn default() -> Self {
        PosEngine {
            cost: CostModel {
                per_packet_s: 40e-9,
                per_byte_s: 0.08e-9,
            },
        }
    }
}

impl ProtocolEngine for PosEngine {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Pos
    }
    fn wire_bytes(&self, ip_bytes: u32) -> u32 {
        // Flag + address + control + protocol + FCS ≈ 9 bytes.
        ip_bytes + 9
    }
    fn processing_delay(&self, ip_bytes: u32) -> f64 {
        self.cost.delay(ip_bytes)
    }
}

/// ATM/AAL5 engine: 8B trailer, padding to a 48B multiple, 5B header
/// per 53B cell.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AtmEngine {
    cost: CostModel,
}

impl Default for AtmEngine {
    fn default() -> Self {
        AtmEngine {
            cost: CostModel {
                per_packet_s: 70e-9,
                per_byte_s: 0.12e-9,
            },
        }
    }
}

impl ProtocolEngine for AtmEngine {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Atm
    }
    fn wire_bytes(&self, ip_bytes: u32) -> u32 {
        // AAL5: payload + 8B trailer, padded up to a multiple of 48,
        // then 53/48 cell tax.
        let aal5 = ip_bytes + 8;
        let cells = aal5.div_ceil(48);
        cells * 53
    }
    fn processing_delay(&self, ip_bytes: u32) -> f64 {
        self.cost.delay(ip_bytes)
    }
}

/// Construct the default engine for a protocol kind.
pub fn engine_for(kind: ProtocolKind) -> Box<dyn ProtocolEngine> {
    match kind {
        ProtocolKind::Ethernet => Box::new(EthernetEngine::default()),
        ProtocolKind::Pos => Box::new(PosEngine::default()),
        ProtocolKind::Atm => Box::new(AtmEngine::default()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_display() {
        let names: Vec<String> = ProtocolKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(names, vec!["ethernet", "pos", "atm"]);
    }

    #[test]
    fn ethernet_overhead_and_minimum_frame() {
        let e = EthernetEngine::default();
        assert_eq!(e.wire_bytes(1500), 1518);
        assert_eq!(e.wire_bytes(20), 64, "small packets pad to 64B");
    }

    #[test]
    fn pos_overhead() {
        let e = PosEngine::default();
        assert_eq!(e.wire_bytes(1500), 1509);
        assert_eq!(e.wire_bytes(20), 29);
    }

    #[test]
    fn atm_cell_tax() {
        let e = AtmEngine::default();
        // 40B IP packet: +8 trailer = 48 -> 1 cell -> 53B.
        assert_eq!(e.wire_bytes(40), 53);
        // 41B: 49 -> 2 cells -> 106B.
        assert_eq!(e.wire_bytes(41), 106);
        // 1500B: 1508 -> ceil(1508/48)=32 cells -> 1696B.
        assert_eq!(e.wire_bytes(1500), 32 * 53);
    }

    #[test]
    fn coverage_rule_is_same_kind_only() {
        let eth = EthernetEngine::default();
        assert!(eth.can_cover(ProtocolKind::Ethernet));
        assert!(!eth.can_cover(ProtocolKind::Pos));
        assert!(!eth.can_cover(ProtocolKind::Atm));
    }

    #[test]
    fn processing_delay_grows_with_size() {
        for kind in ProtocolKind::ALL {
            let e = engine_for(kind);
            assert_eq!(e.kind(), kind);
            let small = e.processing_delay(40);
            let large = e.processing_delay(1500);
            assert!(large > small, "{kind}: delay must grow with size");
            assert!(small > 0.0);
        }
    }

    #[test]
    fn engine_for_round_trips_kind() {
        for kind in ProtocolKind::ALL {
            assert_eq!(engine_for(kind).kind(), kind);
        }
    }
}
