//! L2 protocols — the software model of the paper's PDLU.
//!
//! DRA's key structural move is pulling all protocol-dependent work out
//! of the PIU/SRU into a Protocol-Dependent Logic Unit realized as an
//! FPGA/ASIC programmed per protocol. Here that unit is its
//! [`ProtocolKind`] and two costs read off it: framing overhead
//! ([`ProtocolKind::wire_bytes`]) and how long (de)encapsulation takes
//! ([`ProtocolKind::processing_delay`]). Two PDLUs are interchangeable
//! for coverage purposes **iff their kinds match** — exactly the
//! paper's rule that a failed PDLU may only be covered by a healthy
//! linecard implementing the same protocol (`dra-core`'s coverage
//! planner compares kinds directly).

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

impl ProtocolKind {
    /// Bytes on the wire for an IP packet of `ip_bytes`.
    pub fn wire_bytes(self, ip_bytes: u32) -> u32 {
        match self {
            // 14B header + 4B FCS, padded to the 64B minimum frame.
            ProtocolKind::Ethernet => (ip_bytes + 18).max(64),
            // PPP in HDLC-like framing: flag + address + control +
            // protocol + FCS ≈ 9 bytes.
            ProtocolKind::Pos => ip_bytes + 9,
            // AAL5: payload + 8B trailer, padded up to a multiple of
            // 48, then the 53/48 cell tax.
            ProtocolKind::Atm => (ip_bytes + 8).div_ceil(48) * 53,
        }
    }

    /// Seconds of PDLU processing to encapsulate or decapsulate a
    /// packet of `ip_bytes`: a fixed per-packet cost plus a per-byte
    /// cost. The values are representative of hardware line-speed
    /// engines; only their *relative* magnitudes matter to the
    /// simulation results.
    pub fn processing_delay(self, ip_bytes: u32) -> f64 {
        let (per_packet_s, per_byte_s) = match self {
            ProtocolKind::Ethernet => (50e-9, 0.1e-9),
            ProtocolKind::Pos => (40e-9, 0.08e-9),
            ProtocolKind::Atm => (70e-9, 0.12e-9),
        };
        per_packet_s + per_byte_s * ip_bytes as f64
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
        let e = ProtocolKind::Ethernet;
        assert_eq!(e.wire_bytes(1500), 1518);
        assert_eq!(e.wire_bytes(20), 64, "small packets pad to 64B");
    }

    #[test]
    fn pos_overhead() {
        let e = ProtocolKind::Pos;
        assert_eq!(e.wire_bytes(1500), 1509);
        assert_eq!(e.wire_bytes(20), 29);
    }

    #[test]
    fn atm_cell_tax() {
        let e = ProtocolKind::Atm;
        // 40B IP packet: +8 trailer = 48 -> 1 cell -> 53B.
        assert_eq!(e.wire_bytes(40), 53);
        // 41B: 49 -> 2 cells -> 106B.
        assert_eq!(e.wire_bytes(41), 106);
        // 1500B: 1508 -> ceil(1508/48)=32 cells -> 1696B.
        assert_eq!(e.wire_bytes(1500), 32 * 53);
    }

    #[test]
    fn processing_delay_grows_with_size() {
        for kind in ProtocolKind::ALL {
            let small = kind.processing_delay(40);
            let large = kind.processing_delay(1500);
            assert!(large > small, "{kind}: delay must grow with size");
            assert!(small > 0.0);
        }
    }

    #[test]
    fn processing_delay_is_per_packet_plus_per_byte() {
        // The constants, bit for bit: every latency artifact depends on them.
        assert_eq!(ProtocolKind::Ethernet.processing_delay(0), 50e-9);
        assert_eq!(
            ProtocolKind::Ethernet.processing_delay(1500),
            50e-9 + 0.1e-9 * 1500.0
        );
        assert_eq!(
            ProtocolKind::Pos.processing_delay(1500),
            40e-9 + 0.08e-9 * 1500.0
        );
        assert_eq!(
            ProtocolKind::Atm.processing_delay(1500),
            70e-9 + 0.12e-9 * 1500.0
        );
    }
}
