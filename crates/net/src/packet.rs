//! Simulation-level packets.
//!
//! The simulators track packet *metadata* — sizes, addresses, protocol
//! tags, timestamps — not payload bytes; dependability and bandwidth
//! metrics never look inside the payload, and carrying buffers would
//! only slow the event loop down.

use crate::addr::Ipv4Addr;
use crate::protocol::ProtocolKind;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Globally unique packet identity within one simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// A map keyed by packet id under a fixed multiplicative hash: one
/// multiply per lookup instead of SipHash's rounds. Ids are not
/// attacker-chosen, and a fixed hash keeps any iteration order a pure
/// function of the run (the routers only insert, look up and remove).
pub type PacketMap<V> = HashMap<PacketId, V, BuildHasherDefault<PacketIdHasher>>;

/// The [`PacketMap`] hasher: folds the high half of the id (the
/// per-linecard range in the top bits) into the low half, then one
/// Fibonacci multiply, whose high bits (hashbrown's control tag) and
/// low bits (its bucket index) both vary with every input bit. Each
/// write folds into the state so far, so a compound key such as the
/// reassembler's `(source linecard, id)` hashes every part; a lone id
/// hashes exactly as above.
#[derive(Debug, Default, Clone, Copy)]
pub struct PacketIdHasher(u64);

impl Hasher for PacketIdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        let x = self.0 ^ v;
        let h = (x ^ (x >> 32)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.write_u64(v as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }
}

/// One IP packet in flight through the router.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique identity, assigned by the generator.
    pub id: PacketId,
    /// Source address (used only for flow accounting).
    pub src: Ipv4Addr,
    /// Destination address — drives the FIB lookup.
    pub dst: Ipv4Addr,
    /// IP-layer length in bytes (header + payload), before any L2
    /// encapsulation.
    pub ip_bytes: u32,
    /// The L2 protocol of the *ingress* link this packet arrived on.
    pub ingress_protocol: ProtocolKind,
    /// Simulation time the packet hit the ingress PIU.
    pub arrived_at: f64,
}

impl Packet {
    /// Minimum legal IP packet the simulators generate (a bare header).
    pub(crate) const MIN_BYTES: u32 = 20;
    /// Largest packet the generators produce (standard Ethernet MTU).
    pub(crate) const MAX_BYTES: u32 = 1500;

    /// Construct a packet, clamping the size into the legal range.
    pub fn new(
        id: PacketId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        ip_bytes: u32,
        ingress_protocol: ProtocolKind,
        arrived_at: f64,
    ) -> Self {
        Packet {
            id,
            src,
            dst,
            ip_bytes: ip_bytes.clamp(Self::MIN_BYTES, Self::MAX_BYTES),
            ingress_protocol,
            arrived_at,
        }
    }
}

/// Monotone packet-id allocator.
#[derive(Debug, Default, Clone)]
pub struct PacketIdGen(u64);

impl PacketIdGen {
    /// Fresh allocator starting at id 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocator starting at an arbitrary id — give each linecard a
    /// disjoint range (e.g. `lc << 48`) so ids stay globally unique.
    pub fn starting_at(first: u64) -> Self {
        PacketIdGen(first)
    }

    /// Allocate the next id.
    #[inline]
    pub fn next_id(&mut self) -> PacketId {
        let id = PacketId(self.0);
        self.0 += 1;
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u32) -> Ipv4Addr {
        Ipv4Addr(n)
    }

    #[test]
    fn size_is_clamped() {
        let p = Packet::new(
            PacketId(0),
            addr(1),
            addr(2),
            5,
            ProtocolKind::Ethernet,
            0.0,
        );
        assert_eq!(p.ip_bytes, Packet::MIN_BYTES);
        let p = Packet::new(
            PacketId(0),
            addr(1),
            addr(2),
            1_000_000,
            ProtocolKind::Ethernet,
            0.0,
        );
        assert_eq!(p.ip_bytes, Packet::MAX_BYTES);
    }

    #[test]
    fn id_gen_is_monotone_and_unique() {
        let mut g = PacketIdGen::new();
        let a = g.next_id();
        let b = g.next_id();
        assert_ne!(a, b);
        assert!(a < b);
    }
}
