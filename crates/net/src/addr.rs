//! IPv4 addresses and prefixes.
//!
//! A tiny purpose-built type instead of `std::net::Ipv4Addr` because
//! the FIBs need bit arithmetic (`nth_bit`, masking, covering checks)
//! that std doesn't expose, and the traffic generators build addresses
//! from raw `u32`s on the hot path.

use std::fmt;
use std::str::FromStr;

/// An IPv4 address as a plain `u32` in host order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub u32);

impl Ipv4Addr {
    /// Build from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub(crate) const fn octets(self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.octets();
        write!(f, "{}.{}.{}.{}", o[0], o[1], o[2], o[3])
    }
}

/// Error parsing an address or prefix from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError(pub String);

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid address/prefix: {}", self.0)
    }
}
impl std::error::Error for AddrParseError {}

impl FromStr for Ipv4Addr {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('.').collect();
        if parts.len() != 4 {
            return Err(AddrParseError(s.to_string()));
        }
        let mut octets = [0u8; 4];
        for (i, p) in parts.iter().enumerate() {
            octets[i] = p.parse().map_err(|_| AddrParseError(s.to_string()))?;
        }
        Ok(Ipv4Addr::from_octets(
            octets[0], octets[1], octets[2], octets[3],
        ))
    }
}

/// An IPv4 prefix: an address plus a mask length in `0..=32`.
///
/// The address is canonicalized at construction — bits beyond the mask
/// are cleared — so two spellings of the same prefix compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    addr: Ipv4Addr,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct, canonicalizing the host bits to zero.
    ///
    /// # Panics
    /// Panics when `len > 32`.
    pub fn new(addr: Ipv4Addr, len: u8) -> Self {
        assert!(len <= 32, "prefix length out of range");
        Ipv4Prefix {
            addr: Ipv4Addr(addr.0 & Self::mask(len)),
            len,
        }
    }

    /// Network mask for a given length.
    #[inline]
    pub(crate) fn mask(len: u8) -> u32 {
        if len == 0 {
            0
        } else {
            u32::MAX << (32 - len)
        }
    }

    /// The canonical network address.
    #[inline]
    pub fn addr(self) -> Ipv4Addr {
        self.addr
    }

    /// Mask length.
    // `len` here is a mask length, not a container size; an `is_empty`
    // would be meaningless.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(self) -> u8 {
        self.len
    }

    /// Does this prefix cover `addr`?
    #[inline]
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        (addr.0 & Self::mask(self.len)) == self.addr.0
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr, self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = AddrParseError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr_s, len_s) = s.split_once('/').ok_or_else(|| AddrParseError(s.into()))?;
        let addr: Ipv4Addr = addr_s.parse()?;
        let len: u8 = len_s.parse().map_err(|_| AddrParseError(s.into()))?;
        if len > 32 {
            return Err(AddrParseError(s.into()));
        }
        Ok(Ipv4Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_round_trip() {
        let a = Ipv4Addr::from_octets(192, 168, 1, 77);
        assert_eq!(a.octets(), [192, 168, 1, 77]);
        assert_eq!(a.to_string(), "192.168.1.77");
    }

    #[test]
    fn parse_addr() {
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        assert_eq!(a, Ipv4Addr::from_octets(10, 0, 0, 1));
        assert!("10.0.0".parse::<Ipv4Addr>().is_err());
        assert!("10.0.0.256".parse::<Ipv4Addr>().is_err());
        assert!("ten.zero.zero.one".parse::<Ipv4Addr>().is_err());
    }

    #[test]
    fn prefix_canonicalizes() {
        let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, 1, 2, 3), 8);
        assert_eq!(p.addr(), Ipv4Addr::from_octets(10, 0, 0, 0));
        let q: Ipv4Prefix = "10.99.0.0/8".parse().unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn prefix_contains() {
        let p: Ipv4Prefix = "192.168.0.0/16".parse().unwrap();
        assert!(p.contains("192.168.255.1".parse().unwrap()));
        assert!(!p.contains("192.169.0.1".parse().unwrap()));
        let default: Ipv4Prefix = "0.0.0.0/0".parse().unwrap();
        assert!(default.contains("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn mask_edges() {
        assert_eq!(Ipv4Prefix::mask(0), 0);
        assert_eq!(Ipv4Prefix::mask(32), u32::MAX);
        assert_eq!(Ipv4Prefix::mask(24), 0xFFFF_FF00);
    }

    #[test]
    fn prefix_parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/33".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/x".parse::<Ipv4Prefix>().is_err());
    }

    #[test]
    fn display_prefix() {
        let p: Ipv4Prefix = "172.16.0.0/12".parse().unwrap();
        assert_eq!(p.to_string(), "172.16.0.0/12");
        assert_eq!(p.len(), 12);
    }
}
