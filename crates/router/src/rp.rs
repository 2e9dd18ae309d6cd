//! The route processor (RP) of Figure 1 of the paper.
//!
//! The RP "runs the applications and protocols supported by the router"
//! and distributes copies of the routing table to the local forwarding
//! engine in each linecard. This module models the master RIB and its
//! download into the linecard FIBs; the chassis pushes in-service route
//! changes to every card itself.

use crate::linecard::Linecard;
use dra_net::addr::Ipv4Prefix;
use dra_net::fib::Fib;
use std::collections::HashMap;

/// The route processor: the master RIB.
#[derive(Debug, Default)]
pub struct RouteProcessor {
    rib: HashMap<Ipv4Prefix, u16>,
}

impl RouteProcessor {
    /// An RP with an empty RIB.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Announce a route; returns the replaced next hop, if any.
    pub(crate) fn announce(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16> {
        self.rib.insert(prefix, next_hop)
    }

    /// Withdraw a route; returns its next hop if it existed.
    pub(crate) fn withdraw(&mut self, prefix: Ipv4Prefix) -> Option<u16> {
        self.rib.remove(&prefix)
    }

    /// Full table download into a fresh FIB (startup).
    pub(crate) fn distribute(&self, linecards: &mut [Linecard]) {
        for lc in linecards {
            for (&p, &nh) in &self.rib {
                lc.fib.insert(p, nh);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::addr::Ipv4Addr;
    use dra_net::protocol::ProtocolKind;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_and_withdraw_return_the_replaced_next_hop() {
        let mut rp = RouteProcessor::new();
        assert_eq!(rp.announce(pfx("10.0.0.0/8"), 1), None);
        assert_eq!(rp.announce(pfx("10.0.0.0/8"), 2), Some(1));
        assert_eq!(rp.withdraw(pfx("10.0.0.0/8")), Some(2));
        assert_eq!(rp.withdraw(pfx("10.0.0.0/8")), None);
    }

    #[test]
    fn distribute_installs_everything_everywhere() {
        let mut rp = RouteProcessor::new();
        rp.announce(pfx("10.0.0.0/16"), 0);
        rp.announce(pfx("10.1.0.0/16"), 1);
        let mut cards = vec![
            Linecard::with_ports(0, ProtocolKind::Ethernet, 10e9, 1),
            Linecard::with_ports(1, ProtocolKind::Ethernet, 10e9, 1),
        ];
        rp.distribute(&mut cards);
        for lc in &cards {
            assert_eq!(lc.fib.len(), 2);
            assert_eq!(lc.fib.lookup(Ipv4Addr::from_octets(10, 1, 2, 3)), Some(1));
        }
    }
}
