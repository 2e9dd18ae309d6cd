//! Network-level composed metrics: packet conservation, end-to-end
//! delivery, and per-flow availability.

use dra_des::stats::Welford;

/// Why the network dropped an end-to-end packet.
///
/// These compose the single-router [`DropCause`]s one level up: a
/// packet that would die inside a router for *any* reason at a hop is
/// charged to the hop-level cause visible to the network.
///
/// [`DropCause`]: dra_router::metrics::DropCause
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum NetDropCause {
    /// The linecard the packet arrived on cannot serve it.
    IngressDown = 0,
    /// The linecard toward the next hop cannot serve it.
    EgressDown = 1,
    /// The transit router's switching fabric has too few planes.
    FabricDown = 2,
    /// The transit router's FIB had no route for the destination.
    NoRoute = 3,
    /// The selected outgoing link is down.
    LinkDown = 4,
    /// The selected outgoing link's serialization backlog overflowed.
    LinkCongested = 5,
    /// A DRA coverage detour existed but the EIB's promised bandwidth
    /// was oversubscribed at this node.
    CoverageSaturated = 6,
    /// Hop budget exhausted (defensive; min-hop routes are loop-free).
    TtlExceeded = 7,
}

impl NetDropCause {
    /// Every cause, in a fixed order (artifact field order).
    pub const ALL: [NetDropCause; 8] = [
        NetDropCause::IngressDown,
        NetDropCause::EgressDown,
        NetDropCause::FabricDown,
        NetDropCause::NoRoute,
        NetDropCause::LinkDown,
        NetDropCause::LinkCongested,
        NetDropCause::CoverageSaturated,
        NetDropCause::TtlExceeded,
    ];

    /// Stable dense index. Constant-time: the explicit discriminants
    /// *are* the `ALL` positions (pinned by
    /// `cause_names_and_indices_are_stable`) — this runs on every
    /// dropped packet, so no linear scan.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (artifact keys).
    pub fn name(self) -> &'static str {
        match self {
            NetDropCause::IngressDown => "ingress_down",
            NetDropCause::EgressDown => "egress_down",
            NetDropCause::FabricDown => "fabric_down",
            NetDropCause::NoRoute => "no_route",
            NetDropCause::LinkDown => "link_down",
            NetDropCause::LinkCongested => "link_congested",
            NetDropCause::CoverageSaturated => "coverage_saturated",
            NetDropCause::TtlExceeded => "ttl_exceeded",
        }
    }
}

/// Counters and moments for one network run.
///
/// Conservation invariant (checked by `tests/topo_invariants.rs` and
/// by artifact validation): `injected == delivered + dropped_total() +
/// in_flight` at every instant the model is quiescent. The network
/// engine counts `in_flight` from what is still pending at the
/// horizon, never from the other counters, so the check can fail.
#[derive(Debug, Clone)]
pub struct NetStats {
    /// Packets handed to source routers.
    pub injected: u64,
    /// Packets that reached their destination's host port.
    pub delivered: u64,
    /// Drops by cause (indexed by [`NetDropCause::index`]).
    pub drops: [u64; 8],
    /// Packets currently inside the network.
    pub in_flight: u64,
    /// End-to-end latency of delivered packets, seconds.
    pub latency: Welford,
    /// Router hops of delivered packets.
    pub hops: Welford,
    /// Per-flow injected counts.
    pub flow_injected: Vec<u64>,
    /// Per-flow delivered counts.
    pub flow_delivered: Vec<u64>,
}

impl NetStats {
    /// Zeroed stats for `n_flows` flows.
    pub(crate) fn new(n_flows: usize) -> Self {
        NetStats {
            injected: 0,
            delivered: 0,
            drops: [0; 8],
            in_flight: 0,
            latency: Welford::new(),
            hops: Welford::new(),
            flow_injected: vec![0; n_flows],
            flow_delivered: vec![0; n_flows],
        }
    }

    /// Total drops across causes.
    pub fn dropped_total(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// Network packet delivery ratio (1.0 when nothing was injected).
    pub fn delivery_ratio(&self) -> f64 {
        if self.injected == 0 {
            1.0
        } else {
            self.delivered as f64 / self.injected as f64
        }
    }

    /// Fraction of flows whose own delivery ratio is ≥ `threshold`
    /// (flows that injected nothing count as available).
    pub fn flow_availability(&self, threshold: f64) -> f64 {
        if self.flow_injected.is_empty() {
            return 1.0;
        }
        let ok = self
            .flow_injected
            .iter()
            .zip(&self.flow_delivered)
            .filter(|&(&inj, &del)| inj == 0 || del as f64 >= threshold * inj as f64)
            .count();
        ok as f64 / self.flow_injected.len() as f64
    }

    /// `injected == delivered + dropped + in_flight`?
    pub fn conserved(&self) -> bool {
        self.injected == self.delivered + self.dropped_total() + self.in_flight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_and_indices_are_stable() {
        for (i, c) in NetDropCause::ALL.into_iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(NetDropCause::ALL[0].name(), "ingress_down");
        assert_eq!(NetDropCause::ALL[7].name(), "ttl_exceeded");
    }

    /// Stats with per-flow `(injected, delivered)` counts, `dropped`
    /// link-down drops and `in_flight` packets.
    fn stats(flows: &[(u64, u64)], dropped: u64, in_flight: u64) -> NetStats {
        let mut s = NetStats::new(flows.len());
        for (f, &(inj, del)) in flows.iter().enumerate() {
            s.flow_injected[f] = inj;
            s.flow_delivered[f] = del;
        }
        s.injected = s.flow_injected.iter().sum();
        s.delivered = s.flow_delivered.iter().sum();
        s.drops[NetDropCause::LinkDown.index()] = dropped;
        s.in_flight = in_flight;
        s
    }

    #[test]
    fn conservation_accounting() {
        // Flow 0 fully delivered; flow 1 delivered 0 of 2: one drop,
        // one still in flight.
        let s = stats(&[(1, 1), (2, 0)], 1, 1);
        assert!(s.conserved());
        assert_eq!(s.dropped_total(), 1);
        assert_eq!(s.delivery_ratio(), 1.0 / 3.0);
        assert_eq!(s.flow_availability(0.99), 0.5);
        // A packet lost, or counted twice.
        assert!(!stats(&[(1, 1), (2, 0)], 1, 0).conserved());
        assert!(!stats(&[(1, 1), (2, 0)], 2, 1).conserved());
        assert_eq!(NetStats::new(0).delivery_ratio(), 1.0);
    }

    #[test]
    fn flow_availability_threshold_edges() {
        // Flow 0: 0 of 1 delivered; flow 1: 1 of 2; flow 2 injected
        // nothing — always counts as available.
        let s = stats(&[(1, 0), (2, 1), (0, 0)], 2, 0);
        // Threshold 0.0: `del >= 0` holds for every flow, even flow 0
        // with zero deliveries.
        assert_eq!(s.flow_availability(0.0), 1.0);
        // Threshold 1.0: only fully-delivered (or idle) flows count.
        // Flow 0 (0 of 1) and flow 1 (1 of 2) both miss; flow 2 idles.
        assert_eq!(s.flow_availability(1.0), 1.0 / 3.0);
        // Flow 1 at 2 of 3 — still short of 1.0 but over 0.5.
        let s = stats(&[(1, 0), (3, 2), (0, 0)], 2, 0);
        assert_eq!(s.flow_availability(1.0), 1.0 / 3.0);
        assert_eq!(s.flow_availability(0.5), 2.0 / 3.0);
        // No flows at all: vacuously available.
        assert_eq!(NetStats::new(0).flow_availability(1.0), 1.0);
    }
}
