//! Property: the network engine's conservation ledger balances at any
//! horizon, not only once the traffic has drained.
//!
//! The engine never derives `NetStats::in_flight` from the other
//! counters: it counts the packet-carrying events still queued when
//! the run stops. Stopping mid-traffic therefore leaves real packets
//! in flight, and the books must still close — every injected packet
//! is delivered, dropped, or pending, and no flow delivers more than it
//! injected. A packet lost or counted twice anywhere on the hop path
//! breaks `injected == delivered + dropped + in_flight` at some
//! horizon; this samples horizons across the whole run, faults
//! included.

use dra_core::health::ArchKind;
use dra_topo::engine::build_network;
use dra_topo::link::LinkConfig;
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
use dra_topo::topology::TopologyKind;
use proptest::prelude::*;

fn cell(arch: ArchKind, horizon_s: f64) -> TopoCellSpec {
    TopoCellSpec {
        id: "ledger".to_string(),
        arch,
        topology: TopologyKind::Mesh2D { rows: 3, cols: 3 },
        link: LinkConfig::default(),
        flows: FlowSpec {
            n_flows: 4,
            rate_pps: 20_000.0,
            packet_bytes: 700,
        },
        faults: TopoFaultSpec::FailRouters { k: 2, at_s: 1e-3 },
        horizon_s,
        drain_s: 0.0,
        replications: 1,
        seed_group: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn every_horizon_settles_a_conserved_ledger(
        seed in any::<u64>(),
        horizon_s in 1e-5..3e-3_f64,
        dra in any::<bool>(),
    ) {
        let arch = if dra { ArchKind::Dra } else { ArchKind::Bdr };
        let s = build_network(&cell(arch, horizon_s), seed, 0).run(seed, horizon_s).stats;
        prop_assert_eq!(
            s.injected,
            s.delivered + s.dropped_total() + s.in_flight,
            "books must close at t = {}", horizon_s
        );
        prop_assert!(s.conserved());
        prop_assert!(s.in_flight <= s.injected);
        prop_assert_eq!(s.flow_injected.iter().sum::<u64>(), s.injected);
        prop_assert_eq!(s.flow_delivered.iter().sum::<u64>(), s.delivered);
        for (inj, del) in s.flow_injected.iter().zip(&s.flow_delivered) {
            prop_assert!(del <= inj, "a flow delivered more than it injected");
        }
    }
}
