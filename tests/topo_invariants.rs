//! Network-level property tests: packet conservation must hold on
//! every topology the generator produces, for both architectures,
//! healthy or faulted. Extends the `proptest_invariants.rs` pattern
//! one level up — from a single router to a network of them.

use dra::core::health::ArchKind;
use dra::topo::engine::build_network;
use dra::topo::link::LinkConfig;
use dra::topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
use dra::topo::topology::TopologyKind;
use proptest::prelude::*;

/// Run one cell replication to its horizon and return final stats.
fn run_cell(
    topology: TopologyKind,
    arch: ArchKind,
    faults: TopoFaultSpec,
    master_seed: u64,
    seed_group: u64,
) -> dra::topo::NetStats {
    let horizon_s = 4e-3;
    let cell = TopoCellSpec {
        id: format!("{}/{}/{}", arch.label(), topology.label(), faults.label()),
        arch,
        topology,
        link: LinkConfig::default(),
        flows: FlowSpec {
            n_flows: 4,
            rate_pps: 10_000.0,
            packet_bytes: 700,
        },
        faults,
        horizon_s,
        drain_s: 1e-3,
        replications: 1,
        seed_group,
    };
    let net = build_network(&cell, master_seed, 0);
    net.run(master_seed ^ seed_group, horizon_s).stats
}

/// The three generator families the sweeps exercise, sized for a
/// debug-build test budget.
const TOPOLOGIES: [TopologyKind; 3] = [
    TopologyKind::FatTree { k: 4 },
    TopologyKind::Mesh2D { rows: 3, cols: 3 },
    TopologyKind::BarabasiAlbert {
        n: 16,
        m: 2,
        seed: 3,
    },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Injected == delivered + dropped + in-flight at the drained
    /// horizon, on every topology × architecture, under router-fault
    /// schedules with arbitrary seeds.
    #[test]
    fn network_conserves_packets_under_router_faults(
        master_seed in any::<u64>(),
        k in 1u32..4,
    ) {
        for topology in TOPOLOGIES {
            for arch in [ArchKind::Bdr, ArchKind::Dra] {
                let faults = TopoFaultSpec::FailRouters { k, at_s: 1e-3 };
                let s = run_cell(topology, arch, faults, master_seed, k as u64);
                prop_assert!(s.injected > 0, "{topology:?}/{arch:?}: no traffic");
                prop_assert_eq!(
                    s.injected,
                    s.delivered + s.dropped_total() + s.in_flight,
                    "{:?}/{:?}: conservation violated", topology, arch
                );
                prop_assert!(s.conserved());
            }
        }
    }

    /// Same invariant under sampled renewal fault/repair timelines —
    /// the schedules the committed sweeps cannot enumerate by hand.
    #[test]
    fn network_conserves_packets_under_renewal_faults(
        master_seed in any::<u64>(),
        // Paper-rate MTTFs are O(10^4) hours; this compression lands
        // several fault/repair events inside the 4 ms horizon.
        delay_scale in 5e-8f64..2e-6,
    ) {
        for topology in TOPOLOGIES {
            for arch in [ArchKind::Bdr, ArchKind::Dra] {
                let faults = TopoFaultSpec::Renewal {
                    delay_scale,
                    repair_h: 200.0,
                };
                let s = run_cell(topology, arch, faults, master_seed, 99);
                prop_assert_eq!(
                    s.injected,
                    s.delivered + s.dropped_total() + s.in_flight,
                    "{:?}/{:?}: conservation violated", topology, arch
                );
                prop_assert!(s.conserved());
            }
        }
    }
}

/// A healthy network delivers every injected packet — conservation's
/// degenerate case, pinned deterministically for all three topologies
/// and both architectures.
#[test]
fn healthy_network_delivers_everything_everywhere() {
    for topology in TOPOLOGIES {
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            let s = run_cell(topology, arch, TopoFaultSpec::None, 0xD8A_70B0, 0);
            assert!(s.injected > 0, "{topology:?}/{arch:?}");
            assert_eq!(s.delivered, s.injected, "{topology:?}/{arch:?}");
            assert_eq!(s.in_flight, 0, "{topology:?}/{arch:?}");
            assert!(s.conserved());
        }
    }
}
