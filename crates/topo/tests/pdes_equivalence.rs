//! The parallel engine's contract: running a network on N threads
//! produces *bit-identical* final state to the serial kernel — same
//! counters, same per-flow tallies, same Welford moments down to the
//! last mantissa bit — for every architecture and fault surface the
//! model has.
//!
//! Each case builds the same cell twice through the engine's own
//! construction path (`build_network`), runs one copy on the serial
//! oracle (`sim_threads = 1`) and one on the conservative parallel
//! engine, and compares every statistic. Thread counts above the node
//! count exercise the executor's clamp.

use dra_core::health::ArchKind;
use dra_des::stats::Welford;
use dra_topo::link::LinkConfig;
use dra_topo::net::{NetAction, NetScenario, NetworkSim};
use dra_topo::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec};
use dra_topo::stats::{NetDropCause, NetStats};
use dra_topo::topology::{Topology, TopologyKind};
use dra_topo::{build_network, Flow, NetConfig};

fn assert_welford_identical(a: &Welford, b: &Welford, what: &str, ctx: &str) {
    assert_eq!(a.count(), b.count(), "{ctx}: {what} count");
    assert_eq!(
        a.mean().to_bits(),
        b.mean().to_bits(),
        "{ctx}: {what} mean {} vs {}",
        a.mean(),
        b.mean()
    );
    assert_eq!(
        a.variance().to_bits(),
        b.variance().to_bits(),
        "{ctx}: {what} variance"
    );
    assert_eq!(a.min().to_bits(), b.min().to_bits(), "{ctx}: {what} min");
    assert_eq!(a.max().to_bits(), b.max().to_bits(), "{ctx}: {what} max");
}

fn assert_stats_identical(a: &NetStats, b: &NetStats, ctx: &str) {
    assert_eq!(a.injected, b.injected, "{ctx}: injected");
    assert_eq!(a.delivered, b.delivered, "{ctx}: delivered");
    assert_eq!(a.in_flight, b.in_flight, "{ctx}: in_flight");
    assert_eq!(a.drops, b.drops, "{ctx}: drops");
    assert_eq!(a.flow_injected, b.flow_injected, "{ctx}: flow_injected");
    assert_eq!(a.flow_delivered, b.flow_delivered, "{ctx}: flow_delivered");
    assert_welford_identical(&a.latency, &b.latency, "latency", ctx);
    assert_welford_identical(&a.hops, &b.hops, "hops", ctx);
    assert!(a.conserved(), "{ctx}: serial conservation");
    assert!(b.conserved(), "{ctx}: parallel conservation");
}

fn cell(arch: ArchKind, topology: TopologyKind, faults: TopoFaultSpec) -> TopoCellSpec {
    TopoCellSpec {
        id: "equiv".into(),
        arch,
        topology,
        link: LinkConfig::default(),
        flows: FlowSpec {
            n_flows: 8,
            rate_pps: 20_000.0,
            packet_bytes: 700,
        },
        faults,
        horizon_s: 10e-3,
        drain_s: 2.5e-3,
        replications: 1,
        seed_group: 0,
    }
}

fn run_at(c: &TopoCellSpec, threads: usize) -> NetStats {
    let mut net = build_network(c, 0xD8A_70B0, 0);
    net.cfg.sim_threads = threads;
    let done = net.run(42, c.horizon_s);
    done.stats
}

#[test]
fn parallel_matches_serial_across_faults_and_archs() {
    let mesh = TopologyKind::Mesh2D { rows: 4, cols: 4 };
    let fat = TopologyKind::FatTree { k: 4 };
    let faults = [
        TopoFaultSpec::None,
        TopoFaultSpec::FailRouters { k: 2, at_s: 2e-3 },
        TopoFaultSpec::FailLinks { k: 3, at_s: 2e-3 },
        // ~100 compressed fault-hours with hot-swap repair: exercises
        // the routers' private fault timelines under lazy advance.
        TopoFaultSpec::Renewal {
            delay_scale: 1e-4,
            repair_h: 10.0,
        },
    ];
    for topology in [mesh, fat] {
        for arch in [ArchKind::Bdr, ArchKind::Dra] {
            for fault in faults {
                let c = cell(arch, topology, fault);
                let ctx = format!("{:?}/{}/{}", arch, topology.label(), fault.label());
                let serial = run_at(&c, 1);
                assert!(serial.injected > 0, "{ctx}: degenerate case");
                for threads in [2, 4, 64] {
                    let parallel = run_at(&c, threads);
                    assert_stats_identical(&serial, &parallel, &format!("{ctx} x{threads}"));
                }
            }
        }
    }
}

#[test]
fn parallel_matches_serial_through_link_repair() {
    // Cut-then-repair mid-run: the repaired directions must come back
    // with a clean backlog in both engines (the `set_up` contract).
    let run_with = |threads: usize| {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 3, cols: 3 });
        let cfg = NetConfig {
            traffic_stop_s: 7.5e-3,
            sim_threads: threads,
            ..NetConfig::default()
        };
        let flows = vec![
            Flow {
                src: 0,
                dst: 8,
                rate_pps: 40_000.0,
            },
            Flow {
                src: 6,
                dst: 2,
                rate_pps: 40_000.0,
            },
        ];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows);
        let sc = NetScenario::new()
            .at(2e-3, NetAction::FailLink { a: 0, b: 1 })
            .at(2e-3, NetAction::FailLink { a: 0, b: 3 })
            .at(5e-3, NetAction::RepairLink { a: 0, b: 1 });
        net.set_scenario(&sc);
        net.run(7, 10e-3).stats
    };
    let serial = run_with(1);
    assert!(
        serial.drops[NetDropCause::LinkDown.index()] > 0,
        "scenario must exercise the down window"
    );
    assert!(
        serial.delivered > 0,
        "scenario must deliver again after repair"
    );
    for threads in [2, 3, 9] {
        assert_stats_identical(&serial, &run_with(threads), &format!("repair x{threads}"));
    }
}

#[test]
fn parallel_matches_serial_with_heterogeneous_latencies() {
    // Adaptive windows: a mesh with one slow WAN-ish edge and one
    // extra-fast edge. The parallel engine's window width must come
    // from the *minimum* attached latency (the fast edge), and
    // messages over the slow edge arrive many windows early — both
    // paths must still reproduce the serial kernel bit-for-bit.
    let run_with = |threads: usize| {
        let topo = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
        let cfg = NetConfig {
            traffic_stop_s: 7.5e-3,
            sim_threads: threads,
            ..NetConfig::default()
        };
        let flows = vec![
            Flow {
                src: 0,
                dst: 15,
                rate_pps: 40_000.0,
            },
            Flow {
                src: 12,
                dst: 3,
                rate_pps: 40_000.0,
            },
            Flow {
                src: 5,
                dst: 10,
                rate_pps: 20_000.0,
            },
        ];
        let mut net = NetworkSim::new(topo, ArchKind::Dra, cfg, flows);
        // Default is 10 µs everywhere; stretch 5-6 to 80 µs (a slow
        // edge on every 0→15 shortest path family) and shrink 9-10 to
        // 2 µs, which becomes the conservative lookahead.
        net.set_link_latency(5, 6, 80e-6);
        net.set_link_latency(9, 10, 2e-6);
        let sc = NetScenario::new().at(3e-3, NetAction::FailLink { a: 9, b: 10 });
        net.set_scenario(&sc);
        net.run(11, 10e-3).stats
    };
    let serial = run_with(1);
    assert!(serial.delivered > 100, "want traffic across the slow edge");
    for threads in [2, 4, 16, 64] {
        assert_stats_identical(&serial, &run_with(threads), &format!("hetero x{threads}"));
    }
}

#[test]
fn parallel_is_replication_stable_at_scale() {
    // One larger case (64 routers, the bench topology) to catch merge
    // bugs that only appear with real cross-LP traffic volume.
    let c = TopoCellSpec {
        id: "equiv-scale".into(),
        arch: ArchKind::Dra,
        topology: TopologyKind::Mesh2D { rows: 8, cols: 8 },
        link: LinkConfig::default(),
        flows: FlowSpec {
            n_flows: 24,
            rate_pps: 40_000.0,
            packet_bytes: 700,
        },
        faults: TopoFaultSpec::FailRouters { k: 4, at_s: 2e-3 },
        horizon_s: 8e-3,
        drain_s: 2e-3,
        replications: 1,
        seed_group: 3,
    };
    let serial = run_at(&c, 1);
    assert!(serial.injected > 200, "want real traffic volume");
    for threads in [2, 4, 8] {
        assert_stats_identical(&serial, &run_at(&c, threads), &format!("scale x{threads}"));
    }
}
