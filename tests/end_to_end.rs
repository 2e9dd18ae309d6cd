//! End-to-end exercises through the meta-crate `dra` public API:
//! substrate interop (FIB + SAR + fabric + DES) and full-router
//! scenarios a downstream user would write.

use dra::net::addr::{Ipv4Addr, Ipv4Prefix};
use dra::net::fib::{Dir248Fib, Fib, LinearFib};
use dra::net::packet::{Packet, PacketId};
use dra::net::protocol::ProtocolKind;
use dra::net::sar::{segment, Reassembler};
use dra::router::fabric::Crossbar;

#[test]
fn cells_survive_a_trip_through_the_fabric() {
    // A packet segmented at LC0, switched cell by cell, reassembled at
    // LC2 — the whole ingress-to-egress data path minus timing.
    let packet = Packet::new(
        PacketId(77),
        Ipv4Addr::from_octets(10, 0, 0, 1),
        Ipv4Addr::from_octets(10, 2, 0, 9),
        1400,
        ProtocolKind::Pos,
        0.0,
    );
    let cells = segment(&packet, 0, 2);
    let mut fabric = Crossbar::new(4, 256, 2, 5, 4);
    for cell in cells {
        fabric.enqueue(cell).expect("VOQ has room");
    }
    let mut reassembler = Reassembler::new();
    let mut completed = None;
    let mut moved = Vec::new();
    while !fabric.is_empty() {
        moved.clear();
        fabric.schedule_slot(&mut moved);
        for cell in &moved {
            assert_eq!(cell.dst_lc, 2);
            if let Ok(Some(done)) = reassembler.push(cell, 0.0) {
                completed = Some(done);
            }
        }
    }
    assert_eq!(completed, Some((PacketId(77), 1400)));
    assert_eq!(reassembler.in_flight(), 0);
}

#[test]
fn fib_implementations_agree_under_the_router_route_layout() {
    // The routers install 10.<lc>.0.0/16 per card; the compiled FIB
    // the linecards run must agree with the linear reference on that
    // layout plus a default route and host overrides.
    let mut lin = LinearFib::new();
    let mut dir = Dir248Fib::new();
    for lc in 0..12u16 {
        let p = Ipv4Prefix::new(Ipv4Addr::from_octets(10, lc as u8, 0, 0), 16);
        lin.insert(p, lc);
        dir.insert(p, lc);
    }
    lin.insert(Ipv4Prefix::new(Ipv4Addr(0), 0), 99);
    dir.insert(Ipv4Prefix::new(Ipv4Addr(0), 0), 99);
    lin.insert("10.3.0.7/32".parse().unwrap(), 55);
    dir.insert("10.3.0.7/32".parse().unwrap(), 55);

    let probes = [
        "10.0.0.1",
        "10.3.0.7",
        "10.3.0.8",
        "10.11.255.255",
        "192.168.1.1",
    ];
    for p in probes {
        let addr: Ipv4Addr = p.parse().unwrap();
        assert_eq!(lin.lookup(addr), dir.lookup(addr), "disagree on {p}");
    }
    assert_eq!(lin.lookup("10.3.0.7".parse().unwrap()), Some(55));
    assert_eq!(lin.lookup("192.168.1.1".parse().unwrap()), Some(99));
}

#[test]
fn protocol_engines_expose_the_pdlu_coverage_rule() {
    // The paper's PDLU rule as the planner applies it: a card whose
    // PDLU failed is covered only by a healthy peer of its protocol.
    use dra::core::coverage::{CoveragePlanner, IngressRoute, LcView};
    use dra::router::components::{ComponentKind, Health};
    use dra::router::metrics::DropCause;
    let planner = CoveragePlanner::new(true);
    for failed in ProtocolKind::ALL {
        for peer in ProtocolKind::ALL {
            let mut lcs = vec![LcView::healthy(failed, 8e9), LcView::healthy(peer, 8e9)];
            lcs[0].components.set(ComponentKind::Pdlu, Health::Failed);
            let expect = if failed == peer {
                IngressRoute::PdluCover { helper: 1 }
            } else {
                IngressRoute::Blocked(DropCause::NoCoverage)
            };
            assert_eq!(
                planner.plan_ingress(&lcs, 0, 1),
                expect,
                "{failed} PDLU, {peer} peer"
            );
        }
    }
}

#[test]
fn version_is_exported() {
    assert!(!dra::VERSION.is_empty());
}

mod full_router {
    use dra::core::sim::{DraConfig, DraRouter};
    use dra::router::bdr::BdrConfig;
    use dra::router::components::ComponentKind;

    /// A rolling-failure scenario: components fail one by one across
    /// cards, each repaired before the next fails; DRA must deliver
    /// throughout.
    #[test]
    fn rolling_failures_never_interrupt_service() {
        let mut sim = DraRouter::simulation(
            DraConfig {
                router: BdrConfig {
                    n_lcs: 5,
                    load: 0.15,
                    ..BdrConfig::default()
                },
                ..Default::default()
            },
            31,
        );
        let kinds = [
            ComponentKind::Lfe,
            ComponentKind::Sru,
            ComponentKind::Pdlu,
            ComponentKind::Lfe,
        ];
        let mut t = 0.5e-3;
        for (lc, kind) in kinds.into_iter().enumerate() {
            sim.run_until(t);
            let now = sim.now();
            sim.model_mut().fail_component_now(lc as u16, kind, now);
            t += 0.5e-3;
            sim.run_until(t);
            let now = sim.now();
            sim.model_mut().repair_lc_now(lc as u16, now);
            t += 0.2e-3;
        }
        sim.run_until(t + 1e-3);
        let m = &sim.model().metrics;
        assert!(
            m.byte_delivery_ratio() > 0.99,
            "rolling failures should be absorbed: {}",
            m.byte_delivery_ratio()
        );
        let covered: u64 = m.lcs.iter().map(|l| l.covered_packets).sum();
        assert!(covered > 0, "coverage must actually engage");
    }

    /// Two simultaneous failures of different kinds on different cards.
    #[test]
    fn concurrent_failures_of_different_kinds() {
        let mut sim = DraRouter::simulation(
            DraConfig {
                router: BdrConfig {
                    n_lcs: 6,
                    load: 0.2,
                    ..BdrConfig::default()
                },
                ..Default::default()
            },
            37,
        );
        sim.run_until(1e-3);
        let now = sim.now();
        sim.model_mut()
            .fail_component_now(0, ComponentKind::Lfe, now);
        sim.model_mut()
            .fail_component_now(3, ComponentKind::Sru, now);
        sim.run_until(3e-3);
        let m = &sim.model().metrics;
        assert!(m.lcs[0].covered_packets > 0);
        assert!(m.lcs[3].covered_packets > 0);
        assert!(m.byte_delivery_ratio() > 0.98);
    }
}
