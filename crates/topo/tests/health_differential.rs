//! Differential test: `NodeHealth` against the full-simulation
//! `RouterHandle` it replaces in the network layer.
//!
//! Both are driven by identical call sequences — one action list
//! applied in time order, the way the network's `Act` events apply a
//! scenario's router actions — and every linecard's `lc_serviceable` /
//! `lc_covered` answer and the fabric flag must agree after every
//! action and at random probe times in between.

#[path = "support/router_handle.rs"]
mod router_handle;

use dra_core::health::{ArchKind, NodeHealth};
use dra_core::scenario::Action;
use dra_net::protocol::ProtocolKind;
use dra_router::bdr::BdrConfig;
use dra_router::components::ComponentKind;
use dra_topo::engine::build_network;
use dra_topo::registry::spec_by_name;
use dra_topo::{NetAction, TopoCellSpec, TopoFaultSpec, TopologyKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use router_handle::RouterHandle;

fn assert_agree(h: &NodeHealth, r: &RouterHandle, t: f64, ctx: &str) {
    assert_eq!(h.arch(), r.arch(), "{ctx}");
    assert_eq!(h.n_lcs(), r.n_lcs(), "{ctx}");
    for lc in 0..h.n_lcs() as u16 {
        assert_eq!(
            h.lc_serviceable(lc),
            r.lc_serviceable(lc),
            "{ctx} @ {t}: lc {lc} serviceable"
        );
        assert_eq!(
            h.lc_covered(lc),
            r.lc_covered(lc),
            "{ctx} @ {t}: lc {lc} covered"
        );
    }
    assert_eq!(
        h.fabric_operational(),
        r.fabric_operational(),
        "{ctx} @ {t}: fabric"
    );
}

/// Drive `h` and a fresh `RouterHandle` built from `config` through
/// `actions`, applied in time order (ties in list order), comparing
/// after every action and at `probes` random times per gap between
/// action times. Returns the number of actions applied.
fn drive(
    mut h: NodeHealth,
    config: &BdrConfig,
    horizon_s: f64,
    actions: &[(f64, Action)],
    rng: &mut SmallRng,
    probes: usize,
    ctx: &str,
) -> u64 {
    let mut r = RouterHandle::quiescent(h.arch(), config.clone(), rng.gen());
    assert_agree(&h, &r, 0.0, ctx);

    let mut actions = actions.to_vec();
    actions.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut points: Vec<f64> = actions.iter().map(|&(t, _)| t).collect();
    points.push(0.0);
    points.push(horizon_s);
    points.sort_by(f64::total_cmp);
    points.dedup();
    let mut queries = points.clone();
    for w in points.windows(2) {
        for _ in 0..probes {
            queries.push(rng.gen_range(w[0]..w[1]));
        }
    }
    queries.sort_by(f64::total_cmp);

    let mut next = 0;
    for t in queries {
        while let Some((at, action)) = actions.get(next) {
            if *at > t {
                break;
            }
            r.advance_to(*at);
            h.apply(action);
            r.apply(action);
            assert_agree(&h, &r, *at, ctx);
            next += 1;
        }
        r.advance_to(t);
        assert_agree(&h, &r, t, ctx);
    }
    assert_eq!(
        h.events_processed(),
        actions.len() as u64,
        "{ctx}: every action applied once"
    );
    h.events_processed()
}

/// A random timeline over every action kind that moves health. Times
/// sit on a coarse grid so many actions tie exactly.
fn random_timeline(
    n_lcs: usize,
    len: usize,
    horizon_s: f64,
    rng: &mut SmallRng,
) -> Vec<(f64, Action)> {
    (0..len)
        .map(|_| {
            let t = rng.gen_range(0..=64u32) as f64 * horizon_s / 64.0;
            let lc = rng.gen_range(0..n_lcs) as u16;
            let action = match rng.gen_range(0..20u32) {
                0..=9 => Action::FailComponent(
                    lc,
                    ComponentKind::ALL[rng.gen_range(0..ComponentKind::ALL.len())],
                ),
                10..=13 => Action::RepairLc(lc),
                14 => Action::FailEib,
                15 => Action::RepairEib,
                16 | 17 => Action::FailFabricPlane,
                _ => Action::RepairFabricPlane,
            };
            (t, action)
        })
        .collect()
}

#[test]
fn scripted_actions_of_every_kind_agree() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let protocol_mixes = [
        vec![ProtocolKind::Ethernet],
        vec![ProtocolKind::Ethernet, ProtocolKind::Atm, ProtocolKind::Pos],
    ];
    for arch in [ArchKind::Bdr, ArchKind::Dra] {
        for n_lcs in [3, 64, 80] {
            for (mix, protocols) in protocol_mixes.iter().enumerate() {
                for ports_per_lc in [1, 2] {
                    let config = BdrConfig {
                        n_lcs,
                        protocols: protocols.clone(),
                        ports_per_lc,
                        ..BdrConfig::default()
                    };
                    let ctx = format!("{arch:?} n_lcs={n_lcs} mix={mix} ports={ports_per_lc}");
                    let horizon_s = 0.05;
                    let len = 6 * n_lcs + 48;
                    let h = NodeHealth::new(arch, &config);
                    let actions = random_timeline(n_lcs, len, horizon_s, &mut rng);
                    let applied = drive(h, &config, horizon_s, &actions, &mut rng, 1, &ctx);
                    assert_eq!(applied, len as u64, "{ctx}");
                }
            }
        }
    }
}

/// Does building a network under `faults` attach router actions? The
/// match is exhaustive so a new fault spec must be classified here.
fn touches_node_health(faults: TopoFaultSpec) -> bool {
    match faults {
        TopoFaultSpec::None | TopoFaultSpec::FailLinks { .. } => false,
        TopoFaultSpec::FailRouters { .. } | TopoFaultSpec::Renewal { .. } => true,
    }
}

/// Every router action a network's scenario sends to `node`.
fn scripted_for(scenario: &[(f64, NetAction)], node: u32) -> Vec<(f64, Action)> {
    scenario
        .iter()
        .filter_map(|(t, a)| match a {
            NetAction::Router { node: n, action } if *n == node => Some((*t, action.clone())),
            _ => None,
        })
        .collect()
}

/// Which nodes of a built network to compare.
#[derive(Clone, Copy, PartialEq)]
enum Nodes {
    All,
    /// Nodes with any action, plus the hub.
    Active,
    /// Only the node with the most linecards.
    Hub,
}

/// Build `cell` and compare the `which` nodes. Returns the hub's
/// linecard count and the number of actions applied.
fn check_cell(
    cell: &TopoCellSpec,
    master_seed: u64,
    which: Nodes,
    rng: &mut SmallRng,
) -> (usize, u64) {
    let net = build_network(cell, master_seed, 0);
    let n_nodes = net.topo.n_nodes() as u32;
    let hub = (0..n_nodes).max_by_key(|&n| net.node(n).n_lcs()).unwrap();
    let mut applied = 0;
    for node in 0..n_nodes {
        let h = net.node(node).clone();
        let actions = scripted_for(net.scenario(), node);
        let has_actions = !actions.is_empty();
        if !touches_node_health(cell.faults) {
            assert!(!has_actions, "{}: node {node} got router actions", cell.id);
        }
        let keep = match which {
            Nodes::All => true,
            Nodes::Active => has_actions || node == hub,
            Nodes::Hub => node == hub,
        };
        if !keep {
            continue;
        }
        let config = BdrConfig {
            n_lcs: h.n_lcs(),
            ..BdrConfig::default()
        };
        let ctx = format!("{} seed {master_seed:#x} node {node}", cell.id);
        applied += drive(h, &config, cell.horizon_s, &actions, rng, 2, &ctx);
    }
    (net.node(hub).n_lcs(), applied)
}

fn with_faults(cell: &TopoCellSpec, faults: TopoFaultSpec) -> TopoCellSpec {
    TopoCellSpec {
        id: format!("{}+{}", cell.id, faults.label()),
        faults,
        ..cell.clone()
    }
}

#[test]
fn every_node_health_fault_spec_agrees() {
    let mut rng = SmallRng::seed_from_u64(0x70B0);
    let mut applied = 0;
    // The committed resilience grid: healthy and `FailRouters` with
    // k = 1..8 on fat-tree(4), a 4x4 mesh and BA(64).
    let spec = spec_by_name("resilience", false).unwrap();
    for cell in &spec.cells {
        applied += check_cell(cell, spec.master_seed, Nodes::Active, &mut rng).1;
    }
    // Cable cuts never reach router health.
    let cut = with_faults(
        &spec.cells[0],
        TopoFaultSpec::FailLinks { k: 3, at_s: 1e-3 },
    );
    assert_eq!(
        check_cell(&cut, spec.master_seed, Nodes::All, &mut rng).1,
        0
    );
    // Sampled renewal timelines on every node. Paper-rate lifetimes
    // are O(10^4) h: this compression lands about two failures per
    // card in the 20 ms horizon, and the long repair lets failures
    // overlap so DRA coverage runs out of helpers.
    let renewal = TopoFaultSpec::Renewal {
        delay_scale: 1e-7,
        repair_h: 20_000.0,
    };
    for cell in spec
        .cells
        .iter()
        .filter(|c| c.faults == TopoFaultSpec::None)
    {
        for seed in [1, 2] {
            applied += check_cell(&with_faults(cell, renewal), seed, Nodes::All, &mut rng).1;
        }
    }
    // BA(512), whose hub has exactly 64 linecards — the boundary a
    // one-word bitmask per router would sit on: the committed
    // `FailRouters` k = 4 cells, and a renewal timeline on the hub.
    let spec = spec_by_name("scale2", false).unwrap();
    for cell in &spec.cells {
        let ba512 = matches!(cell.topology, TopologyKind::BarabasiAlbert { n: 512, .. });
        if ba512 && cell.faults != TopoFaultSpec::None {
            let (hub_lcs, n) = check_cell(cell, spec.master_seed, Nodes::Active, &mut rng);
            assert_eq!(hub_lcs, 64, "{}", cell.id);
            applied += n;
            applied += check_cell(&with_faults(cell, renewal), 3, Nodes::Hub, &mut rng).1;
        }
    }
    assert!(applied > 1_000, "too few actions exercised: {applied}");
}
