//! Named, versioned topo sweeps (the experiments the repo commits).

use crate::link::LinkConfig;
use crate::spec::{FlowSpec, TopoCellSpec, TopoFaultSpec, TopoSpec};
use crate::topology::TopologyKind;
use dra_core::health::ArchKind;

/// Names `spec_by_name` accepts.
pub const NAMES: [&str; 4] = ["resilience", "smoke", "scale", "scale2"];

/// Look up a named sweep (`quick` shrinks it for CI smoke runs).
pub fn spec_by_name(name: &str, quick: bool) -> Option<TopoSpec> {
    match name {
        "resilience" => Some(resilience(quick)),
        "smoke" => Some(smoke()),
        "scale" => Some(scale(quick)),
        "scale2" => Some(scale2(quick)),
        _ => None,
    }
}

fn grid(
    name: &str,
    description: &str,
    topologies: &[TopologyKind],
    ks: &[u32],
    flows: FlowSpec,
    horizon_s: f64,
    replications: u32,
) -> TopoSpec {
    let mut cells = Vec::new();
    let mut group = 0u64;
    for &topology in topologies {
        for &k in ks {
            let faults = if k == 0 {
                TopoFaultSpec::None
            } else {
                // Degrade k routers a quarter into the run, well
                // before the injection window closes.
                TopoFaultSpec::FailRouters {
                    k,
                    at_s: horizon_s * 0.25,
                }
            };
            for arch in [ArchKind::Bdr, ArchKind::Dra] {
                cells.push(TopoCellSpec {
                    id: format!("{}/{}/{}", arch.label(), topology.label(), faults.label()),
                    arch,
                    topology,
                    link: LinkConfig::default(),
                    flows,
                    faults,
                    horizon_s,
                    drain_s: horizon_s * 0.25,
                    replications,
                    seed_group: group,
                });
            }
            group += 1;
        }
    }
    TopoSpec {
        name: name.into(),
        description: description.into(),
        master_seed: 0xD8A_70B0,
        cells,
    }
}

/// The headline composed-reliability sweep: DRA vs BDR end-to-end
/// delivery ratio and flow availability as a function of concurrently
/// degraded routers, on fat-tree(4), 4×4 mesh, and BA(64).
pub fn resilience(quick: bool) -> TopoSpec {
    let topologies: &[TopologyKind] = if quick {
        &[
            TopologyKind::FatTree { k: 4 },
            TopologyKind::Mesh2D { rows: 4, cols: 4 },
        ]
    } else {
        &[
            TopologyKind::FatTree { k: 4 },
            TopologyKind::Mesh2D { rows: 4, cols: 4 },
            TopologyKind::BarabasiAlbert {
                n: 64,
                m: 2,
                seed: 7,
            },
        ]
    };
    let ks: &[u32] = if quick { &[0, 2] } else { &[0, 1, 2, 4, 8] };
    let flows = FlowSpec {
        n_flows: if quick { 8 } else { 24 },
        rate_pps: if quick { 20_000.0 } else { 40_000.0 },
        packet_bytes: 700,
    };
    grid(
        if quick {
            "resilience-quick"
        } else {
            "resilience"
        },
        "DRA vs BDR composed network reliability under k degraded routers",
        topologies,
        ks,
        flows,
        if quick { 10e-3 } else { 20e-3 },
        if quick { 1 } else { 2 },
    )
}

/// The CI smoke sweep: fat-tree(4) + 4×4 mesh, healthy and 2-degraded,
/// sized to finish in seconds (used by the `topo-smoke` job's
/// workers-1-vs-4 byte-identity check).
pub fn smoke() -> TopoSpec {
    let mut s = resilience(true);
    s.name = "smoke".into();
    s
}

/// The scaling sweep: the composed-reliability question at N = 64,
/// 128, and 256 routers. Healthy and 4-degraded twins per topology;
/// byte-identical at every worker count.
pub fn scale(quick: bool) -> TopoSpec {
    let topologies: &[TopologyKind] = if quick {
        &[TopologyKind::Mesh2D { rows: 8, cols: 8 }]
    } else {
        &[
            TopologyKind::Mesh2D { rows: 8, cols: 8 },
            TopologyKind::BarabasiAlbert {
                n: 128,
                m: 2,
                seed: 11,
            },
            TopologyKind::Mesh2D { rows: 16, cols: 16 },
        ]
    };
    let ks: &[u32] = if quick { &[0] } else { &[0, 4] };
    let flows = FlowSpec {
        n_flows: if quick { 16 } else { 48 },
        rate_pps: 40_000.0,
        packet_bytes: 700,
    };
    grid(
        if quick { "scale-quick" } else { "scale" },
        "composed reliability at N = 64-256 routers (parallel-engine workload)",
        topologies,
        ks,
        flows,
        if quick { 5e-3 } else { 10e-3 },
        1,
    )
}

/// The second scaling tier, unlocked by the interned-provenance /
/// zero-alloc engine overhaul: N ≥ 512 routers (32×32 mesh and
/// BA(512)), healthy and 4-degraded twins per topology. The quick
/// variant runs one BA(512) healthy pair, sized for a quick CI or
/// local check.
pub fn scale2(quick: bool) -> TopoSpec {
    let topologies: &[TopologyKind] = if quick {
        &[TopologyKind::BarabasiAlbert {
            n: 512,
            m: 2,
            seed: 13,
        }]
    } else {
        &[
            TopologyKind::Mesh2D { rows: 32, cols: 32 },
            TopologyKind::BarabasiAlbert {
                n: 512,
                m: 2,
                seed: 13,
            },
        ]
    };
    let ks: &[u32] = if quick { &[0] } else { &[0, 4] };
    let flows = FlowSpec {
        n_flows: if quick { 16 } else { 64 },
        rate_pps: if quick { 20_000.0 } else { 40_000.0 },
        packet_bytes: 700,
    };
    grid(
        if quick { "scale2-quick" } else { "scale2" },
        "composed reliability at N >= 512 routers (hot-path-overhaul workload)",
        topologies,
        ks,
        flows,
        if quick { 2e-3 } else { 10e-3 },
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use dra_campaign::sweep::check_spec;

    #[test]
    fn named_specs_validate() {
        for name in NAMES {
            for quick in [false, true] {
                let spec = spec_by_name(name, quick).unwrap();
                check_spec(&spec).unwrap();
                assert!(!spec.cells.is_empty());
                // BDR/DRA twins pair up: even count, shared groups.
                assert_eq!(spec.cells.len() % 2, 0);
                for pair in spec.cells.chunks(2) {
                    assert_eq!(pair[0].seed_group, pair[1].seed_group);
                    assert_ne!(pair[0].arch, pair[1].arch);
                }
            }
        }
        assert!(spec_by_name("nope", false).is_none());
    }

    #[test]
    fn scale_covers_the_target_sizes() {
        let spec = scale(false);
        let labels: Vec<String> = spec.cells.iter().map(|c| c.topology.label()).collect();
        for want in ["mesh-8x8", "ba-n128-m2", "mesh-16x16"] {
            assert!(labels.iter().any(|l| l == want), "missing {want}");
        }
    }

    #[test]
    fn scale2_reaches_512_routers() {
        let spec = scale2(false);
        let labels: Vec<String> = spec.cells.iter().map(|c| c.topology.label()).collect();
        for want in ["mesh-32x32", "ba-n512-m2"] {
            assert!(labels.iter().any(|l| l == want), "missing {want}");
        }
        for cell in &spec.cells {
            assert!(
                Topology::build(cell.topology).n_nodes() >= 512,
                "scale2 cell below the N >= 512 floor"
            );
        }
        // The quick tier stays at N >= 512 too — that's the point.
        for cell in &scale2(true).cells {
            assert!(Topology::build(cell.topology).n_nodes() >= 512);
        }
    }

    #[test]
    fn resilience_covers_the_acceptance_topologies() {
        let spec = resilience(false);
        let labels: Vec<String> = spec.cells.iter().map(|c| c.topology.label()).collect();
        for want in ["fat-tree-k4", "mesh-4x4", "ba-n64-m2"] {
            assert!(labels.iter().any(|l| l == want), "missing {want}");
        }
    }
}
