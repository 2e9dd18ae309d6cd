//! Topology-derived routing: shortest paths compiled into per-node
//! DIR-24-8 FIBs.
//!
//! Every node `i` owns the /24 prefix `10.(i >> 8).(i & 255).0/24`.
//! Routes are min-hop with a **lowest-neighbor-id tie-break**, computed
//! by one BFS per destination — a pure function of the graph, so every
//! run (and every worker) derives the identical forwarding state. The
//! next-hop tables are then compiled into one [`Dir248Fib`] per node:
//! the same flat lookup structure the single-router ingress path uses,
//! so network-level forwarding exercises the production FIB code. The
//! base array of an untouched DIR-24-8 is copy-on-write zero pages, so
//! N per-node instances cost resident memory only for the prefixes
//! actually inserted.

use crate::topology::Topology;
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{Dir248Fib, Fib};

/// The /24 prefix owned by `node` (valid for node ids < 2¹⁶).
pub fn node_prefix(node: u32) -> Ipv4Prefix {
    assert!(node < 1 << 16, "node id exceeds the 10.x.y/24 plan");
    Ipv4Prefix::new(
        Ipv4Addr((10 << 24) | ((node >> 8) << 16) | ((node & 0xff) << 8)),
        24,
    )
}

/// A host address inside `node`'s prefix (low byte from `host`).
pub fn node_addr(node: u32, host: u64) -> Ipv4Addr {
    Ipv4Addr(node_prefix(node).addr().0 | (host as u32 & 0xff))
}

/// The longest routed path, in links, a packet can travel: its `u8`
/// hop count covers the routers visited, one more than the links.
pub const MAX_DIAMETER: u32 = u8::MAX as u32 - 1;

/// Dense next-hop tables: `next_port[n][d]` is the egress port of
/// node `n` for traffic to node `d` (`n`'s host port when `n == d`).
#[derive(Debug, Clone)]
pub struct RouteTables {
    /// Per-node, per-destination egress ports.
    pub next_port: Vec<Vec<u16>>,
    /// Longest min-hop path between any two nodes, in links.
    pub diameter: u32,
}

impl RouteTables {
    /// Derive min-hop routes for `topo` (BFS per destination,
    /// lowest-id tie-break).
    pub fn derive(topo: &Topology) -> RouteTables {
        let n = topo.n_nodes();
        let mut next_port = vec![vec![0u16; n]; n];
        let mut dist = vec![0u32; n];
        let mut queue = std::collections::VecDeque::new();
        let mut diameter = 0;
        for dst in 0..n as u32 {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            dist[dst as usize] = 0;
            queue.clear();
            queue.push_back(dst);
            while let Some(v) = queue.pop_front() {
                for &w in &topo.adj[v as usize] {
                    if dist[w as usize] == u32::MAX {
                        dist[w as usize] = dist[v as usize] + 1;
                        queue.push_back(w);
                    }
                }
            }
            diameter = diameter.max(dist.iter().copied().max().unwrap_or(0));
            for node in 0..n as u32 {
                if node == dst {
                    next_port[node as usize][dst as usize] = topo.host_port(node);
                    continue;
                }
                assert!(dist[node as usize] != u32::MAX, "unreachable node");
                // Sorted adjacency + strict `<` ⇒ lowest-id tie-break.
                let mut best: Option<(u32, u16)> = None;
                for (p, &nb) in topo.adj[node as usize].iter().enumerate() {
                    let d = dist[nb as usize];
                    if best.is_none_or(|(bd, _)| d < bd) {
                        best = Some((d, p as u16));
                    }
                }
                let (bd, bp) = best.expect("connected graph");
                debug_assert_eq!(bd, dist[node as usize] - 1, "min-hop step");
                next_port[node as usize][dst as usize] = bp;
            }
        }
        RouteTables {
            next_port,
            diameter,
        }
    }

    /// Hop count from `src` to `dst` following the tables (for tests
    /// and latency sanity bounds).
    pub fn hops(&self, topo: &Topology, src: u32, dst: u32) -> usize {
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let p = self.next_port[at as usize][dst as usize];
            at = topo.adj[at as usize][p as usize];
            hops += 1;
            assert!(hops <= topo.n_nodes(), "routing loop {src}->{dst}");
        }
        hops
    }
}

/// Compile the route tables into one DIR-24-8 FIB per node: prefix of
/// every destination node → egress port.
pub fn compile_fibs(topo: &Topology, routes: &RouteTables) -> Vec<Dir248Fib> {
    let n = topo.n_nodes();
    (0..n)
        .map(|node| {
            let mut fib = Dir248Fib::with_capacity(n);
            for dst in 0..n {
                fib.insert(node_prefix(dst as u32), routes.next_port[node][dst]);
            }
            fib
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyKind;

    #[test]
    fn prefixes_are_disjoint_per_node() {
        let a = node_prefix(3);
        let b = node_prefix(259); // 10.1.3.0/24 vs 10.0.3.0/24
        assert_ne!(a, b);
        assert!(a.contains(node_addr(3, 77)));
        assert!(!a.contains(node_addr(259, 77)));
    }

    #[test]
    fn routes_terminate_min_hop_on_all_topologies() {
        for kind in [
            TopologyKind::FatTree { k: 4 },
            TopologyKind::Mesh2D { rows: 4, cols: 4 },
            TopologyKind::BarabasiAlbert {
                n: 32,
                m: 2,
                seed: 9,
            },
        ] {
            let topo = Topology::build(kind);
            let routes = RouteTables::derive(&topo);
            let n = topo.n_nodes() as u32;
            for s in 0..n {
                for d in 0..n {
                    let h = routes.hops(&topo, s, d);
                    if s == d {
                        assert_eq!(h, 0);
                    } else {
                        assert!(h >= 1 && h <= topo.n_nodes());
                    }
                }
            }
            let longest = (0..n)
                .flat_map(|s| (0..n).map(move |d| (s, d)))
                .map(|(s, d)| routes.hops(&topo, s, d))
                .max();
            assert_eq!(longest, Some(routes.diameter as usize));
            // Mesh distances are Manhattan; spot-check corners.
            if kind == (TopologyKind::Mesh2D { rows: 4, cols: 4 }) {
                assert_eq!(routes.hops(&topo, 0, 15), 6);
                assert_eq!(routes.diameter, 6);
            }
        }
    }

    #[test]
    fn fibs_agree_with_tables() {
        // Every topology a registry sweep names, fat-tree(4) through
        // mesh-32x32 and BA-512, plus the 3x3 mesh of the unit tests.
        let mut kinds = vec![TopologyKind::Mesh2D { rows: 3, cols: 3 }];
        for name in crate::registry::NAMES {
            for quick in [false, true] {
                let spec = crate::registry::spec_by_name(name, quick).unwrap();
                for cell in spec.cells {
                    if !kinds.contains(&cell.topology) {
                        kinds.push(cell.topology);
                    }
                }
            }
        }
        for want in ["fat-tree-k4", "mesh-32x32", "ba-n512-m2"] {
            assert!(kinds.iter().any(|k| k.label() == want), "{want}");
        }
        for kind in kinds {
            let topo = Topology::build(kind);
            let routes = RouteTables::derive(&topo);
            let fibs = compile_fibs(&topo, &routes);
            assert_eq!(fibs.len(), topo.n_nodes());
            for (node, fib) in fibs.iter().enumerate() {
                assert_eq!(fib.len(), topo.n_nodes(), "{}", kind.label());
                for dst in 0..topo.n_nodes() as u32 {
                    assert_eq!(
                        fib.lookup(node_addr(dst, node as u64)),
                        Some(routes.next_port[node][dst as usize]),
                        "{}: node {node} -> {dst}",
                        kind.label()
                    );
                }
            }
        }
    }
}
