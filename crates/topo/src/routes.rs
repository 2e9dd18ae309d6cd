//! Topology-derived routing: shortest paths and the one destination
//! FIB that resolves them.
//!
//! Every node `i` owns the /24 prefix `10.(i >> 8).(i & 255).0/24`.
//! Routes are min-hop with a **lowest-neighbor-id tie-break**, computed
//! by one BFS per destination — a pure function of the graph, so every
//! run (and every worker) derives the identical forwarding state.
//!
//! Every router of a topology holds the same prefix set and routes
//! never change during a run, so routers differ only in the egress
//! port they pick per destination. Forwarding is therefore split in
//! two: one production [`Dir248Fib`] per topology maps each node's
//! prefix to that node's id (the same flat lookup structure the
//! single-router ingress path uses), and a flat destination-major
//! next-hop table ([`RouteTables`]) maps `(node, destination id)` to
//! the egress port. A topology costs one 64 MiB base array, mostly
//! copy-on-write zero pages, plus N² × 2 bytes of next hops (2 MiB at
//! N = 1,024), instead of N base arrays.

use crate::topology::Topology;
use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{Dir248Fib, Fib};

/// The /24 prefix owned by `node` (valid for node ids < 2¹⁶).
pub(crate) fn node_prefix(node: u32) -> Ipv4Prefix {
    assert!(node < 1 << 16, "node id exceeds the 10.x.y/24 plan");
    Ipv4Prefix::new(
        Ipv4Addr((10 << 24) | ((node >> 8) << 16) | ((node & 0xff) << 8)),
        24,
    )
}

/// A host address inside `node`'s prefix (low byte from `host`).
pub(crate) fn node_addr(node: u32, host: u64) -> Ipv4Addr {
    Ipv4Addr(node_prefix(node).addr().0 | (host as u32 & 0xff))
}

/// The longest routed path, in links, a packet can travel: its `u8`
/// hop count covers the routers visited, one more than the links.
pub(crate) const MAX_DIAMETER: u32 = u8::MAX as u32 - 1;

/// Dense next-hop table, destination-major: the egress port of every
/// node toward every destination (the node's host port when the two
/// are equal).
#[derive(Debug, Clone)]
pub struct RouteTables {
    /// `by_dst[dst * n + node]`: egress port of `node` toward `dst`.
    by_dst: Vec<u16>,
    /// Node count `n`.
    n: usize,
    /// Longest min-hop path between any two nodes, in links.
    pub diameter: u32,
}

impl RouteTables {
    /// Derive min-hop routes for `topo` (BFS per destination,
    /// lowest-id tie-break).
    ///
    /// # Panics
    /// Panics when the graph is disconnected.
    pub fn derive(topo: &Topology) -> RouteTables {
        let n = topo.n_nodes();
        let mut by_dst = vec![0u16; n * n];
        let mut dist = vec![u32::MAX; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut diameter = 0;
        for (dst, ports) in by_dst.chunks_exact_mut(n.max(1)).enumerate() {
            dist.fill(u32::MAX);
            dist[dst] = 0;
            queue.clear();
            queue.push(dst as u32);
            let mut head = 0;
            ports[dst] = topo.host_port(dst as u32);
            while let Some(&v) = queue.get(head) {
                head += 1;
                let next = dist[v as usize] + 1;
                for (&w, &back) in topo.adj[v as usize].iter().zip(&topo.rev_port[v as usize]) {
                    let w = w as usize;
                    // `back` is `v`'s index in `w`'s sorted adjacency,
                    // so the smallest one over the previous level is
                    // the lowest-id neighbour one hop closer.
                    if dist[w] == u32::MAX {
                        dist[w] = next;
                        ports[w] = back;
                        queue.push(w as u32);
                    } else if dist[w] == next {
                        ports[w] = ports[w].min(back);
                    }
                }
            }
            assert_eq!(queue.len(), n, "unreachable node");
            // BFS dequeues in distance order: the last node is farthest.
            diameter = diameter.max(dist[queue[n - 1] as usize]);
        }
        RouteTables {
            by_dst,
            n,
            diameter,
        }
    }

    /// Egress port of `node` toward `dst`.
    #[inline]
    pub(crate) fn port(&self, node: u32, dst: u32) -> u16 {
        self.by_dst[dst as usize * self.n + node as usize]
    }

    /// Nodes the routes were derived for.
    pub(crate) fn n_nodes(&self) -> usize {
        self.n
    }

    /// Hop count from `src` to `dst` following the tables (the route
    /// tests' oracle).
    #[cfg(test)]
    pub(crate) fn hops(&self, topo: &Topology, src: u32, dst: u32) -> usize {
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let p = self.port(at, dst);
            at = topo.adj[at as usize][p as usize];
            hops += 1;
            assert!(hops <= topo.n_nodes(), "routing loop {src}->{dst}");
        }
        hops
    }
}

/// Compile `topo`'s destination FIB: every node's prefix
/// (`node_prefix`) → that node's id. Paired with the next-hop table
/// `routes` it resolves every node's forwarding, so a topology needs
/// one FIB, not one per node.
///
/// # Panics
/// Panics when `routes` was derived for a topology of another size.
pub fn compile_fibs(topo: &Topology, routes: &RouteTables) -> Dir248Fib {
    let n = topo.n_nodes();
    assert_eq!(routes.n, n, "route tables derived for another topology");
    let mut fib = Dir248Fib::with_capacity(n);
    for dst in 0..n as u32 {
        // `node_prefix` asserts `dst < 2¹⁶`, so the id fits the next hop.
        fib.insert(node_prefix(dst), dst as u16);
    }
    fib
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::Forwarding;
    use crate::topology::TopologyKind;
    use dra_net::fib::LinearFib;

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

    /// Per-node reference FIBs: every destination's prefix → the
    /// egress port an independent BFS picks (smallest distance, lowest
    /// port on ties).
    fn reference_fibs(topo: &Topology) -> Vec<LinearFib> {
        let n = topo.n_nodes();
        let mut fibs = vec![LinearFib::new(); n];
        for dst in 0..n {
            let mut dist = vec![usize::MAX; n];
            dist[dst] = 0;
            let mut frontier = vec![dst];
            while !frontier.is_empty() {
                let mut next = Vec::new();
                for v in frontier {
                    for &w in &topo.adj[v] {
                        if dist[w as usize] == usize::MAX {
                            dist[w as usize] = dist[v] + 1;
                            next.push(w as usize);
                        }
                    }
                }
                frontier = next;
            }
            for (node, fib) in fibs.iter_mut().enumerate() {
                let port = if node == dst {
                    topo.host_port(node as u32)
                } else {
                    let nearest = (0..topo.adj[node].len())
                        .min_by_key(|&p| (dist[topo.adj[node][p] as usize], p));
                    nearest.expect("connected graph") as u16
                };
                fib.insert(node_prefix(dst as u32), port);
            }
        }
        fibs
    }

    #[test]
    fn forwarding_agrees_with_per_node_reference_fibs() {
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
            let forwarding = Forwarding::compile(&topo);
            let n = topo.n_nodes() as u32;
            // Addresses no node's prefix covers: the next node id's
            // /24, and one outside 10.0.0.0/8.
            let unrouted = [node_addr(n, 1), Ipv4Addr(11 << 24 | 1)];
            for (node, fib) in reference_fibs(&topo).iter().enumerate() {
                let node = node as u32;
                assert_eq!(fib.len(), n as usize, "{}", kind.label());
                for dst in 0..n {
                    let addr = node_addr(dst, node as u64);
                    let want = fib.lookup(addr);
                    assert!(want.is_some());
                    assert_eq!(
                        forwarding.egress(node, addr),
                        want,
                        "{}: node {node} -> {dst}",
                        kind.label()
                    );
                }
                for addr in unrouted {
                    assert_eq!(forwarding.egress(node, addr), None, "{}", kind.label());
                }
            }
        }
    }
}
