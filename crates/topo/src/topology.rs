//! Topology generation: fat-tree(k), 2-D mesh, Barabási–Albert.
//!
//! A [`Topology`] is an undirected connected graph of router nodes.
//! Each node's links are numbered by **port**: port `p` of node `n`
//! leads to `adj[n][p]` (neighbors sorted ascending, so port numbering
//! is a pure function of the graph). Every node additionally owns one
//! **host port** — index `degree(n)` — where end-to-end flows enter
//! and leave; in the router model each port maps 1:1 onto a linecard.
//!
//! All three generators are deterministic: fat-tree and mesh are
//! closed-form, and Barabási–Albert draws its attachments from a
//! SplitMix64 stream seeded by a value carried *in the spec*, so the
//! same spec always yields the same graph.

use dra_campaign::seed::splitmix64;

/// Which topology to build, with its parameters.
///
/// The variants carry everything needed to regenerate the graph, so a
/// `TopologyKind` in a spec manifest pins the topology byte-for-byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologyKind {
    /// k-ary fat-tree (k even, ≥ 2): k²/4 core, k·k/2 aggregation and
    /// k·k/2 edge switches; flows attach at edge switches only.
    FatTree {
        /// Arity (ports per switch in the classic construction).
        k: u32,
    },
    /// rows × cols 2-D mesh (no wraparound); flows attach everywhere.
    Mesh2D {
        /// Grid rows.
        rows: u32,
        /// Grid columns.
        cols: u32,
    },
    /// Barabási–Albert preferential attachment: start from a complete
    /// graph on `m + 1` nodes, then attach each new node to `m`
    /// distinct existing nodes with probability proportional to
    /// degree. Flows attach everywhere.
    BarabasiAlbert {
        /// Final node count.
        n: u32,
        /// Edges added per new node (≥ 2 so every node has degree ≥ 2).
        m: u32,
        /// Seed of the SplitMix64 attachment stream (part of the spec).
        seed: u64,
    },
}

impl TopologyKind {
    /// Short stable label for artifacts and cell ids.
    pub fn label(&self) -> String {
        match self {
            TopologyKind::FatTree { k } => format!("fat-tree-k{k}"),
            TopologyKind::Mesh2D { rows, cols } => format!("mesh-{rows}x{cols}"),
            TopologyKind::BarabasiAlbert { n, m, .. } => format!("ba-n{n}-m{m}"),
        }
    }

    /// Number of router nodes the topology will have (closed form, no
    /// graph built).
    pub(crate) fn n_nodes(&self) -> usize {
        match *self {
            TopologyKind::FatTree { k } => 5 * (k as usize).pow(2) / 4,
            TopologyKind::Mesh2D { rows, cols } => rows as usize * cols as usize,
            TopologyKind::BarabasiAlbert { n, .. } => n as usize,
        }
    }
}

/// A generated topology: sorted adjacency plus derived port tables.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The generating parameters.
    pub kind: TopologyKind,
    /// `adj[n]` = neighbor ids of node `n`, sorted ascending; the
    /// index within the vector is the port number.
    pub adj: Vec<Vec<u32>>,
    /// `rev_port[n][p]` = the port on neighbor `adj[n][p]` that leads
    /// back to `n` (needed to tag the ingress linecard on arrival).
    pub rev_port: Vec<Vec<u16>>,
    /// Nodes where flows may source/sink (edge switches in a fat-tree;
    /// every node otherwise).
    pub hosts: Vec<u32>,
}

impl Topology {
    /// Generate the topology for `kind`.
    ///
    /// # Panics
    /// Panics on degenerate parameters (odd/too-small fat-tree k,
    /// single-node meshes, BA with `m < 2` or `n ≤ m`).
    pub fn build(kind: TopologyKind) -> Topology {
        let (edges, n, hosts) = match kind {
            TopologyKind::FatTree { k } => fat_tree_edges(k),
            TopologyKind::Mesh2D { rows, cols } => mesh_edges(rows, cols),
            TopologyKind::BarabasiAlbert { n, m, seed } => ba_edges(n, m, seed),
        };
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n as usize];
        for &(a, b) in &edges {
            assert!(a != b && a < n && b < n, "bad edge ({a},{b}) of {n}");
            adj[a as usize].push(b);
            adj[b as usize].push(a);
        }
        for nb in &mut adj {
            nb.sort_unstable();
            let before = nb.len();
            nb.dedup();
            assert_eq!(before, nb.len(), "parallel edges");
        }
        let rev_port = adj
            .iter()
            .enumerate()
            .map(|(node, nb)| {
                nb.iter()
                    .map(|&peer| {
                        adj[peer as usize]
                            .binary_search(&(node as u32))
                            .expect("undirected edge") as u16
                    })
                    .collect()
            })
            .collect();
        let topo = Topology {
            kind,
            adj,
            rev_port,
            hosts,
        };
        assert!(topo.is_connected(), "generated topology not connected");
        topo
    }

    /// Number of router nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected links.
    pub(crate) fn n_links(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Link degree of `node` (host port excluded).
    pub(crate) fn degree(&self, node: u32) -> usize {
        self.adj[node as usize].len()
    }

    /// The port (= linecard) where flows enter/leave `node`.
    pub(crate) fn host_port(&self, node: u32) -> u16 {
        self.degree(node) as u16
    }

    /// Linecards a router at `node` needs: one per link, one for the
    /// host side, and at least 3 (the DRA coverage model's minimum).
    pub(crate) fn n_lcs(&self, node: u32) -> usize {
        (self.degree(node) + 1).max(3)
    }

    fn is_connected(&self) -> bool {
        let n = self.n_nodes();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &w in &self.adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    count += 1;
                    stack.push(w);
                }
            }
        }
        count == n
    }
}

/// Classic k-ary fat-tree at switch granularity. Node numbering:
/// cores `0..k²/4`, then per pod `p` the k/2 aggregation switches,
/// then the k/2 edge switches, pods in order.
fn fat_tree_edges(k: u32) -> (Vec<(u32, u32)>, u32, Vec<u32>) {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree k must be even and >= 2"
    );
    let half = k / 2;
    let n_core = half * half;
    let agg0 = n_core;
    let n = n_core + k * half * 2;
    let agg = |pod: u32, a: u32| agg0 + pod * k + a;
    let edge = |pod: u32, e: u32| agg0 + pod * k + half + e;
    let mut edges = Vec::new();
    let mut hosts = Vec::new();
    for pod in 0..k {
        for a in 0..half {
            // Aggregation switch `a` uplinks to core group `a`.
            for y in 0..half {
                edges.push((a * half + y, agg(pod, a)));
            }
            // Full bipartite agg ↔ edge inside the pod.
            for e in 0..half {
                edges.push((agg(pod, a), edge(pod, e)));
            }
        }
        for e in 0..half {
            hosts.push(edge(pod, e));
        }
    }
    (edges, n, hosts)
}

/// rows × cols grid, 4-neighborhood, no wraparound.
fn mesh_edges(rows: u32, cols: u32) -> (Vec<(u32, u32)>, u32, Vec<u32>) {
    assert!(rows >= 2 && cols >= 2, "mesh needs rows, cols >= 2");
    let id = |r: u32, c: u32| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    let n = rows * cols;
    (edges, n, (0..n).collect())
}

/// Barabási–Albert via the repeated-endpoint trick: sampling a
/// uniform entry of the flat endpoint list is sampling a node with
/// probability proportional to its degree.
fn ba_edges(n: u32, m: u32, seed: u64) -> (Vec<(u32, u32)>, u32, Vec<u32>) {
    assert!(m >= 2, "BA needs m >= 2 so every node has degree >= 2");
    assert!(n > m, "BA needs n > m");
    let mut state = seed;
    let mut edges = Vec::new();
    let mut endpoints: Vec<u32> = Vec::new();
    // Seed clique on m + 1 nodes.
    for a in 0..=m {
        for b in (a + 1)..=m {
            edges.push((a, b));
            endpoints.push(a);
            endpoints.push(b);
        }
    }
    for v in (m + 1)..n {
        let mut targets: Vec<u32> = Vec::new();
        while (targets.len() as u32) < m {
            let pick = endpoints[(splitmix64(&mut state) % endpoints.len() as u64) as usize];
            if !targets.contains(&pick) {
                targets.push(pick);
            }
        }
        for t in targets {
            edges.push((t, v));
            endpoints.push(t);
            endpoints.push(v);
        }
    }
    (edges, n, (0..n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fat_tree_4_shape() {
        let t = Topology::build(TopologyKind::FatTree { k: 4 });
        assert_eq!(t.n_nodes(), 20, "4 core + 8 agg + 8 edge");
        assert_eq!(t.n_links(), 32, "16 core-agg + 16 agg-edge");
        assert_eq!(t.hosts.len(), 8, "edge switches only");
        for core in 0..4u32 {
            assert_eq!(t.degree(core), 4, "core fans to every pod");
        }
        for &h in &t.hosts {
            assert_eq!(t.degree(h), 2, "edge uplinks = k/2");
            assert_eq!(t.n_lcs(h), 3);
        }
    }

    #[test]
    fn mesh_shape_and_ports() {
        let t = Topology::build(TopologyKind::Mesh2D { rows: 4, cols: 4 });
        assert_eq!(t.n_nodes(), 16);
        assert_eq!(t.n_links(), 24);
        assert_eq!(t.degree(0), 2, "corner");
        assert_eq!(t.degree(5), 4, "interior");
        assert_eq!(t.hosts.len(), 16);
        // rev_port round-trips.
        for n in 0..16u32 {
            for (p, &peer) in t.adj[n as usize].iter().enumerate() {
                let back = t.rev_port[n as usize][p] as usize;
                assert_eq!(t.adj[peer as usize][back], n);
            }
        }
    }

    #[test]
    fn ba_is_deterministic_and_min_degree() {
        let kind = TopologyKind::BarabasiAlbert {
            n: 64,
            m: 2,
            seed: 7,
        };
        let a = Topology::build(kind);
        let b = Topology::build(kind);
        assert_eq!(a.adj, b.adj, "same seed, same graph");
        assert_eq!(a.n_nodes(), 64);
        assert_eq!(a.n_links(), 3 + 61 * 2, "clique(3) + 2 per newcomer");
        for v in 0..64u32 {
            assert!(a.degree(v) >= 2);
        }
        let c = Topology::build(TopologyKind::BarabasiAlbert {
            n: 64,
            m: 2,
            seed: 8,
        });
        assert_ne!(a.adj, c.adj, "different seed, different graph");
    }

    #[test]
    fn closed_form_node_counts_match_the_built_graphs() {
        for kind in [
            TopologyKind::FatTree { k: 2 },
            TopologyKind::FatTree { k: 4 },
            TopologyKind::FatTree { k: 6 },
            TopologyKind::Mesh2D { rows: 3, cols: 5 },
            TopologyKind::BarabasiAlbert {
                n: 40,
                m: 3,
                seed: 1,
            },
        ] {
            assert_eq!(kind.n_nodes(), Topology::build(kind).n_nodes(), "{kind:?}");
        }
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(TopologyKind::FatTree { k: 4 }.label(), "fat-tree-k4");
        assert_eq!(
            TopologyKind::Mesh2D { rows: 4, cols: 4 }.label(),
            "mesh-4x4"
        );
        assert_eq!(
            TopologyKind::BarabasiAlbert {
                n: 64,
                m: 2,
                seed: 7
            }
            .label(),
            "ba-n64-m2"
        );
    }
}
