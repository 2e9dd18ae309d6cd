//! Per-node seed derivation for co-simulated routers.
//!
//! The campaign layer already derives per-(cell, replication, stream)
//! seeds with SplitMix64 ([`dra_campaign::seed`]). The network layer
//! adds one more coordinate — the **node id** — so that N routers
//! simulated inside one cell never share randomness: each node's
//! sampled fault timeline draws from a private SplitMix64 stream, and
//! flow placement draws from the same family under a reserved tag.
//!
//! Why streams stay disjoint: [`splitmix64`] advances its state by a
//! fixed odd increment γ and outputs a bijective mix of the state, so
//! stream *i* is `mix(sᵢ + k·γ)` for draw k. Two streams can only
//! collide within their first D draws if their derived starting states
//! differ by less than D multiples of γ — a ~2⁻⁵⁰ event for D = 10⁴
//! under the avalanche mixing of `node_seed`, and a *fixed* property
//! of the released constants (the proptest in
//! `crates/topo/tests/proptest_seeds.rs` pins it).

use dra_campaign::seed::splitmix64;

/// Domain separator so node streams can never replay a campaign
/// cell/replication stream ("topo node" in hexspeak).
const NODE_DOMAIN: u64 = 0x7090_40DE;

/// Derive the seed of node `node`'s private stream from a cell-level
/// base seed (itself produced by [`dra_campaign::seed::derive_seed`]).
pub(crate) fn node_seed(base: u64, node: u64) -> u64 {
    let mut s = base ^ NODE_DOMAIN.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let _ = splitmix64(&mut s);
    s ^= node.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let _ = splitmix64(&mut s);
    splitmix64(&mut s)
}

/// The SplitMix64 stream rooted at `node_seed``(base, node)`.
#[derive(Debug, Clone)]
pub struct NodeSeedStream {
    state: u64,
}

impl NodeSeedStream {
    /// Stream for `node` under `base`.
    pub fn new(base: u64, node: u64) -> Self {
        NodeSeedStream {
            state: node_seed(base, node),
        }
    }
}

impl Iterator for NodeSeedStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(splitmix64(&mut self.state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_seed_is_deterministic_and_node_sensitive() {
        assert_eq!(node_seed(1, 2), node_seed(1, 2));
        assert_ne!(node_seed(1, 2), node_seed(1, 3));
        assert_ne!(node_seed(1, 2), node_seed(2, 2));
    }

    #[test]
    fn stream_matches_repeated_splitmix() {
        let mut st = NodeSeedStream::new(5, 9);
        let mut state = node_seed(5, 9);
        for _ in 0..100 {
            assert_eq!(st.next(), Some(splitmix64(&mut state)));
        }
    }
}
