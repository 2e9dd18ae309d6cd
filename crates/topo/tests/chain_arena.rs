//! Property tests for the interned provenance arena: arena ordering
//! is bit-identical to the retained `Vec<f64>` reference comparator
//! over random chain *forests* (shared prefixes, exact-tie times,
//! independent bottoms), and epoch recycling never aliases a live
//! chain.

use dra_topo::chain::{chain_cmp_ref, ChainArena, NIL};
use proptest::prelude::*;

/// A random forest: node `i` picks a parent among nodes `0..i` (or
/// none), with pop times drawn from a deliberately tiny pool so exact
/// `f64` ties and shared-prefix collisions are the common case, not
/// the exception.
#[derive(Debug, Clone)]
struct Forest {
    /// `(time_index, parent)`; parent = `usize::MAX` for a root.
    nodes: Vec<(usize, usize)>,
}

const TIME_POOL: [f64; 6] = [0.0, -0.0, 1.0, 1.5, 2.0, 3.0];

fn forest() -> impl Strategy<Value = Forest> {
    proptest::collection::vec((0usize..TIME_POOL.len(), 0usize..=64), 1..160).prop_map(|raw| {
        Forest {
            nodes: raw
                .into_iter()
                .enumerate()
                .map(|(i, (t, p))| {
                    // A root with probability ~1/3, else some earlier node:
                    // deep chains with heavily shared prefixes.
                    if i == 0 || p % 3 == 0 {
                        (t, usize::MAX)
                    } else {
                        (t, p % i)
                    }
                })
                .collect(),
        }
    })
}

/// Materialize every node's chain oldest-first (the retained
/// reference representation) and intern the same forest in an arena.
fn build(f: &Forest) -> (ChainArena, Vec<u32>, Vec<Vec<f64>>) {
    let mut arena = ChainArena::new();
    let mut handles = Vec::with_capacity(f.nodes.len());
    let mut vecs: Vec<Vec<f64>> = Vec::with_capacity(f.nodes.len());
    for &(t, p) in &f.nodes {
        let time = TIME_POOL[t];
        let (parent_h, mut chain) = if p == usize::MAX {
            (NIL, Vec::new())
        } else {
            (handles[p], vecs[p].clone())
        };
        handles.push(arena.extend(parent_h, time));
        chain.push(time);
        vecs.push(chain);
    }
    (arena, handles, vecs)
}

proptest! {
    /// Arena comparison == reference comparison, every pair, both
    /// orientations; the serialized form is the chain most recent
    /// first.
    #[test]
    fn arena_cmp_matches_vec_reference(f in forest()) {
        let (arena, handles, vecs) = build(&f);
        let mut wires: Vec<Vec<f64>> = Vec::with_capacity(handles.len());
        for &h in &handles {
            let mut w = Vec::new();
            arena.serialize_into(h, &mut w);
            wires.push(w);
        }
        for i in 0..handles.len() {
            // The wire form is the reference chain reversed.
            let mut rev = vecs[i].clone();
            rev.reverse();
            prop_assert_eq!(&wires[i], &rev);
            for j in 0..handles.len() {
                let want = chain_cmp_ref(&vecs[i], &vecs[j]);
                prop_assert_eq!(arena.cmp(handles[i], handles[j]), want);
            }
        }
    }

    /// Epoch recycling never aliases a live chain: relocate a random
    /// subset (the "still-pending events"), drop the rest, then grow
    /// the arena aggressively — every survivor must still serialize to
    /// exactly its pre-compaction value and keep its pairwise order.
    #[test]
    fn recycling_never_aliases_live_chains(f in forest(), keep_mask in proptest::collection::vec(any::<bool>(), 160)) {
        let (mut arena, handles, _vecs) = build(&f);
        let live: Vec<u32> = handles
            .iter()
            .enumerate()
            .filter(|(i, _)| *keep_mask.get(*i).unwrap_or(&true))
            .map(|(_, &h)| h)
            .collect();
        let serialize = |arena: &ChainArena, h: u32| {
            let mut w = Vec::new();
            arena.serialize_into(h, &mut w);
            w
        };
        let before: Vec<Vec<f64>> = live.iter().map(|&h| serialize(&arena, h)).collect();
        // The reference comparator takes chains oldest first.
        let oldest_first = |w: &[f64]| w.iter().rev().copied().collect::<Vec<f64>>();
        arena.begin_compact();
        let live: Vec<u32> = live.iter().map(|&h| arena.relocate(h)).collect();
        arena.finish_compact();
        prop_assert_eq!(arena.epoch(), 1);
        // New-epoch churn: if recycling reused a live node's slot for
        // fresh data, some survivor's serialization would change.
        for k in 0..512u32 {
            let h = arena.extend(NIL, -1.0 - k as f64);
            arena.extend(h, -0.5);
        }
        for (i, &h) in live.iter().enumerate() {
            prop_assert_eq!(&serialize(&arena, h), &before[i], "live chain mutated by recycling");
            for (j, &g) in live.iter().enumerate() {
                prop_assert_eq!(
                    arena.cmp(h, g),
                    chain_cmp_ref(&oldest_first(&before[i]), &oldest_first(&before[j]))
                );
            }
        }
    }
}
