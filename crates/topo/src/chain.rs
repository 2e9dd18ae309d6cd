//! Interned provenance chains: the parent-pointer arena behind the
//! network engine's tie ordering.
//!
//! A serial DES kernel breaks exact `f64` time ties by scheduling
//! sequence; the network engine recovers that order from event
//! *provenance* — the chain of ancestor pop times, compared most
//! recent first (see the [`crate::kernel`] module docs). Carrying that
//! chain as a `Vec<f64>` per packet costs one heap allocation plus a
//! clone-and-push **per hop per packet**, which dominated the
//! engine's per-event overhead.
//!
//! This module stores chains structurally instead: an append-only
//! arena of `(pop_time, parent)` nodes. A packet carries one `u32`
//! handle; extending its chain by a hop is one arena append, and
//! comparing two chains walks parent pointers — which is naturally
//! most-recent-first, exactly the order [`chain_cmp_ref`] (the
//! retained `Vec<f64>` reference implementation) visits. No depth or
//! length field is needed: a chain that runs out of ancestors first
//! on an equal prefix is the *shorter* chain, and the walk observes
//! that as hitting [`NIL`] first.
//!
//! Memory stays bounded by **epoch-based recycling**: between event
//! batches the kernel asks the arena to compact, copying only the
//! paths reachable from still-pending events into a fresh epoch and
//! rewriting their handles. Copying paths *by value* is semantically
//! free — chains are compared by value, never by identity — so losing
//! structural sharing across a compaction cannot change any ordering.
//! Handles from an older epoch are invalid the moment the epoch ends;
//! the regression tests in `tests/chain_arena.rs` pin that recycling
//! never aliases a live chain.

use std::cmp::Ordering;

/// The empty chain (no provenance: injections and scripted actions).
pub const NIL: u32 = u32::MAX;

/// Compact below this many nodes is never worthwhile.
const MIN_COMPACT: usize = 1 << 15;

/// One chain node: a pop time and the rest of the chain.
#[derive(Debug, Clone, Copy)]
struct ChainNode {
    time: f64,
    parent: u32,
}

/// An append-only arena of provenance-chain nodes with epoch-based
/// compaction. Handles are `u32` indices; [`NIL`] is the empty chain.
#[derive(Debug, Default)]
pub struct ChainArena {
    nodes: Vec<ChainNode>,
    /// Next epoch under construction during a compaction.
    scratch: Vec<ChainNode>,
    /// Reused path buffer for [`ChainArena::relocate`].
    path: Vec<f64>,
    /// Compact when `nodes.len()` reaches this (0 = `MIN_COMPACT`).
    next_compact: usize,
    /// Epochs completed; a handle is only valid within the epoch that
    /// created it.
    epoch: u64,
}

impl ChainArena {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes currently stored (live + garbage awaiting compaction).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes are stored.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Compactions completed so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Extend `parent` by one pop at `time`; returns the new chain.
    #[inline]
    pub fn extend(&mut self, parent: u32, time: f64) -> u32 {
        let h = self.nodes.len() as u32;
        assert!(h != NIL, "chain arena overflow");
        self.nodes.push(ChainNode { time, parent });
        h
    }

    /// Compare two chains most-recent-first — bit-identical to
    /// [`chain_cmp_ref`] on the equivalent oldest-first `Vec<f64>`s:
    /// first differing pop time decides; on an equal prefix the chain
    /// that runs out first (independent provenance) orders first.
    pub fn cmp(&self, mut a: u32, mut b: u32) -> Ordering {
        loop {
            if a == b {
                // Covers (NIL, NIL) and shared interned suffixes.
                return Ordering::Equal;
            }
            if a == NIL {
                return Ordering::Less;
            }
            if b == NIL {
                return Ordering::Greater;
            }
            let na = self.nodes[a as usize];
            let nb = self.nodes[b as usize];
            match na.time.total_cmp(&nb.time) {
                Ordering::Equal => {
                    a = na.parent;
                    b = nb.parent;
                }
                o => return o,
            }
        }
    }

    /// Append the chain's pop times, most recent first, onto `out`.
    pub fn serialize_into(&self, mut h: u32, out: &mut Vec<f64>) {
        while h != NIL {
            let n = self.nodes[h as usize];
            out.push(n.time);
            h = n.parent;
        }
    }

    /// True when enough garbage may have accumulated that the owner
    /// should run a compaction epoch (cheap to call every batch).
    pub fn should_compact(&self) -> bool {
        self.nodes.len() >= self.next_compact.max(MIN_COMPACT)
    }

    /// Open a compaction epoch. Until [`ChainArena::finish_compact`],
    /// the owner must [`ChainArena::relocate`] every live handle; any
    /// handle not relocated is garbage and dies with the old epoch.
    pub fn begin_compact(&mut self) {
        self.scratch.clear();
    }

    /// Copy the path reachable from `h` into the next epoch and return
    /// its new handle. Only valid between `begin_compact` and
    /// `finish_compact`.
    pub fn relocate(&mut self, h: u32) -> u32 {
        let mut path = std::mem::take(&mut self.path);
        path.clear();
        let mut cur = h;
        while cur != NIL {
            let n = self.nodes[cur as usize];
            path.push(n.time);
            cur = n.parent;
        }
        let mut nh = NIL;
        for &t in path.iter().rev() {
            let idx = self.scratch.len() as u32;
            assert!(idx != NIL, "chain arena overflow");
            self.scratch.push(ChainNode {
                time: t,
                parent: nh,
            });
            nh = idx;
        }
        self.path = path;
        nh
    }

    /// Close the compaction epoch: the relocated nodes become the
    /// arena, the old epoch's storage is retained (empty) for the next
    /// epoch, and the compaction threshold adapts to the live size so
    /// a large steady-state population is not recompacted every
    /// batch.
    pub fn finish_compact(&mut self) {
        std::mem::swap(&mut self.nodes, &mut self.scratch);
        self.next_compact = (self.nodes.len() * 4).max(MIN_COMPACT);
        self.epoch += 1;
    }
}

/// The retained reference implementation: compare two provenance
/// chains stored oldest-first (injection first) as the serial-replay
/// `Vec<f64>` representation did, most recent entry first, falling
/// back to shorter-first when one chain's provenance runs out.
pub fn chain_cmp_ref(a: &[f64], b: &[f64]) -> Ordering {
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        match x.total_cmp(y) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    a.len().cmp(&b.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intern_oldest_first(arena: &mut ChainArena, chain: &[f64]) -> u32 {
        let mut h = NIL;
        for &t in chain {
            h = arena.extend(h, t);
        }
        h
    }

    #[test]
    fn cmp_matches_reference_on_handcrafted_chains() {
        let cases: &[(&[f64], &[f64])] = &[
            (&[], &[]),
            (&[], &[1.0]),
            (&[1.0, 2.0], &[1.0, 2.0]),
            (&[1.0, 2.0], &[0.5, 2.0]),
            (&[1.0, 2.0], &[2.0]),
            (&[0.0, 3.0, 5.0], &[1.0, 3.0, 5.0]),
            (&[3.0, 5.0], &[1.0, 3.0, 5.0]),
            (&[-0.0, 2.0], &[0.0, 2.0]), // total_cmp: -0.0 < 0.0
        ];
        let mut arena = ChainArena::new();
        for (a, b) in cases {
            let ha = intern_oldest_first(&mut arena, a);
            let hb = intern_oldest_first(&mut arena, b);
            assert_eq!(arena.cmp(ha, hb), chain_cmp_ref(a, b), "{a:?} vs {b:?}");
            assert_eq!(
                arena.cmp(hb, ha),
                chain_cmp_ref(b, a),
                "{b:?} vs {a:?} (swapped)"
            );
        }
    }

    #[test]
    fn serialize_lists_pop_times_most_recent_first() {
        let mut arena = ChainArena::new();
        let h = intern_oldest_first(&mut arena, &[1.0, 2.0, 3.0]);
        let mut wire = Vec::new();
        arena.serialize_into(h, &mut wire);
        assert_eq!(wire, vec![3.0, 2.0, 1.0], "most recent first");
    }

    #[test]
    fn shared_prefix_extension_orders_like_vectors() {
        let mut arena = ChainArena::new();
        let base = intern_oldest_first(&mut arena, &[1.0, 4.0]);
        let left = arena.extend(base, 5.0);
        let right = arena.extend(base, 6.0);
        assert_eq!(arena.cmp(left, right), Ordering::Less);
        assert_eq!(arena.cmp(left, base), Ordering::Greater, "longer > prefix");
        assert_eq!(
            chain_cmp_ref(&[1.0, 4.0, 5.0], &[1.0, 4.0]),
            Ordering::Greater
        );
    }

    #[test]
    fn compaction_preserves_values_and_bumps_epoch() {
        let mut arena = ChainArena::new();
        let live = intern_oldest_first(&mut arena, &[1.0, 2.0, 3.0]);
        // Garbage that must die with the epoch.
        for i in 0..100 {
            arena.extend(NIL, i as f64);
        }
        let before = {
            let mut v = Vec::new();
            arena.serialize_into(live, &mut v);
            v
        };
        arena.begin_compact();
        let live = arena.relocate(live);
        arena.finish_compact();
        assert_eq!(arena.epoch(), 1);
        assert_eq!(arena.len(), 3, "only the live path survives");
        let mut after = Vec::new();
        arena.serialize_into(live, &mut after);
        assert_eq!(before, after);
    }
}
