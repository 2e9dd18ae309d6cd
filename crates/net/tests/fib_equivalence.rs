//! Three-way FIB equivalence under churn.
//!
//! `LinearFib` is the executable oracle; `TrieFib` and `Dir248Fib`
//! must agree with it — on lookups *and* on the return
//! values of every insert/remove — under arbitrary interleavings of
//! operations. The in-module proptests in `fib.rs` cover the
//! insert-everything-then-probe shape; this harness covers the harder
//! shape, where removes and lookups land between inserts and the
//! incremental update paths (trie node pruning, DIR-24-8 spill-block
//! collapse) run mid-stream.
//!
//! The prefix pool is deliberately adversarial for `Dir248Fib`:
//! addresses are confined to eight /8s with only the low 16 bits free,
//! so /25–/32 routes pile into shared /24 blocks (spill sharing and
//! collapse), and the length distribution is biased toward the
//! spill range and includes /0 (default-route shadowing).

use dra_net::addr::{Ipv4Addr, Ipv4Prefix};
use dra_net::fib::{Dir248Fib, Fib, LinearFib, TrieFib};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Insert pool[raw % len] with the given next hop. Re-inserting a
    /// pooled prefix with a different hop exercises replacement.
    Insert(usize, u16),
    /// Remove pool[raw % len] (often present, sometimes not).
    Remove(usize),
    /// Longest-prefix-match probe at an arbitrary address.
    Lookup(u32),
}

fn plen_strategy() -> impl Strategy<Value = u8> {
    // The shim's prop_oneof! is unweighted; the /25–/32 arm appears
    // twice to bias the mix toward spill-block prefixes.
    prop_oneof![Just(0u8), 1u8..=8, 9u8..=24, 25u8..=32, 25u8..=32]
}

fn pool_strategy() -> impl Strategy<Value = Vec<Ipv4Prefix>> {
    proptest::collection::vec(
        (0u32..8, any::<u32>(), plen_strategy()).prop_map(|(hi, lo, len)| {
            let addr = (hi << 24) | (lo & 0x0000_FFFF);
            Ipv4Prefix::new(Ipv4Addr(addr), len)
        }),
        4..24,
    )
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<usize>(), 0u16..8).prop_map(|(i, nh)| Op::Insert(i, nh)),
            (any::<usize>(), 0u16..8).prop_map(|(i, nh)| Op::Insert(i, nh)),
            (any::<usize>()).prop_map(Op::Remove),
            any::<u32>().prop_map(Op::Lookup),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn churn_keeps_every_impl_in_agreement(
        pool in pool_strategy(),
        ops in ops_strategy(),
        probes in proptest::collection::vec(any::<u32>(), 24),
    ) {
        let mut lin = LinearFib::new();
        let mut trie = TrieFib::new();
        let mut dir = Dir248Fib::new();

        for op in &ops {
            match *op {
                Op::Insert(raw, nh) => {
                    let p = pool[raw % pool.len()];
                    let expect = lin.insert(p, nh);
                    prop_assert_eq!(trie.insert(p, nh), expect, "trie insert {}", p);
                    prop_assert_eq!(dir.insert(p, nh), expect, "dir248 insert {}", p);
                }
                Op::Remove(raw) => {
                    let p = pool[raw % pool.len()];
                    let expect = lin.remove(p);
                    prop_assert_eq!(trie.remove(p), expect, "trie remove {}", p);
                    prop_assert_eq!(dir.remove(p), expect, "dir248 remove {}", p);
                }
                Op::Lookup(a) => {
                    let addr = Ipv4Addr(a);
                    let expect = lin.lookup(addr);
                    prop_assert_eq!(trie.lookup(addr), expect, "trie lookup {}", addr);
                    prop_assert_eq!(dir.lookup(addr), expect, "dir248 lookup {}", addr);
                }
            }
            prop_assert_eq!(lin.len(), trie.len());
            prop_assert_eq!(lin.len(), dir.len());
        }

        // Final sweep: pooled prefixes (guaranteed interesting), their
        // broadcast neighbours (last-host edge of any spill block), and
        // arbitrary probes — scalar on all three, then one batched pass
        // on the compiled table to pin lookup_batch == lookup.
        let mut sweep: Vec<Ipv4Addr> = Vec::new();
        for p in &pool {
            sweep.push(p.addr());
            sweep.push(Ipv4Addr(p.addr().0 | 0xFF));
        }
        sweep.extend(probes.iter().map(|&a| Ipv4Addr(a)));

        let mut batched = vec![None; sweep.len()];
        dir.lookup_batch(&sweep, &mut batched);
        for (&addr, &got) in sweep.iter().zip(&batched) {
            let expect = lin.lookup(addr);
            prop_assert_eq!(trie.lookup(addr), expect, "trie sweep {}", addr);
            prop_assert_eq!(dir.lookup(addr), expect, "dir248 sweep {}", addr);
            prop_assert_eq!(got, expect, "dir248 batched sweep {}", addr);
        }
    }
}

/// The ISSUE's named cases, pinned deterministically so a proptest seed
/// change can never silently stop covering them.
#[test]
fn default_route_shadowing_and_spill_collapse() {
    let mut lin = LinearFib::new();
    let mut trie = TrieFib::new();
    let mut dir = Dir248Fib::new();

    let all: [&mut dyn Fib; 3] = [&mut lin, &mut trie, &mut dir];
    let script: &[(&str, &str, u16)] = &[
        ("insert", "0.0.0.0/0", 1),     // default route
        ("insert", "10.1.2.0/24", 2),   // base-table route
        ("insert", "10.1.2.128/25", 3), // forces a spill block
        ("insert", "10.1.2.130/32", 4), // host route in the same block
        ("insert", "10.1.2.130/32", 5), // replacement, same block
        ("remove", "10.1.2.130/32", 0),
        ("remove", "10.1.2.128/25", 0), // block empties: collapse to /24
        ("remove", "10.1.2.0/24", 0),   // falls back to the default
    ];
    let checkpoints: &[&str] = &["10.1.2.130", "10.1.2.1", "10.9.9.9", "11.0.0.1"];

    let mut fibs = all;
    for &(verb, pfx, nh) in script {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        let results: Vec<Option<u16>> = fibs
            .iter_mut()
            .map(|f| match verb {
                "insert" => f.insert(p, nh),
                _ => f.remove(p),
            })
            .collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "divergent {verb} {pfx}: {results:?}"
        );
        for &probe in checkpoints {
            let addr: Ipv4Addr = probe.parse().unwrap();
            let got: Vec<Option<u16>> = fibs.iter().map(|f| f.lookup(addr)).collect();
            assert!(
                got.windows(2).all(|w| w[0] == w[1]),
                "divergent lookup {probe} after {verb} {pfx}: {got:?}"
            );
        }
    }
    // Only the default route remains.
    assert_eq!(fibs[0].len(), 1);
    assert_eq!(fibs[2].lookup("10.1.2.130".parse().unwrap()), Some(1));
}
