//! The bitmask arbiter's determinism contract, exercised head to head:
//! `Crossbar` (u64 word bitmaps over cell VOQs) must transfer the
//! *identical* cell sequence and leave *identical* round-robin pointer
//! state as `ScalarCrossbar` (the O(n²) reference in
//! `tests/support/scalar_crossbar.rs`) for every
//! port count — including non-multiples of 64, where the circular
//! word-scan has to stitch a wrap across word boundaries.
//!
//! Each proptest case derives a random request matrix, random
//! grant/accept pointer states, and an iteration count from a seed,
//! runs both fabrics slot by slot until drained, and compares every
//! transferred cell and both pointer arrays after every slot.

use dra::net::packet::PacketId;
use dra::net::sar::Cell;
use dra::router::fabric::Crossbar;
use proptest::prelude::*;
use scalar_crossbar::ScalarCrossbar;

#[path = "support/scalar_crossbar.rs"]
mod scalar_crossbar;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn cell(src: u16, dst: u16, id: u64, seq: u16, total: u16) -> Cell {
    Cell {
        src_lc: src,
        dst_lc: dst,
        packet: PacketId(id),
        seq,
        total,
        payload_bytes: 48,
    }
}

/// Drive both arbiters over the same randomized workload and compare
/// every observable after every slot.
fn assert_equivalent(n: usize, iterations: usize, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let voq_cap = 8;
    let mut bitmask = Crossbar::new(n, voq_cap, iterations, 1, 1);
    let mut scalar = ScalarCrossbar::new(n, voq_cap, iterations);

    // Random starting pointer state — equivalence must hold from any
    // reachable (indeed any legal) pointer configuration, not just the
    // all-zeros reset.
    let grant: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    let accept: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
    bitmask.set_pointers(&grant, &accept);
    scalar.set_pointers(&grant, &accept);

    // Random request matrix: each (input, output) VOQ gets 0..=3 cells
    // with probability that leaves the matrix a mix of dense rows,
    // sparse rows, and empty rows. Cells carry unique ids so any
    // reordering is caught, and identical enqueue order feeds both.
    let mut id = 0u64;
    for i in 0..n as u16 {
        for o in 0..n as u16 {
            if rng.gen_range(0..100) < 35 {
                let burst = rng.gen_range(1..=3u16);
                for s in 0..burst {
                    let c = cell(i, o, id, s, burst);
                    id += 1;
                    let a = bitmask.enqueue(c);
                    let b = scalar.enqueue(c);
                    assert_eq!(a.is_ok(), b.is_ok(), "admission must agree");
                }
            }
        }
    }
    assert_eq!(bitmask.queued_cells(), scalar.queued_cells());

    let mut slots = 0;
    let mut got = Vec::new();
    while !scalar.is_empty() {
        got.clear();
        bitmask.schedule_slot(&mut got);
        let want = scalar.schedule_slot();
        assert_eq!(
            got, want,
            "slot {slots}: transferred cells diverge (n={n}, iters={iterations}, seed={seed})"
        );
        assert_eq!(
            bitmask.pointers(),
            scalar.pointers(),
            "slot {slots}: pointer state diverges (n={n}, iters={iterations}, seed={seed})"
        );
        assert_eq!(bitmask.queued_cells(), scalar.queued_cells());
        slots += 1;
        assert!(slots <= 16 * n * voq_cap, "drain did not terminate");
    }
    assert!(bitmask.is_empty(), "bitmask retains cells after drain");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Single-word regime (n ≤ 64): the rotate + trailing_zeros fast
    /// path, at a tiny and a full word-width port count.
    #[test]
    fn equivalent_small_ports(seed in any::<u64>(), iters in 1usize..=4) {
        assert_equivalent(3, iters, seed);
        assert_equivalent(8, iters, seed);
        assert_equivalent(64, iters, seed);
    }

    /// Multi-word regime with a ragged tail word (n = 65): the wrap
    /// in the circular scan crosses a word boundary and the tail mask
    /// must keep phantom bits 65..128 out of every bitmap.
    #[test]
    fn equivalent_non_word_multiple(seed in any::<u64>(), iters in 1usize..=4) {
        assert_equivalent(65, iters, seed);
    }

    /// Full four-word bitmaps (n = 256), the port count the scaling
    /// sweep benchmarks.
    #[test]
    fn equivalent_256_ports(seed in any::<u64>(), iters in 1usize..=2) {
        assert_equivalent(256, iters, seed);
    }
}

/// Beyond random sampling: the saturated-uniform workload where iSLIP
/// pointer desynchronization does the heavy lifting, over enough slots
/// for the pointers to cycle their full range several times.
#[test]
fn equivalent_under_uniform_saturation() {
    for n in [4usize, 63, 64, 65] {
        let mut bitmask = Crossbar::new(n, 64, 1, 1, 1);
        let mut scalar = ScalarCrossbar::new(n, 64, 1);
        let mut id = 0u64;
        for i in 0..n as u16 {
            for o in 0..n as u16 {
                for _ in 0..4 {
                    let c = cell(i, o, id, 0, 1);
                    id += 1;
                    bitmask.enqueue(c).unwrap();
                    scalar.enqueue(c).unwrap();
                }
            }
        }
        let mut slot = 0;
        let mut got = Vec::new();
        while !scalar.is_empty() {
            got.clear();
            bitmask.schedule_slot(&mut got);
            assert_eq!(got, scalar.schedule_slot(), "n={n} slot={slot}");
            assert_eq!(bitmask.pointers(), scalar.pointers(), "n={n} slot={slot}");
            slot += 1;
        }
        assert!(bitmask.is_empty());
    }
}
