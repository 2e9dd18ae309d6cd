//! SplitMix64-style seed derivation.
//!
//! Every replication of every cell gets its own RNG stream derived
//! *structurally* from `(master_seed, cell_index, replication,
//! stream)` — never from thread ids, scheduling order, or wall-clock —
//! so campaign results are bit-identical for 1 worker and N workers.
//!
//! The derivation hashes each coordinate into the state with a
//! SplitMix64 step per word. SplitMix64 is a bijective avalanche mix,
//! so distinct coordinate tuples map to distinct, decorrelated seeds;
//! neighbouring cells or replications share no low-bit structure the
//! way `master + index` would.

/// Sub-stream labels within one replication.
///
/// Keeping traffic and fault sampling on separate derived streams
/// means "same seed ⇒ byte-identical offered traffic" holds even when
/// two cells differ only in their fault schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Drives the packet simulator (traffic, service, backoff).
    Simulation,
    /// Drives fault-schedule sampling.
    Faults,
}

impl Stream {
    fn tag(self) -> u64 {
        match self {
            Stream::Simulation => 0x51D0,
            Stream::Faults => 0xFA17,
        }
    }
}

pub use dra_telemetry::lifecycle::splitmix64;

/// Fold `word` into `state` with full avalanche.
#[inline]
fn absorb(state: u64, word: u64) -> u64 {
    let mut s = state ^ word.wrapping_mul(0x2545_F491_4F6C_DD1D);
    splitmix64(&mut s)
}

/// Derive the RNG seed for `(cell_index, replication)` under `master`.
pub fn derive_seed(master: u64, cell_index: u64, replication: u64, stream: Stream) -> u64 {
    let mut s = master;
    s = absorb(s, 0xD8A_CA3B); // domain separator for this scheme, v1
    s = absorb(s, cell_index);
    s = absorb(s, replication);
    s = absorb(s, stream.tag());
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable() {
        // Pinned values: the artifact format documents this scheme, so
        // a silent change must fail a test.
        let a = derive_seed(0, 0, 0, Stream::Simulation);
        let b = derive_seed(0, 0, 0, Stream::Simulation);
        assert_eq!(a, b);
        assert_eq!(a, 0xaaffb9517c35ab62, "seed-derivation scheme changed");
    }

    #[test]
    fn coordinates_are_independent() {
        let base = derive_seed(1, 2, 3, Stream::Simulation);
        assert_ne!(base, derive_seed(2, 2, 3, Stream::Simulation));
        assert_ne!(base, derive_seed(1, 3, 3, Stream::Simulation));
        assert_ne!(base, derive_seed(1, 2, 4, Stream::Simulation));
        assert_ne!(base, derive_seed(1, 2, 3, Stream::Faults));
    }

    #[test]
    fn no_collisions_on_a_campaign_sized_grid() {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for cell in 0..64 {
            for rep in 0..64 {
                for stream in [Stream::Simulation, Stream::Faults] {
                    assert!(
                        seen.insert(derive_seed(42, cell, rep, stream)),
                        "collision at cell {cell} rep {rep}"
                    );
                }
            }
        }
    }

    #[test]
    fn swapped_coordinates_do_not_collide() {
        // (cell=5, rep=9) vs (cell=9, rep=5) — a plain xor of
        // coordinates would collide here.
        assert_ne!(
            derive_seed(7, 5, 9, Stream::Simulation),
            derive_seed(7, 9, 5, Stream::Simulation)
        );
    }
}
